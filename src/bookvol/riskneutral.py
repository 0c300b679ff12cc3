"""Clearing-price volatility, market price of risk, and the stepping of books.

The clearing price moves because the whole curve moves.  Writing the curve
value at the node below bucket i as N(i-1) (noise loading vector V_i over the
2K factors) and the bucket-i mass as q̃(i), the zero-crossing offset inside
bucket i is z = Δp·N(i-1)/q̃(i) + const, so Itô's formula on that ratio gives
the exact drift and loadings of π for the piecewise-linear curve.  Killing
the drift for every possible clearing bucket i yields a square linear system
in the per-factor market prices of risk λ_j:

    Σ(i,j) λ_j = b(i),   Σ(i,j) = [-V_i(j) + w_i·q̃(i)σ(i)B(i,j)]·Δp

where w_i is the zero position each row assumes inside its bucket
(_CLEARING_ANCHOR, mid-bucket, for the live clearing row; the bucket edge for
the hypothetical ones).  The right side collects the physical drift of the
curve value, the w_i share of the clearing bucket's own drift, and the
covariance between the clearing-bucket mass and the price: see
_kill_matrix and _kill_rhs, the one assembly of Σ and b.  The right side is
kept as b(0) over the row differences db(i) = b(i+1) - b(i), and that whole
column is one product and one sum, G·p + N∘μ, in the pivots p = xσΔp and
the drifts μ of the log state's rows: G holds the covariance terms,
differenced, once per run in StepPlan.  The closed-form kill solves it into
one shift per row of the log state, edge first, and the full b (dense
systems, path-0 residual) is its cumulative sum.  Under the changed measure
each factor increment picks up -λ_j√Δp·dt, which is how step_risk_neutral
applies the dense solution.

Every function here answers per book, for the columns of a demand.Ensemble;
a single book is an ensemble of one.

Dynamics: each log mass follows an Ornstein-Uhlenbeck process driven by the
factor noise of the sheet module.  After every step the curve is re-cleared
by one rule: the zero crossing is interpolated, π moves there, and the edge
is re-anchored so the zero sits mid-bucket 0 at the new π.  The masses keep
their labels, so the curve relative to π moves with π, as Itô-Wentzell
carries it; keeping the profile intact preserves the stationary book shape
that the volatility of π is built from.
step_ensemble is the only step and run_steps the only loop over steps; a
run's StepPlan holds constants and work arrays whose values die with the step.

The quoted volatility identity sigma_pi = ||V||·Δp/q̃(clearing bucket) uses
the curve-value loadings alone (price_vol); the live row of the linear
system additionally carries the clearing bucket's own half-weighted noise,
a sub-percent distinction kept so that doubling the clearing mass halves
sigma_pi exactly.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple

import numpy as np

from . import sheet
from .demand import (_CLEARING_ANCHOR, Cleared, Ensemble, _batch_clear, _running_sum,
                     init_ensemble)
from .errors import SimulationError, SingularSystemError
from .params import ModelParams

COND_LIMIT = 1e12


def kill_vectors(ens: Ensemble, params: ModelParams) -> np.ndarray:
    """(2K, F, n): rows i = -K+1..K hold, per book, the factor loadings V_i of
    the curve value entering bucket i."""
    per_bucket = (np.exp(ens.log_q) * params.sigma_q_rel[:, None])[:, None, :] \
        * params.loadings[:, :, None]
    below = np.concatenate([np.zeros_like(per_bucket[:1]), np.cumsum(per_bucket[:-1], axis=0)])
    edge = np.exp(ens.log_edge) * params.sigma_edge_rel
    return edge * params.edge_loadings[:, None] - below


@dataclass(frozen=True)
class PriceVol:
    sigma_pi: np.ndarray    # (n,) currency per sqrt(hour)
    b_pi: np.ndarray        # (F, n) factor loadings, sum_j b^2 Δp = 1 per book


def price_vol(ens: Ensemble, params: ModelParams) -> PriceVol:
    """Volatility of π in the clearing bucket 0 of each book, via loading
    normalization.

    The unnormalized loading vector of dπ is -V·Δp/q̃(0); its Δp-norm is
    sigma_pi and the normalized remainder is b_pi (zero where sigma_pi is).
    """
    i = params.idx(0)
    u = -kill_vectors(ens, params)[i] * ens.delta_p / np.exp(ens.log_q[i])
    sigma = np.sqrt(_running_sum(u**2)[-1] * ens.delta_p)
    return PriceVol(sigma, u / np.where(sigma > 0.0, sigma, np.inf))


def sigma_pi_direct(ens: Ensemble, params: ModelParams) -> np.ndarray:
    """Same volatility evaluated directly: ||V||·Δp / q̃(0), per book."""
    i = params.idx(0)
    v = kill_vectors(ens, params)[i]
    return np.sqrt(_running_sum(v**2)[-1] * ens.delta_p) * ens.delta_p / np.exp(ens.log_q[i])


# ----------------------------------------------------------------------
# the market-price-of-risk system

@dataclass
class MprSystem:
    """The drift-kill systems of n books, stacked for np.linalg."""

    Sigma: np.ndarray                           # (n, 2K, F)
    b: np.ndarray                               # (n, 2K)
    lam: np.ndarray | None = None               # (n, F)
    residual_norm: np.ndarray | None = None     # (n,)
    cond: np.ndarray | None = None              # (n,)


def _kill_matrix(ens: Ensemble, params: ModelParams) -> np.ndarray:
    """Left sides Σ of the drift-kill systems, stacked (n, 2K, F): one row per
    potential clearing bucket, one matrix per book.  Only the clearing row
    carries its bucket's own anchored noise: it puts the zero at demand's
    _CLEARING_ANCHOR, where clearing re-centers it, so the realized price
    drift is killed exactly.  The hypothetical rows of the other buckets
    anchor at the bucket edge (w = 0), which decouples the row differences:
    each λ_j is pinned by its own bucket's drift instead of an alternating
    neighbour recursion that amplifies through thinly populated buckets."""
    i0 = params.idx(0)
    rows = -kill_vectors(ens, params)
    rows[i0] += _CLEARING_ANCHOR * np.exp(ens.log_q[i0]) * params.sigma_q_rel[i0] \
        * params.loadings[i0][:, None]
    return np.moveaxis(rows * ens.delta_p, -1, 0)


def _state_rows(edge, buckets) -> np.ndarray:
    """An edge value and the (2K,) bucket values as one (2K+1, 1) column, in
    the row order of Ensemble.log_state."""
    return np.concatenate(([edge], buckets))[:, None]


def _kill_rhs(ens: Ensemble, params: ModelParams, plan: StepPlan
              ) -> tuple[np.ndarray, np.ndarray]:
    """Right sides of the drift-kill systems, (2K, n), and the pivots p =
    xσΔp, (2K+1, n) in the state's row order, that they were built from,
    with x = exp(log state); views of plan.X and of plan.S, where p replaces x.

    With μ the physical drifts of the masses and the edge, the right side is
    b(i) = Σ_{l<i} μ_q(l) - μ_e + w_i·(μ_q(i) - q̃σ²(i)) + cross(i), where
    cross(i) = σ_i·B_i·(p_e B_E - Σ_{l<i} p_l B_l) is linear in p.  Row 0
    holds b(0) and row i+1 db(i) = b(i+1) - b(i) = μ_q(i) + cross(i+1) -
    cross(i), so the whole column is G·p + N∘μ: G (plan.G) holds the
    differenced cross terms and the clearing row i0's anchored -w·q̃σ², N
    the drifts' signs (-1 for the edge, 1 - w for the clearing bucket,
    folded into plan.mu_slope and plan.mu_level), and the clearing bucket's
    w·μ_q(i0) is added to row i0.
    """
    i0 = params.idx(0)
    x, mu, rhs = np.exp(ens.log_state, out=plan.S), plan.M[:-1], plan.X[:-1]
    # N∘μ = x·(-N·a·(log x - m) + N·σ²/2); the last bucket's drift enters no row
    np.subtract(ens.log_state[:-1], plan.mean, out=mu)
    mu *= plan.mu_slope
    mu += plan.mu_level
    mu *= x[:-1]
    p = np.multiply(x, plan.pivot_scale, out=x)     # x is spent
    np.matmul(plan.G, p, out=rhs)
    rhs += mu
    rhs[i0] += plan.own_share * mu[i0 + 1]
    return rhs, p


def build_mpr_system(ens: Ensemble, params: ModelParams) -> MprSystem:
    """Assemble each book's drift-kill equations, one row per potential
    clearing bucket: Σ is (n, 2K, F) and b is (n, 2K)."""
    rhs, _ = _kill_rhs(ens, params, StepPlan(params, None, ens.pi.size))
    return MprSystem(Sigma=_kill_matrix(ens, params), b=np.cumsum(rhs, axis=0).T)


def solve_mpr(system: MprSystem) -> MprSystem:
    """Solve every book's system for λ by dense factorization; record the
    residual norms and condition numbers, one per book."""
    try:
        cond = np.linalg.cond(system.Sigma)
        if not np.all(cond <= COND_LIMIT):
            raise SingularSystemError(
                f"market-price-of-risk system condition number {np.max(cond):.3e} "
                f"exceeds {COND_LIMIT:.0e}")
        lam = np.linalg.solve(system.Sigma, system.b[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"market-price-of-risk system is singular: {exc}") from exc
    residual = np.linalg.norm((system.Sigma @ lam[..., None])[..., 0] - system.b, axis=-1)
    return replace(system, lam=lam, residual_norm=residual, cond=cond)


def step_risk_neutral(ens: Ensemble, params: ModelParams, lam: np.ndarray,
                      inc: np.ndarray, dt: float) -> Cleared:
    """One step of every book under the changed measure with dense λ (n, F):
    dW_j -> dW_j - λ_j√Δp·dt, then re-clear (in place).  The test oracle of
    the closed-form kill that run_steps applies.

    params.drift_c, the physical measure's price trend, does not apply here:
    run_steps adds it to π under P only, and under Q π is a martingale.
    """
    shifted = inc - lam * math.sqrt(params.delta_p) * dt
    return step_ensemble(ens, params, shifted, StepPlan(params, dt, ens.pi.size))


# ----------------------------------------------------------------------
# the per-run plan, and the closed-form drift kill over a path ensemble
# (step_ensemble applies it; the dense solve_mpr above is its test oracle)

class StepPlan:
    """The per-run constants and work arrays of step_ensemble over dt for
    n_paths books, so that a step allocates no array of their size.

    Constants, built once:
      - the kill's right-side operator G (2K, 2K+1), the drift coefficients
        and the pivot scales σΔp (see _kill_rhs);
      - with `kill`, the closed-form solution's A = [B_E; B rows 0..2K-2]
        and g = A⁻ᵀ·B(2K-1,:).  Row-differencing the square system leaves a
        bidiagonal relation in the rotated unknowns e = B_E·λ and y_i =
        B(i,:)·λ, so each path's Girsanov shifts (which only involve e and
        y, never λ itself) come out in O(K) arithmetic per bucket instead of
        a dense solve; λ is recovered on demand as A⁻¹·shift[:-1];
      - with a dt (None for the right side alone), the exact OU step: the
        decay e^{-aΔt}, the level m(1 - e^{-aΔt}), the stacked projection
        [B_E; B] scaled by vol·√Δp/√dt, and the kill scale vol·Δp·√dt.

    Work arrays, (2K+1, n) each, each holding two or more values in turn:
      S  in the kill the exp x of the state, then the pivots p = xσΔp; then
         the draws, in `draws`, an (n, F) view of its first n·F values; then
         the node values in clearing;
      M  the drifts μ, then the kill's shift, scaled in place by the OU
         update;
      X  the right side, then the noise z of the OU update;
    plus `finite`, the kill's finiteness mask.  No value outlives its step,
    so a plan serves any books of its size, whatever changed them between
    steps.
    """

    def __init__(self, params: ModelParams, dt: float | None, n_paths: int, *,
                 kill: bool = False):
        i0, w, dp = params.idx(0), _CLEARING_ANCHOR, params.delta_p
        a = _state_rows(params.a_edge, params.a_q)
        mean = _state_rows(params.mean_log_edge, params.mean_logq)
        sigma = _state_rows(params.sigma_edge_rel, params.sigma_q_rel)
        self.pivot_scale = sigma * dp
        cross = np.hstack([params.loadings @ params.edge_loadings[:, None],
                           -np.tril(params.loadings @ params.loadings.T, k=-1)])
        cross *= sigma[1:]
        self.G = np.diff(cross, axis=0, prepend=0.0)
        own = w * sigma[i0 + 1, 0] / dp                 # w·q̃σ² = w·(σ/Δp)·p
        self.G[i0, i0 + 1] -= own
        self.G[i0 + 1, i0 + 1] += own
        sign = np.ones_like(a[:-1])
        sign[0], sign[i0 + 1] = -1.0, 1.0 - w
        self.mean = mean[:-1]
        self.mu_slope = -sign * a[:-1]
        self.mu_level = sign * (0.5 * sigma[:-1]**2)
        self.own_share = w / (1.0 - w)
        if kill:
            if np.any(params.sigma_q_rel <= 0) or params.sigma_edge_rel <= 0:
                raise SingularSystemError(
                    "every bucket and the edge need positive volatility for a "
                    "unique market price of risk")
            self.A = np.vstack([params.edge_loadings, params.loadings[:-1]])
            try:
                self.g = np.linalg.solve(self.A.T, params.loadings[-1])
            except np.linalg.LinAlgError as exc:
                raise SingularSystemError(
                    f"factor loadings do not identify the market prices of risk: {exc}"
                ) from exc
        if dt is not None:
            if dt <= 0:
                raise ValueError("dt must be positive")
            self.decay, vol = _ou_factors(a, sigma, dt)
            self.level = mean * (1.0 - self.decay)
            self.projection = np.vstack([params.edge_loadings, params.loadings]) \
                * (vol * (math.sqrt(dp) / math.sqrt(dt)))
            self.kill_scale = vol * (dp * math.sqrt(dt))
        self.S, self.M, self.X = (np.empty((2 * params.K + 1, n_paths)) for _ in range(3))
        self.finite = np.empty(self.S.shape, dtype=bool)
        if dt is not None:          # F = 2K, so the draws fit in S
            self.draws = self.S.reshape(-1)[:n_paths * params.factor_count] \
                .reshape(n_paths, params.factor_count)


def _batch_kill_shifts(ens: Ensemble, params: ModelParams, plan: StepPlan
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drift-kill shifts of every path, (2K+1, n) in the state's row order
    (e = B_E·λ, then y = B·λ), the right sides of _kill_rhs, and the live
    paths whose kill is singular: a pivot q̃σ (the edge, the buckets below
    the top) under 1/COND_LIMIT of the path's largest bucket q̃σ, or a
    non-finite shift.  Singular shifts are zeroed.  The shifts are plan.M
    and the right sides a view of plan.X."""
    i0 = params.idx(0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rhs, p = _kill_rhs(ens, params, plan)
        shift = plan.M                              # μ is spent
        np.divide(rhs, p[:-1], out=shift[:-1])
        shift[i0 + 1] /= _CLEARING_ANCHOR
        shift[i0] = (rhs[i0] - _CLEARING_ANCHOR * p[i0 + 1] * shift[i0 + 1]) / p[i0]
        shift[0] *= -1.0                            # the edge enters with a minus sign
        np.matmul(plan.g[1:], shift[1:-1], out=shift[-1])   # y_last = g·shift[:-1]
        shift[-1] += plan.g[0] * shift[0]
        sound = (p[:-1].min(axis=0) >= p[1:].max(axis=0) / COND_LIMIT) \
            & np.isfinite(shift, out=plan.finite).all(axis=0)
    if not sound.all():
        np.copyto(shift, 0.0, where=~sound)
    return shift, rhs, ens.alive & ~sound


def _path0_rel_residual(ens: Ensemble, params: ModelParams, plan: StepPlan,
                        shift: np.ndarray, rhs: np.ndarray) -> float:
    """Residual of the full system on path 0, as a solve-quality telltale;
    Σ is built for path 0 alone.  Like the kill, it runs under errstate: a
    book that overflows reads as a non-finite residual, not a warning."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lam0 = np.linalg.solve(plan.A, shift[:-1, 0])
        b = np.cumsum(rhs[:, 0])
        bnorm = float(np.linalg.norm(b))
        residual = _kill_matrix(ens.column(0), params)[0] @ lam0 - b
        return float(np.linalg.norm(residual)) / (bnorm if bnorm > 0 else 1.0)


# ----------------------------------------------------------------------
# the one step, its records, and the one loop over steps

class StepRow(NamedTuple):
    """One simulation step: paths alive after it and aborts by cause."""

    alive: int
    top: int
    bottom: int
    broken: int             # non-finite curve
    singular: int
    residual: float         # path-0 drift-kill relative residual; nan when not solved


@dataclass
class SimDiagnostics:
    """Per-step rows of a simulation; the run totals are sums over them."""

    rows: list[StepRow]

    n_relabel = 0           # clearing never relabels; read by bench/workloads.py
    n_steps = property(lambda self: len(self.rows))
    n_aborted_top = property(lambda self: sum(r.top for r in self.rows))
    n_aborted_bottom = property(lambda self: sum(r.bottom for r in self.rows))
    n_aborted_broken = property(lambda self: sum(r.broken for r in self.rows))
    n_aborted_singular = property(lambda self: sum(r.singular for r in self.rows))
    n_aborted = property(lambda self: sum(r.top + r.bottom + r.broken + r.singular
                                          for r in self.rows))

    @property
    def max_rel_residual(self) -> float:
        return max((r.residual for r in self.rows if not math.isnan(r.residual)), default=0.0)


def _ou_factors(a, sigma, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact-step decay e^{-a dt} and noise scale sqrt(var of the OU increment)."""
    a = np.asarray(a, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    decay = np.exp(-a * dt)
    var_scale = np.where(a > 0, -np.expm1(-2 * np.where(a > 0, a, 1.0) * dt) / (2 * a + (a <= 0)),
                         dt)
    return decay, sigma * np.sqrt(var_scale)


def step_ensemble(ens: Ensemble, params: ModelParams, inc: np.ndarray, plan: StepPlan,
                  *, kill=None, translation: float = 0.0) -> Cleared:
    """Advance every live path one step and re-clear it (in place).

    The (n, F) factor increments `inc`, projected on the loadings and scaled
    to unit variance, drive the exact OU update of the log edge and masses,
    state·e^{-aΔt} + m(1 - e^{-aΔt}) + z; the rotated drift-kill solutions
    `kill`, one (2K+1, n) array in the state's row order, shift those
    drivers by -kill·Δp·√dt; `kill` is spent, scaled in place.  Live prices
    then move by `translation`.  `plan` is the run's StepPlan(params, dt,
    n_paths): the noise scales are folded into its projection and kill
    scale, and z and clearing's node values go into its work arrays, so
    `inc` may be plan.draws.
    """
    # one gemm, edge row first as in the log state: the same bits for any
    # group of two or more paths
    z = np.matmul(plan.projection, inc.T, out=plan.X)
    if kill is not None:
        kill *= plan.kill_scale
        z -= kill
    dead = None if np.count_nonzero(ens.alive) == ens.alive.size else np.flatnonzero(~ens.alive)
    if dead is not None:        # frozen paths keep their state through the update
        frozen = ens.log_state[:, dead]
    state = ens.log_state       # updated in place
    state *= plan.decay
    state += plan.level
    state += z
    if dead is not None:
        state[:, dead] = frozen
    cleared = _batch_clear(ens, params, plan.S)
    if translation:
        np.add(ens.pi, translation, out=ens.pi, where=ens.alive)
    return cleared


class _OneBlasThread:
    """A reentrant pin of numpy's bundled OpenBLAS to one thread.

    The step's products are small gemms, (2K) × (2K+1) and (2K+1) × F by
    n columns: a second BLAS thread buys them no wall time and only spins,
    which doubled the CPU time of a 10⁴-path run on a 2-core host (numpy
    2.4.6, scipy-openblas 0.3.31).  The thread-count getter and setter are
    looked up on first use, through numpy's own extension module, and where
    they are absent the pin does nothing.  The first open pin saves the
    caller's count and the last one to close restores it, so interleaved
    runs restore the count their first run found.
    """

    symbols = ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")

    def __init__(self):
        self.calls = None       # (get, set); () where absent
        self.depth = 0          # pins open
        self.saved = None       # the caller's count

    def _lookup(self) -> tuple:
        try:
            lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
            get, put = (getattr(lib, name) for name in self.symbols)
        except (AttributeError, OSError):
            return ()
        get.restype, get.argtypes = ctypes.c_int, []
        put.restype, put.argtypes = None, [ctypes.c_int]
        return get, put

    def __enter__(self):
        if self.calls is None:
            self.calls = self._lookup()
        if self.calls and self.depth == 0:
            self.saved = self.calls[0]()
            self.calls[1](1)
        self.depth += 1

    def __exit__(self, *exc) -> bool:
        self.depth -= 1
        if self.calls and self.depth == 0:
            self.calls[1](self.saved)
        return False


_one_blas_thread = _OneBlasThread()


def run_steps(params: ModelParams, ens: Ensemble, n_steps: int, dt: float, seed: int = 0,
              *, risk_neutral: bool = True) -> Iterator[StepRow]:
    """The one simulation loop: step `ens` in place n_steps times by dt hours
    and yield each step's StepRow after the step.  The run's StepPlan is
    built at the first step and carries nothing from one step to the next,
    so the caller may change ens between steps.

    A step runs, in order: under Q, the drift kill of the state and the
    path-0 residual; then the draws of the step's increments into
    plan.draws, over the spent pivots; then step_ensemble.  From the first
    step until the run ends, raises or is closed, numpy's bundled OpenBLAS
    runs on one thread (_OneBlasThread), and the caller's count comes back.

    Paths that breach the grid, turn non-finite or meet a singular drift kill
    are frozen and counted by cause.  If all abort, SingularSystemError (all
    of this run's paths singular) or SimulationError is raised, with this
    run's counts.
    """
    n_paths = ens.pi.size
    cfg = sheet.SheetConfig(factor_count=params.factor_count, delta_p=params.delta_p, seed=seed)
    noiseless = not (np.any(params.sigma_q_rel > 0) or params.sigma_edge_rel > 0)
    kill = risk_neutral and not noiseless   # no noise: measure change is a no-op
    plan = StepPlan(params, dt, n_paths, kill=kill)
    translation = 0.0 if risk_neutral else params.drift_c * dt
    singular = np.zeros(n_paths, dtype=bool)
    gen = sheet.generator()         # re-keyed for every draw
    rows = []                       # this run's, for the all-aborted verdict

    with _one_blas_thread:
        for step in range(n_steps):
            shift, residual = None, math.nan
            if kill:
                shift, rhs, singular = _batch_kill_shifts(ens, params, plan)
                ens.alive &= ~singular
                if ens.alive[0]:
                    residual = _path0_rel_residual(ens, params, plan, shift, rhs)
            # the pivots in S are spent: draw into it
            inc = sheet.increments_block(cfg, dt, step, n_paths, gen, out=plan.draws)
            top, bottom, broken = step_ensemble(ens, params, inc, plan, kill=shift,
                                                translation=translation)
            row = StepRow(int(np.count_nonzero(ens.alive)), int(np.count_nonzero(top)),
                          int(np.count_nonzero(bottom)), int(np.count_nonzero(broken)),
                          int(np.count_nonzero(singular)), residual)
            rows.append(row)
            if not row.alive:
                run = SimDiagnostics(rows)
                error = SingularSystemError if run.n_aborted_singular == n_paths \
                    else SimulationError
                raise error(f"all {n_paths} simulated paths aborted (top {run.n_aborted_top}, "
                            f"bottom {run.n_aborted_bottom}, broken {run.n_aborted_broken}, "
                            f"singular {run.n_aborted_singular})")
            yield row


def simulate_ensemble(params: ModelParams, n_paths: int, horizon_hours: float,
                      dt_hours: float, seed: int = 0, *,
                      risk_neutral: bool = True) -> tuple[Ensemble, SimDiagnostics, None]:
    """Run n_paths through run_steps in ceil(horizon/dt) equal steps; an aborted
    path keeps its π from before the abort.  The None in the returned
    (ens, diag, None) is kept for callers that unpack three values."""
    ens = init_ensemble(params, n_paths)   # reports a bad path count, ahead of a bad horizon
    if not (0 < horizon_hours < math.inf and 0 < dt_hours < math.inf):
        raise ValueError(f"horizon and dt must be positive and finite, got "
                         f"horizon_hours={horizon_hours}, dt_hours={dt_hours}")
    n_steps = max(1, int(math.ceil(horizon_hours / dt_hours - 1e-12)))
    steps = run_steps(params, ens, n_steps, horizon_hours / n_steps, seed,
                      risk_neutral=risk_neutral)
    return ens, SimDiagnostics(list(steps)), None
