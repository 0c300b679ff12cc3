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
_kill_matrix and _kill_rhs, the one assembly of Σ and b.  b is assembled in
difference form, b(0) over the row differences db(i) = b(i+1) - b(i); the
closed-form kill solves that into one shift per row of the log state, edge
first, and the full b (dense systems, path-0 residual) is its cumulative
sum.  Under the changed measure each factor increment picks up -λ_j√Δp·dt,
which is how step_risk_neutral applies the dense solution.

Every function here answers per book, for the columns of a demand.Ensemble;
a single book is an ensemble of one.

Dynamics: each log mass follows an Ornstein-Uhlenbeck process driven by the
factor noise of the sheet module.  After every step the curve is re-cleared
by one rule: the zero crossing is interpolated, π moves there, and the edge
is re-anchored so the zero sits mid-bucket 0 at the new π.  The masses keep
their labels, so the curve relative to π moves with π, as Itô-Wentzell
carries it; keeping the profile intact preserves the stationary book shape
that the volatility of π is built from.
step_ensemble is the only step and run_steps the only loop over steps.

The quoted volatility identity sigma_pi = ||V||·Δp/q̃(clearing bucket) uses
the curve-value loadings alone (price_vol); the live row of the linear
system additionally carries the clearing bucket's own half-weighted noise,
a sub-percent distinction kept so that doubling the clearing mass halves
sigma_pi exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple

import numpy as np

from . import sheet
from .demand import Cleared, Ensemble, _batch_clear, _running_sum, init_ensemble
from .errors import SimulationError, SingularSystemError
from .params import ModelParams

COND_LIMIT = 1e12

# The fractional zero position w that the clearing bucket's drift-kill row
# assumes: mid-bucket, where re-centering actually leaves the zero, so the
# realized price drift is killed exactly.  Hypothetical rows for the other
# buckets anchor at the bucket edge (w = 0); that choice decouples the row
# differences — each λ_j is pinned by its own bucket's drift instead of an
# alternating neighbour recursion that amplifies through thinly populated
# buckets.
_CLEARING_ANCHOR = 0.5


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
    carries its bucket's own anchored noise."""
    i0 = params.idx(0)
    rows = -kill_vectors(ens, params)
    rows[i0] += _CLEARING_ANCHOR * np.exp(ens.log_q[i0]) * params.sigma_q_rel[i0] \
        * params.loadings[i0][:, None]
    return np.moveaxis(rows * ens.delta_p, -1, 0)


def _state_rows(edge, buckets) -> np.ndarray:
    """An edge value and the (2K,) bucket values as one (2K+1, 1) column, in
    the row order of Ensemble.log_state."""
    return np.concatenate(([edge], buckets))[:, None]


def _kill_rhs(ens: Ensemble, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Right sides of the drift-kill systems, (2K, n), and the noise scales
    s = xσ, (2K+1, n) in the state's row order, that they were built from.

    With μ the physical drifts of the masses and the edge, the right side is
    b(i) = Σ_{l<i} μ_q(l) - μ_e + w_i·(μ_q(i) - q̃σ²(i)) + cross(i).  Row 0
    holds b(0), row i+1 db(i) = b(i+1) - b(i) = μ_q(i) + cross(i+1) -
    cross(i), and the clearing row i0's anchored share enters rows i0, i0+1.
    """
    x = np.exp(ens.log_state)
    sigma = _state_rows(params.sigma_edge_rel, params.sigma_q_rel)
    s = x * sigma
    cross = np.multiply.outer(params.loadings @ params.edge_loadings, s[0])  # L·B_E
    cross -= np.tril(params.loadings @ params.loadings.T, k=-1) @ s[1:]  # row i: buckets l < i
    cross *= sigma[1:] * params.delta_p
    mu = ens.log_state - _state_rows(params.mean_log_edge, params.mean_logq)
    mu *= -_state_rows(params.a_edge, params.a_q)
    mu += 0.5 * _state_rows(params.sigma_edge_rel**2, params.sigma_q_rel**2)
    mu *= x
    i0 = params.idx(0)
    own = (mu[i0 + 1] - x[i0 + 1] * sigma[i0 + 1]**2) * _CLEARING_ANCHOR
    rhs = mu[:-1]                                   # in place
    np.negative(rhs[0], out=rhs[0])                 # the edge enters with a minus sign
    rhs += cross
    rhs[1:] -= cross[:-1]
    rhs[i0] += own
    rhs[i0 + 1] -= own
    return rhs, s


def build_mpr_system(ens: Ensemble, params: ModelParams) -> MprSystem:
    """Assemble each book's drift-kill equations, one row per potential
    clearing bucket: Σ is (n, 2K, F) and b is (n, 2K)."""
    rhs, _ = _kill_rhs(ens, params)
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

    The physical-measure price translation params.drift_c does not apply here;
    it is a diagnostic of the observed price series, not part of the
    martingale dynamics.
    """
    shifted = inc - lam * math.sqrt(params.delta_p) * dt
    return step_ensemble(ens, params, shifted, dt, ou_step_factors(params, dt))


# ----------------------------------------------------------------------
# the closed-form drift kill over a path ensemble (step_ensemble applies
# it; the dense solve_mpr above is its test oracle)

class _KillTransform:
    """Per-run constants for the closed-form drift-kill solution.

    Row-differencing the square system leaves a bidiagonal relation in the
    rotated unknowns e = B_E·λ and y_i = B(i,:)·λ, so each path's Girsanov
    shifts (which only involve e and y, never λ itself) come out in O(K)
    arithmetic per bucket instead of a dense solve.  λ is recovered on
    demand as A⁻¹·shift[:-1] with A = [B_E; B rows 0..2K-2].
    """

    def __init__(self, params: ModelParams):
        if np.any(params.sigma_q_rel <= 0) or params.sigma_edge_rel <= 0:
            raise SingularSystemError(
                "every bucket and the edge need positive volatility for a "
                "unique market price of risk")
        self.A = np.vstack([params.edge_loadings, params.loadings[:-1]])
        try:
            self.g = np.linalg.solve(self.A.T, params.loadings[-1])
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                f"factor loadings do not identify the market prices of risk: {exc}") from exc


def _batch_kill_shifts(ens: Ensemble, params: ModelParams, kt: _KillTransform
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drift-kill shifts of every path, (2K+1, n) in the state's row order
    (e = B_E·λ, then y = B·λ), the right sides of _kill_rhs, and the live
    paths whose kill is singular: a pivot q̃σ (the edge, the buckets below
    the top) under 1/COND_LIMIT of the path's largest bucket q̃σ, or a
    non-finite shift.  Singular shifts are zeroed."""
    dp = ens.delta_p
    i0 = params.idx(0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rhs, s = _kill_rhs(ens, params)
        shift = np.multiply(s, dp)                  # the pivots, divided into rhs in place
        np.divide(rhs, shift[:-1], out=shift[:-1])
        shift[i0 + 1] /= _CLEARING_ANCHOR
        shift[i0] = (rhs[i0] / dp - _CLEARING_ANCHOR * s[i0 + 1] * shift[i0 + 1]) / s[i0]
        shift[0] *= -1.0                            # the edge enters with a minus sign
        np.matmul(kt.g[1:], shift[1:-1], out=shift[-1])     # y_last = g·shift[:-1]
        shift[-1] += kt.g[0] * shift[0]
        sound = (s[:-1].min(axis=0) >= s[1:].max(axis=0) / COND_LIMIT) \
            & np.isfinite(shift).all(axis=0)
    np.copyto(shift, 0.0, where=~sound)
    return shift, rhs, ens.alive & ~sound


def _path0_rel_residual(ens: Ensemble, params: ModelParams, kt: _KillTransform,
                        shift: np.ndarray, rhs: np.ndarray) -> float:
    """Residual of the full system on path 0, as a solve-quality telltale;
    Σ is built for path 0 alone."""
    lam0 = np.linalg.solve(kt.A, shift[:-1, 0])
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

    rows: list[StepRow] = field(default_factory=list)

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

    def count(self, cleared: Cleared, singular: np.ndarray, alive: np.ndarray,
              residual: float) -> None:
        """Append one step's row."""
        top, bottom, broken = cleared
        self.rows.append(StepRow(int(np.count_nonzero(alive)), int(np.count_nonzero(top)),
                                 int(np.count_nonzero(bottom)), int(np.count_nonzero(broken)),
                                 int(np.count_nonzero(singular)), residual))


def _ou_factors(a, sigma, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact-step decay e^{-a dt} and noise scale sqrt(var of the OU increment)."""
    a = np.asarray(a, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    decay = np.exp(-a * dt)
    var_scale = np.where(a > 0, -np.expm1(-2 * np.where(a > 0, a, 1.0) * dt) / (2 * a + (a <= 0)),
                         dt)
    return decay, sigma * np.sqrt(var_scale)


def ou_step_factors(params: ModelParams, dt: float) -> tuple:
    """The per-run constants of step_ensemble over dt, edge row first as in
    Ensemble.log_state: the (2K+1, F) stacked projection, then the long-run
    means, the decays e^{-a dt} and the noise scales of the exact OU step as
    (2K+1, 1) columns."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    decay, vol = _ou_factors(_state_rows(params.a_edge, params.a_q),
                             _state_rows(params.sigma_edge_rel, params.sigma_q_rel), dt)
    return (np.vstack([params.edge_loadings, params.loadings]),
            _state_rows(params.mean_log_edge, params.mean_logq), decay, vol)


def step_ensemble(ens: Ensemble, params: ModelParams, inc: np.ndarray, dt: float,
                  factors: tuple, *, kill=None, translation: float = 0.0) -> Cleared:
    """Advance every live path one step and re-clear it (in place).

    The (n, F) factor increments `inc`, projected on the loadings and scaled
    to unit variance, drive the exact OU update of the log edge and masses;
    the rotated drift-kill solutions `kill`, one (2K+1, n) array in the
    state's row order, shift those drivers by -kill·Δp·√dt.  Live prices
    then move by `translation`.
    `factors` is ou_step_factors(params, dt), computed once per run.
    """
    projection, mean, decay, vol = factors
    root_dt = math.sqrt(dt)
    # one gemm, edge row first as in the log state: the same bits for any
    # group of two or more paths
    z = projection @ inc.T
    z *= math.sqrt(params.delta_p) / root_dt
    if kill is not None:
        z -= kill * (params.delta_p * root_dt)
    dead = None if np.count_nonzero(ens.alive) == ens.alive.size else np.flatnonzero(~ens.alive)
    if dead is not None:        # frozen paths keep their state through the update
        frozen = ens.log_state[:, dead]
    state = ens.log_state       # updated in place
    state -= mean
    state *= decay
    state += mean
    z *= vol
    state += z
    if dead is not None:
        state[:, dead] = frozen
    cleared = _batch_clear(ens, params)
    if translation:
        np.add(ens.pi, translation, out=ens.pi, where=ens.alive)
    return cleared


def run_steps(params: ModelParams, ens: Ensemble, diag: SimDiagnostics, n_steps: int,
              dt: float, seed: int = 0, *, risk_neutral: bool = True) -> Iterator[None]:
    """The one simulation loop: step `ens` in place n_steps times by dt hours,
    append each step's row to `diag`, and yield after each step.

    Paths that breach the grid, turn non-finite or meet a singular drift kill
    are frozen and counted by cause.  If all abort, SingularSystemError (all
    singular) or SimulationError is raised.
    """
    n_paths = ens.pi.size
    cfg = sheet.SheetConfig(factor_count=params.factor_count, delta_p=params.delta_p, seed=seed)
    noiseless = not (np.any(params.sigma_q_rel > 0) or params.sigma_edge_rel > 0)
    kill = risk_neutral and not noiseless   # no noise: measure change is a no-op
    kt = _KillTransform(params) if kill else None
    translation = 0.0 if risk_neutral else params.drift_c * dt
    factors = ou_step_factors(params, dt)
    singular = np.zeros(n_paths, dtype=bool)
    gen = sheet.generator()         # re-keyed for every draw

    for step in range(n_steps):
        inc = sheet.increments_block(cfg, dt, step, n_paths, gen)
        shift, residual = None, math.nan
        if kill:
            shift, rhs, singular = _batch_kill_shifts(ens, params, kt)
            ens.alive &= ~singular
            if ens.alive[0]:
                residual = _path0_rel_residual(ens, params, kt, shift, rhs)
        cleared = step_ensemble(ens, params, inc, dt, factors, kill=shift,
                                translation=translation)
        diag.count(cleared, singular, ens.alive, residual)
        if not diag.rows[-1].alive:
            error = SingularSystemError if diag.n_aborted_singular == n_paths else SimulationError
            raise error(f"all {n_paths} simulated paths aborted (top {diag.n_aborted_top}, "
                        f"bottom {diag.n_aborted_bottom}, broken {diag.n_aborted_broken}, "
                        f"singular {diag.n_aborted_singular})")
        yield


def simulate_ensemble(params: ModelParams, n_paths: int, horizon_hours: float,
                      dt_hours: float, seed: int = 0, *,
                      risk_neutral: bool = True) -> tuple[Ensemble, SimDiagnostics, None]:
    """Run n_paths through run_steps in ceil(horizon/dt) equal steps; an aborted
    path keeps its π from before the abort.  The None in the returned
    (ens, diag, None) is kept for callers that unpack three values."""
    if not (0 < horizon_hours < math.inf and 0 < dt_hours < math.inf):
        raise ValueError(f"horizon and dt must be positive and finite, got "
                         f"horizon_hours={horizon_hours}, dt_hours={dt_hours}")
    n_steps = max(1, int(math.ceil(horizon_hours / dt_hours - 1e-12)))
    ens, diag = init_ensemble(params, n_paths), SimDiagnostics()
    for _ in run_steps(params, ens, diag, n_steps, horizon_hours / n_steps, seed,
                       risk_neutral=risk_neutral):
        pass
    return ens, diag, None
