"""Clearing-price volatility, market price of risk, and risk-neutral stepping.

The clearing price moves because the whole curve moves.  Writing the curve
value at the node below bucket i as N(i-1) (noise loading vector V_i over the
2K factors) and the bucket-i mass as q̃(i), the zero-crossing offset inside
bucket i is z = Δp·N(i-1)/q̃(i) + const, so Itô's formula on that ratio gives
the exact drift and loadings of π for the piecewise-linear curve.  Killing
the drift for every possible clearing bucket i yields a square linear system
in the per-factor market prices of risk λ_j:

    Σ(i,j) λ_j = b(i),   Σ(i,j) = [-V_i(j) + w_i·q̃(i)σ(i)B(i,j)]·Δp

where w_i is the zero position each row assumes inside its bucket (see
_row_anchors: mid-bucket for the live clearing row, bucket edge for the
hypothetical ones).  The right side collects the physical drift of the
curve value, the w_i share of the clearing bucket's own drift, and the
covariance between the clearing-bucket mass and the price: see
_kill_matrix and _kill_rhs, the one assembly of Σ and b.  b is assembled in
difference form, as its first row b(0) and the row differences
db(i) = b(i+1) - b(i): the closed-form kill reads only these, and the full
b of one path (the dense system, the path-0 residual) is their cumulative
sum.  Under the changed
measure each factor increment picks up -λ_j√Δp·dt, which is how
step_risk_neutral applies the solution.

The quoted volatility identity sigma_pi = ||V||·Δp/q̃(clearing bucket) uses
the curve-value loadings alone (price_vol); the live row of the linear
system additionally carries the clearing bucket's own half-weighted noise,
a sub-percent distinction kept so that doubling the clearing mass halves
sigma_pi exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple

import numpy as np

from . import sheet
from .demand import (DemandState, Ensemble, SimDiagnostics, _batch_clear, _step_state,
                     init_ensemble, ou_step_factors, step_ensemble)
from .errors import SimulationError, SingularSystemError
from .params import ModelParams

COND_LIMIT = 1e12


def kill_vectors(state: DemandState, params: ModelParams) -> np.ndarray:
    """Rows i = -K+1..K: factor loadings V_i of the curve value entering bucket i."""
    per_bucket = (state.quantities() * params.sigma_q_rel)[:, None] * params.loadings
    below = np.vstack([np.zeros(params.factor_count), np.cumsum(per_bucket[:-1], axis=0)])
    return state.edge() * params.sigma_edge_rel * params.edge_loadings[None, :] - below


@dataclass(frozen=True)
class PriceVol:
    sigma_pi: float     # currency per sqrt(hour)
    b_pi: np.ndarray    # factor loadings, sum_j b^2 Δp = 1


def price_vol(state: DemandState, params: ModelParams) -> PriceVol:
    """Volatility of π in the clearing bucket 0, via loading normalization.

    The unnormalized loading vector of dπ is -V·Δp/q̃(0); its Δp-norm is
    sigma_pi and the normalized remainder is b_pi.
    """
    i = params.idx(0)
    q_i = float(np.exp(state.log_q[i]))
    u = -kill_vectors(state, params)[i] * state.delta_p / q_i
    sigma = float(np.sqrt((u**2).sum() * state.delta_p))
    if sigma == 0.0:
        return PriceVol(0.0, np.zeros_like(u))
    return PriceVol(sigma, u / sigma)


def sigma_pi_direct(state: DemandState, params: ModelParams) -> float:
    """Same volatility evaluated directly: ||V||·Δp / q̃(0)."""
    i = params.idx(0)
    v = kill_vectors(state, params)[i]
    q_i = float(np.exp(state.log_q[i]))
    return float(np.sqrt((v**2).sum() * state.delta_p) * state.delta_p / q_i)


# ----------------------------------------------------------------------
# the market-price-of-risk system

@dataclass
class MprSystem:
    Sigma: np.ndarray
    b: np.ndarray
    lam: np.ndarray | None = None
    residual_norm: float | None = None
    cond: float | None = None


def _row_anchors(params: ModelParams) -> np.ndarray:
    """Fractional zero position w_i assumed by each drift-kill row.

    The clearing bucket's row sits mid-bucket (w = 1/2), where re-centering
    actually leaves the zero, so the realized price drift is killed exactly.
    Hypothetical rows for the other buckets anchor at the bucket edge
    (w = 0); that choice decouples the row differences — each λ_j is pinned
    by its own bucket's drift instead of an alternating neighbour recursion
    that amplifies through thinly populated buckets.
    """
    w = np.zeros(2 * params.K)
    w[params.idx(0)] = 0.5
    return w


def _kill_matrix(state: DemandState, params: ModelParams) -> np.ndarray:
    """Left side Σ of the drift-kill system, one row per potential clearing bucket."""
    own = (_row_anchors(params) * state.quantities() * params.sigma_q_rel)[:, None] \
        * params.loadings
    return (-kill_vectors(state, params) + own) * state.delta_p


class _RhsTerms(NamedTuple):
    """Per-run constants of the drift-kill right sides."""

    below_gram: np.ndarray  # (2K, 2K) tril(L·Lᵀ, -1): row i sums buckets l < i
    edge_cross: np.ndarray  # (2K,) L·B_E
    sigma_dp: np.ndarray    # (2K, 1) σ_q·Δp
    w: np.ndarray           # (2K,) row anchors, non-zero only on the clearing row
    i0: int                 # the clearing row


def _rhs_terms(params: ModelParams) -> _RhsTerms:
    return _RhsTerms(np.tril(params.loadings @ params.loadings.T, k=-1),
                     params.loadings @ params.edge_loadings,
                     params.sigma_q_rel[:, None] * params.delta_p,
                     _row_anchors(params), params.idx(0))


def _kill_rhs(ens: Ensemble, params: ModelParams, terms: _RhsTerms
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Right sides of the drift-kill system in difference form, one column per
    path: the (2K-1, n) row differences db(i) = b(i+1) - b(i) and the (n,)
    first row b(0), with the q̃σ (2K, n) and edge σ (n,) products they were
    built from.

    With μ the physical drifts of the masses and the edge, the right side is
    b(i) = Σ_{l<i} μ_q(l) - μ_e + w_i·(μ_q(i) - q̃σ²(i)) + cross(i), so
    db(i) = μ_q(i) + cross(i+1) - cross(i) away from the clearing row i0,
    whose anchored share enters db(i0-1) and db(i0) (b(0) when i0 = 0).
    """
    sigma = params.sigma_q_rel[:, None]
    q = np.exp(ens.log_q)
    edge = np.exp(ens.log_edge)
    qs = q * sigma
    es = edge * params.sigma_edge_rel
    cross = np.multiply.outer(terms.edge_cross, es)
    cross -= terms.below_gram @ qs
    cross *= terms.sigma_dp
    mu_q = ens.log_q - params.mean_logq[:, None]
    mu_q *= -params.a_q[:, None]
    mu_q += 0.5 * sigma**2
    mu_q *= q
    mu_e = edge * (-params.a_edge * (ens.log_edge - params.mean_log_edge)
                   + 0.5 * params.sigma_edge_rel**2)
    i0 = terms.i0
    own = (mu_q[i0] - q[i0] * sigma[i0]**2) * terms.w[i0]
    db = mu_q[:-1]                                  # in place
    db += cross[1:]
    db -= cross[:-1]
    b0 = cross[0] - mu_e
    if i0 >= 1:
        db[i0 - 1] += own
    else:
        b0 += own
    db[i0] -= own                                   # i0 = K-1 < 2K-1 rows of db
    return db, b0, qs, es


def _column_rhs(db: np.ndarray, b0: np.ndarray, col: int) -> np.ndarray:
    """Full right side b of path `col`: b(0), then b(i+1) = b(i) + db(i)."""
    return np.cumsum(np.concatenate(([b0[col]], db[:, col])))


def build_mpr_system(state: DemandState, params: ModelParams) -> MprSystem:
    """Assemble the drift-kill equations, one row per potential clearing bucket."""
    db, b0, _, _ = _kill_rhs(Ensemble.of(state), params, _rhs_terms(params))
    return MprSystem(Sigma=_kill_matrix(state, params), b=_column_rhs(db, b0, 0))


def solve_mpr(system: MprSystem) -> MprSystem:
    """Solve for λ by dense factorization; record residual and condition number."""
    try:
        cond = float(np.linalg.cond(system.Sigma))
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise SingularSystemError(
                f"market-price-of-risk system condition number {cond:.3e} exceeds {COND_LIMIT:.0e}")
        lam = np.linalg.solve(system.Sigma, system.b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"market-price-of-risk system is singular: {exc}") from exc
    residual = float(np.linalg.norm(system.Sigma @ lam - system.b))
    return replace(system, lam=lam, residual_norm=residual, cond=cond)


def step_risk_neutral(state: DemandState, params: ModelParams, lam: np.ndarray,
                      inc: np.ndarray, dt: float) -> DemandState:
    """One step under the changed measure: dW_j -> dW_j - λ_j√Δp·dt, then re-clear.

    The physical-measure price translation params.drift_c does not apply here;
    it is a diagnostic of the observed price series, not part of the
    martingale dynamics.
    """
    shifted = inc - lam * math.sqrt(params.delta_p) * dt
    return _step_state(state, params, shifted, dt, 0.0)


# ----------------------------------------------------------------------
# the closed-form drift kill over a path ensemble (demand.step_ensemble
# applies it; the dense solve_mpr above is its test oracle)

class _KillTransform:
    """Per-run constants for the closed-form drift-kill solution.

    Row-differencing the square system leaves a bidiagonal relation in the
    rotated unknowns y_i = B(i,:)·λ and e = B_E·λ, so each path's Girsanov
    shifts (which only involve y and e, never λ itself) come out in O(K)
    arithmetic per bucket instead of a dense solve.  λ is recovered on
    demand as A⁻¹·(e, y_0..y_{2K-2}) with A = [B_E; B rows 0..2K-2].
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
        self.rhs = _rhs_terms(params)


def _batch_kill_shifts(ens: Ensemble, params: ModelParams, kt: _KillTransform
                       ) -> tuple[np.ndarray, np.ndarray, tuple, np.ndarray]:
    """Rotated drift-kill solution y (2K, n) and e (n,) for every path, the
    right sides (db, b0) of _kill_rhs, and the live paths whose kill is
    singular: a pivot q̃σ (buckets below the top, and the edge) under
    1/COND_LIMIT of the path's largest q̃σ, or a non-finite y or e.  Singular
    shifts are zeroed.
    """
    dp = ens.delta_p
    i0 = kt.rhs.i0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        db, b0, qs, es = _kill_rhs(ens, params, kt.rhs)
        y = np.multiply(qs, dp)                     # the pivots, divided into db in place
        np.divide(db, y[:-1], out=y[:-1])
        y[i0] *= 2.0                                # the clearing row's anchor w = 1/2
        if i0 >= 1:
            y[i0 - 1] = (db[i0 - 1] / dp - 0.5 * qs[i0] * y[i0]) / qs[i0 - 1]
        e = (kt.rhs.w[0] * qs[0] * y[0] * dp - b0) / (es * dp)
        np.matmul(kt.g[1:], y[:-1], out=y[-1])      # y_last = g·(e, y_0..y_{2K-2})
        y[-1] += kt.g[0] * e
        pivot = np.minimum(qs[:-1].min(axis=0), es)
        sound = (pivot >= qs.max(axis=0) / COND_LIMIT) \
            & np.isfinite(y).all(axis=0) & np.isfinite(e)
    np.copyto(y, 0.0, where=~sound)
    e[~sound] = 0.0
    return y, e, (db, b0), ens.alive & ~sound


def _path0_rel_residual(ens: Ensemble, params: ModelParams, kt: _KillTransform,
                        y, e, rhs) -> float:
    """Residual of the full system on path 0, as a solve-quality telltale."""
    lam0 = np.linalg.solve(kt.A, np.concatenate(([e[0]], y[:-1, 0])))
    b = _column_rhs(*rhs, 0)
    bnorm = float(np.linalg.norm(b))
    residual = _kill_matrix(ens.path(0), params) @ lam0 - b
    return float(np.linalg.norm(residual)) / (bnorm if bnorm > 0 else 1.0)


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

    for step in range(n_steps):
        inc = sheet.increments_block(cfg, dt, step, n_paths)
        shifts, residual = None, math.nan
        if kill:
            y, e, rhs, singular = _batch_kill_shifts(ens, params, kt)
            ens.alive &= ~singular
            if ens.alive[0]:
                residual = _path0_rel_residual(ens, params, kt, y, e, rhs)
            shifts = (y, e)
        cleared = step_ensemble(ens, params, inc, dt, factors, kill=shifts,
                                translation=translation, clear_paths=_batch_clear)
        diag.count(cleared, singular, ens.alive, residual)
        if not ens.alive.any():
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
    if horizon_hours <= 0 or dt_hours <= 0:
        raise ValueError("horizon and dt must be positive")
    n_steps = max(1, int(math.ceil(horizon_hours / dt_hours - 1e-12)))
    ens, diag = init_ensemble(params, n_paths), SimDiagnostics()
    for _ in run_steps(params, ens, diag, n_steps, horizon_hours / n_steps, seed,
                       risk_neutral=risk_neutral):
        pass
    return ens, diag, None
