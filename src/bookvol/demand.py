"""Relative net-demand curve: state, dynamics, clearing, and the inverse process.

The resting book is summarized by bucket masses q̃(k,t) on a grid of relative
price offsets around the clearing price π(t).  Bucket k covers offsets
((k-1/2)Δp, (k+1/2)Δp], so bucket 0 straddles the clearing price itself.  The
cumulative net demand is anchored below the grid by the edge value
Q̃(-K,t) and decreases through the buckets:

    Q̃(k,t) = Q̃(-K,t) - sum_{l=-K+1..k} q̃(l,t)

Between the node offsets (k+1/2)Δp the curve is linear (the bucket mass is
spread uniformly), which makes the zero crossing, the inverse process and the
liquidation integral all exact piecewise-linear computations.

Dynamics: each log mass follows an Ornstein-Uhlenbeck process driven by the
factor noise of the sheet module.  After every step the curve is re-cleared:
the zero crossing is interpolated, π moves there, labels rotate by the whole
number of buckets the crossing moved, and the edge is re-anchored so the
re-labelled curve is exactly consistent (its zero sits at the new π).  The
masses themselves are never re-distributed; keeping the profile intact
preserves the stationary book shape that the volatility of π is built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    BoundaryBreachError,
    GridError,
    SimulationError,
    UndefinedInverseError,
)
from .params import ModelParams


@dataclass
class DemandState:
    """Book state: log masses, log edge anchor, clearing price."""

    delta_p: float
    log_edge: float
    log_q: np.ndarray          # (2K,), k = -K+1 .. K
    pi: float

    @property
    def K(self) -> int:
        return len(self.log_q) // 2

    def quantities(self) -> np.ndarray:
        return np.exp(self.log_q)

    def edge(self) -> float:
        return float(math.exp(self.log_edge))


def init_state(params: ModelParams) -> DemandState:
    params.validate()
    return DemandState(
        delta_p=params.delta_p,
        log_edge=float(np.log(params.edge0)),
        log_q=np.log(params.q0),
        pi=params.pi0,
    )


def node_offsets(state: DemandState) -> np.ndarray:
    """Offsets (m + 1/2)Δp, m = -K..K, where the cumulative curve has nodes."""
    K = state.K
    return (np.arange(-K, K + 1) + 0.5) * state.delta_p


def node_values(state: DemandState) -> np.ndarray:
    """Cumulative net demand at the node offsets; first entry is the edge."""
    q = state.quantities()
    return state.edge() - np.concatenate(([0.0], np.cumsum(q)))


def curve_value(state: DemandState, price: float) -> float:
    """Net demand at an absolute price, linear between nodes."""
    offs = node_offsets(state)
    s = price - state.pi
    if not offs[0] <= s <= offs[-1]:
        raise GridError(f"price {price} outside the bucket grid around pi={state.pi}")
    return float(np.interp(s, offs, node_values(state)))


# ----------------------------------------------------------------------
# path ensembles and the one stepping core
#
# Per-path state is stored as flat arrays so that the OU update and the
# clearing search run batched over paths.  step_ensemble is the only step;
# a single DemandState is stepped as an ensemble of one (clear,
# step_physical and riskneutral.step_risk_neutral wrap it).

@dataclass
class Ensemble:
    """n paths of the book, stored bucket-major.

    Row k of the (2K, n) log masses holds bucket k of every path, so each
    per-step numpy loop runs along the long path axis, and per-bucket
    parameters broadcast as (2K, 1) columns.  Path i is column i.
    """

    delta_p: float
    log_edge: np.ndarray    # (n,)
    log_q: np.ndarray       # (2K, n)
    pi: np.ndarray          # (n,)
    alive: np.ndarray       # (n,) bool

    @classmethod
    def of(cls, state: DemandState, n_paths: int = 1) -> Ensemble:
        """Ensemble of n_paths copies of `state`."""
        return cls(delta_p=state.delta_p, log_edge=np.full(n_paths, state.log_edge, dtype=float),
                   log_q=np.tile(np.asarray(state.log_q, dtype=float)[:, None], (1, n_paths)),
                   pi=np.full(n_paths, state.pi, dtype=float),
                   alive=np.ones(n_paths, dtype=bool))

    def path(self, i: int = 0) -> DemandState:
        """Path i as a DemandState; its log masses are a view into the ensemble."""
        return DemandState(delta_p=self.delta_p, log_edge=float(self.log_edge[i]),
                           log_q=self.log_q[:, i], pi=float(self.pi[i]))


class Cleared(NamedTuple):
    """Per-path outcome of one clearing pass; aborted paths are marked dead."""

    top: np.ndarray         # net demand non-negative at the top of the grid
    bottom: np.ndarray      # net demand non-positive at the bottom of the grid
    broken: np.ndarray      # non-finite curve values
    relabeled: np.ndarray   # grid labels rotated

    def raise_if_aborted(self) -> None:
        """Raise path 0's clearing failure, if any: the single-state contract."""
        if self.broken[0]:
            raise SimulationError("non-finite log quantities in state")
        if self.bottom[0]:
            raise BoundaryBreachError("bottom", "net demand non-positive at the bottom of the grid")
        if self.top[0]:
            raise BoundaryBreachError("top", "net demand non-negative at the top of the grid")


class StepRow(NamedTuple):
    """One simulation step: paths alive after it, relabels, aborts by cause."""

    alive: int
    relabels: int
    top: int
    bottom: int
    broken: int             # non-finite curve
    singular: int
    residual: float         # path-0 drift-kill relative residual; nan when not solved


@dataclass
class SimDiagnostics:
    """Per-step rows of a simulation; the run totals are sums over them."""

    rows: list[StepRow] = field(default_factory=list)

    n_steps = property(lambda self: len(self.rows))
    n_relabel = property(lambda self: sum(r.relabels for r in self.rows))
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
        self.rows.append(StepRow(int(alive.sum()), int(cleared.relabeled.sum()),
                                 int(cleared.top.sum()), int(cleared.bottom.sum()),
                                 int(cleared.broken.sum()), int(singular.sum()), residual))


def init_ensemble(params: ModelParams, n_paths: int) -> Ensemble:
    return Ensemble.of(init_state(params), n_paths)


def _running_sum(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Cumulative sums down the rows of x, into `out` when given.

    The additions and their order are those of np.cumsum(x, axis=0), which
    is several times slower on a few long rows than this loop over them.
    """
    if out is None:
        out = np.empty_like(x)
    out[0] = x[0]
    for i in range(1, len(x)):
        np.add(out[i - 1], x[i], out=out[i])
    return out


def _batch_clear(ens: Ensemble, params: ModelParams) -> Cleared:
    """Vectorized zero-crossing, relabeling, and edge re-anchoring (in place).

    Live paths whose curve is non-finite or does not cross zero inside the
    grid are marked dead and reported instead of cleared.
    """
    twoK, n = ens.log_q.shape
    K = twoK // 2
    dp = ens.delta_p
    # (2K+1, n) node values, the edge first; overflow to inf is a legitimate
    # outcome here: such paths fail the finiteness screen below and are
    # reported as broken, not crashed
    vals = np.empty((twoK + 1, n))
    with np.errstate(over="ignore"):
        q = np.exp(ens.log_q)
        vals[0] = np.exp(ens.log_edge)
        np.subtract(vals[0], _running_sum(q, out=vals[1:]), out=vals[1:])
    offs = (np.arange(-K, K + 1) + 0.5) * dp

    finite = np.isfinite(vals).all(axis=0)
    top = ens.alive & finite & (vals[-1] >= 0.0)
    bottom = ens.alive & finite & (vals[0] <= 0.0)
    broken = ens.alive & ~finite
    ens.alive &= finite & ~(top | bottom)
    if broken.any():        # placeholder state so later vector math stays finite
        ens.log_q[:, broken] = params.mean_logq[:, None]
        ens.log_edge[broken] = params.mean_log_edge
        vals[:, broken] = 1.0
    live = ens.alive
    if not live.any():
        return Cleared(top, bottom, broken, np.zeros(n, dtype=bool))

    # a live curve falls from positive at the edge to negative at the top, so
    # its first negative node is 1 + the count of non-negative ones between
    j = 1 + np.count_nonzero(vals[1:-1] >= 0.0, axis=0)
    paths = np.arange(n)
    v_hi = vals[j - 1, paths]
    v_lo = vals[j, paths]
    denom = np.where(live, v_hi - v_lo, 1.0)
    z = np.where(live, offs[j - 1] + dp * v_hi / denom, 0.0)
    ens.pi = ens.pi + z

    # labels rotate by the whole buckets the crossing moved; fresh far
    # buckets start at their long-run mean mass
    kstar = np.floor(z / dp + 0.5).astype(int)
    moved = live & (kstar != 0)
    if moved.any():
        idx = np.flatnonzero(moved)
        src = np.arange(twoK)[:, None] + kstar[idx]
        inside = (src >= 0) & (src < twoK)
        block = np.take_along_axis(ens.log_q[:, idx], np.clip(src, 0, twoK - 1), axis=0)
        ens.log_q[:, idx] = np.where(inside, block, params.mean_logq[:, None])
        q[:, idx] = np.exp(ens.log_q[:, idx])
    # live edges re-anchor so the zero sits mid-bucket 0; dead paths stay frozen
    edge = q[: K - 1].sum(axis=0) + 0.5 * q[K - 1]
    np.copyto(ens.log_edge, np.log(edge), where=live)
    return Cleared(top, bottom, broken, moved)


def _ou_factors(a, sigma, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact-step decay e^{-a dt} and noise scale sqrt(var of the OU increment)."""
    a = np.asarray(a, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    decay = np.exp(-a * dt)
    var_scale = np.where(a > 0, -np.expm1(-2 * np.where(a > 0, a, 1.0) * dt) / (2 * a + (a <= 0)),
                         dt)
    return decay, sigma * np.sqrt(var_scale)


def ou_step_factors(params: ModelParams, dt: float) -> tuple:
    """(decay_q, vol_q, decay_e, vol_e) of the exact OU step over dt."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return (*_ou_factors(params.a_q, params.sigma_q_rel, dt),
            *_ou_factors(params.a_edge, params.sigma_edge_rel, dt))


def step_ensemble(ens: Ensemble, params: ModelParams, inc: np.ndarray, dt: float,
                  factors: tuple, *, kill=None, translation: float = 0.0,
                  clear_paths=_batch_clear) -> Cleared:
    """Advance every live path one step and re-clear it (in place).

    The (n, F) factor increments `inc`, projected on the loadings and scaled
    to unit variance, drive the exact OU update of the log masses and edge;
    the rotated drift-kill solutions `kill` = (y, e), of shapes (2K, n) and
    (n,), shift those drivers by -y·Δp·√dt and -e·Δp·√dt.  Live prices then
    move by `translation`.
    `factors` is ou_step_factors(params, dt), computed once per run; a caller
    passes `clear_paths` to resolve _batch_clear at call time, so that timing
    hooks installed on its own module see each pass.
    """
    decay_q, vol_q, decay_e, vol_e = factors
    root_dt = math.sqrt(dt)
    z_q = params.loadings @ inc.T
    z_q *= math.sqrt(params.delta_p) / root_dt
    z_e = (inc @ params.edge_loadings) * (math.sqrt(params.delta_p) / root_dt)
    if kill is not None:
        y, e = kill
        z_q -= y * (params.delta_p * root_dt)
        z_e -= e * (params.delta_p * root_dt)
    mean = params.mean_logq[:, None]
    new_log_q = ens.log_q - mean
    new_log_q *= decay_q[:, None]
    new_log_q += mean
    z_q *= vol_q[:, None]
    new_log_q += z_q
    new_log_edge = (params.mean_log_edge
                    + (ens.log_edge - params.mean_log_edge) * decay_e + vol_e * z_e)
    live = ens.alive
    np.copyto(ens.log_q, new_log_q, where=live)
    np.copyto(ens.log_edge, new_log_edge, where=live)
    cleared = clear_paths(ens, params)
    if translation:
        ens.pi[ens.alive] += translation
    return cleared


def clear(state: DemandState, params: ModelParams) -> tuple[float, DemandState]:
    """Re-locate the clearing price at the curve's zero and re-center the grid.

    Returns (new clearing price, new state).  The crossing offset z is linear
    interpolation inside the bucket where the cumulative curve changes sign;
    labels rotate by round(z/Δp) buckets (fresh far buckets start at their
    long-run mean mass) and the edge is re-anchored so the relabelled curve
    passes through zero exactly at the new π.
    """
    ens = Ensemble.of(state)
    _batch_clear(ens, params).raise_if_aborted()
    new = ens.path()
    return new.pi, new


def _step_state(state: DemandState, params: ModelParams, inc: np.ndarray, dt: float,
                translation: float) -> DemandState:
    """One step of a single state, as an ensemble of one; clearing failures raise."""
    ens = Ensemble.of(state)
    step_ensemble(ens, params, np.asarray(inc, dtype=float)[None, :], dt,
                  ou_step_factors(params, dt), translation=translation).raise_if_aborted()
    return ens.path()


def step_physical(state: DemandState, params: ModelParams, inc: np.ndarray, dt: float) -> DemandState:
    """Advance the book one step under the physical measure and re-clear.

    `inc` holds the factor increments over dt (see sheet.increments); they are
    rescaled to unit variance before entering the exact OU update.  The fitted
    clearing-price drift params.drift_c (a physical-measure diagnostic, per
    hour) translates the price level on top of the relative-book move.
    """
    return _step_state(state, params, inc, dt, params.drift_c * dt)


# ----------------------------------------------------------------------
# inverse process and liquidation proceeds

def inverse(state: DemandState, x) -> float:
    """Price at which net demand equals x (unique: the curve is strictly decreasing)."""
    vals = node_values(state)
    offs = node_offsets(state)
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr > vals[0]) or np.any(x_arr < vals[-1]):
        raise UndefinedInverseError(f"net demand level {x} outside curve range "
                                    f"[{vals[-1]:.6g}, {vals[0]:.6g}]")
    s = np.interp(x_arr, vals[::-1], offs[::-1])
    out = state.pi + s
    return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out


def liquidation_proceeds(state: DemandState, theta: float) -> float:
    """L(θ) = ∫_0^θ P(x) dx, the value of unwinding θ shares against the curve.

    The curve is piecewise linear, so the integral is an exact sum of
    trapezoids between the node levels crossed by [0, θ].
    """
    if theta == 0.0:
        return 0.0
    vals = node_values(state)
    lo, hi = (0.0, theta) if theta > 0 else (theta, 0.0)
    if hi > vals[0] or lo < vals[-1]:
        raise UndefinedInverseError(f"liquidation of {theta} shares exceeds the curve range")
    interior = vals[(vals > lo) & (vals < hi)]
    grid = np.concatenate(([lo], np.sort(interior), [hi]))
    prices = inverse(state, grid)
    segments = np.diff(grid) * (prices[:-1] + prices[1:]) / 2.0
    total = float(segments.sum())
    return total if theta > 0 else -total


# ----------------------------------------------------------------------
# wealth dynamics of a position held against the curve

def wealth_increment(state_before: DemandState, state_after: DemandState,
                     theta_before: float, theta_after: float, *,
                     jump: bool = True, theta_qv: float = 0.0) -> float:
    """Real-wealth change over one step for a position marked at liquidation value.

    Three contributions: the change of L(θ_before, ·) as the curve moves; a
    quadratic-variation trading cost 0.5*|P'|*d[θ] for strategies with a
    diffusive component (pass the increment of [θ] as theta_qv); and, when the
    position change is a block (jump=True), a displacement penalty equal to
    the area between the curve and the post-trade price over the traded
    interval.  On a strictly decreasing curve the penalty is strictly positive
    for any non-zero block; it vanishes for continuous finite-variation
    trading (jump=False, theta_qv=0).
    """
    dv = liquidation_proceeds(state_after, theta_before) - liquidation_proceeds(state_before, theta_before)

    if theta_qv != 0.0:
        vals = node_values(state_after)
        j = min(max(int(np.searchsorted(-vals, -theta_before, side="left")), 1), len(vals) - 1)
        slope = state_after.delta_p / (vals[j - 1] - vals[j])   # |dP/dx| on the segment
        dv -= 0.5 * slope * theta_qv

    if jump and theta_after != theta_before:
        dv -= jump_penalty(state_after, theta_before, theta_after)
    return float(dv)


def jump_penalty(state: DemandState, theta_before: float, theta_after: float) -> float:
    """Displacement cost of a block trade: area between curve and post-trade price."""
    gained = liquidation_proceeds(state, theta_after) - liquidation_proceeds(state, theta_before)
    return float(gained - (theta_after - theta_before) * inverse(state, theta_after))
