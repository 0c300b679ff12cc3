"""Relative net-demand curve: book ensembles, clearing, and the inverse process.

The resting book is summarized by bucket masses q̃(k,t) on a grid of relative
price offsets around the clearing price π(t).  Bucket k covers offsets
((k-1/2)Δp, (k+1/2)Δp], so bucket 0 straddles the clearing price itself.  The
cumulative net demand is anchored below the grid by the edge value
Q̃(-K,t) and decreases through the buckets:

    Q̃(k,t) = Q̃(-K,t) - sum_{l=-K+1..k} q̃(l,t)

Books are the columns of an Ensemble; a single book is an ensemble of one
(init_ensemble(params, 1)), and every curve function answers per column.
Between the node offsets (k+1/2)Δp the curve is linear (the bucket mass is
spread uniformly), which makes the zero crossing, the inverse process and the
liquidation integral all exact piecewise-linear computations.  They share one
node build (_nodes).  One segment search (_segment) serves the inverse,
clearing (the inverse at level 0) and the quadratic-variation cost, which
takes its slope from the segment the inverse finds; proceeds integrate the
inverse segment by segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GridError, UndefinedInverseError
from .params import ModelParams
from .sheet import is_whole


# ----------------------------------------------------------------------
# book ensembles
#
# Per-book state is stored as flat arrays so that the OU update, clearing and
# every curve function run batched over books; riskneutral steps them.

@dataclass
class Ensemble:
    """n books, stored bucket-major; a single book is an ensemble of one.

    Row 0 of the (2K+1, n) log state holds the edge of every book and row
    k+1 bucket k, in the row order of the node values, so each per-step
    numpy loop runs along the long book axis, per-row parameters broadcast
    as (2K+1, 1) columns, and the edge steps with the masses in one update.
    Book i is column i; log_edge and log_q are views of the state's rows.
    """

    delta_p: float
    log_state: np.ndarray   # (2K+1, n): log edge, then log bucket masses
    pi: np.ndarray          # (n,)
    alive: np.ndarray       # (n,) bool

    @property
    def log_edge(self) -> np.ndarray:
        """(n,) log edge values: row 0 of the state."""
        return self.log_state[0]

    @log_edge.setter
    def log_edge(self, value) -> None:     # `ens.log_edge += x` writes the state
        self.log_state[0] = value

    @property
    def log_q(self) -> np.ndarray:
        """(2K, n) log bucket masses: rows 1..2K of the state."""
        return self.log_state[1:]

    @log_q.setter
    def log_q(self, value) -> None:
        self.log_state[1:] = value

    def column(self, i: int | slice) -> Ensemble:
        """Book i, indexed as in a sequence, as an ensemble of one, or the
        books of slice i as an ensemble; the arrays are views into this one."""
        if not isinstance(i, slice):
            i = range(self.pi.size)[i]
            i = slice(i, i + 1)
        return Ensemble(self.delta_p, self.log_state[:, i], self.pi[i], self.alive[i])


def init_ensemble(params: ModelParams, n_paths: int = 1) -> Ensemble:
    """n_paths copies of the initial book of `params`; a path count that is
    not an int of at least 1 is a ValueError."""
    if not (is_whole(n_paths) and n_paths >= 1):
        raise ValueError(f"n_paths must be an int of at least 1, got {n_paths!r}")
    log_state = np.concatenate(([np.log(params.edge0)], np.log(params.q0)))
    return Ensemble(delta_p=params.delta_p, log_state=np.tile(log_state[:, None], (1, n_paths)),
                    pi=np.full(n_paths, params.pi0, dtype=float),
                    alive=np.ones(n_paths, dtype=bool))


class Cleared(NamedTuple):
    """Per-book outcome of one clearing pass; aborted books are marked dead."""

    top: np.ndarray         # net demand non-negative at the top of the grid
    bottom: np.ndarray      # net demand non-positive at the bottom of the grid
    broken: np.ndarray      # non-finite curve values


# ----------------------------------------------------------------------
# the piecewise-linear curve

def node_offsets(ens: Ensemble) -> np.ndarray:
    """Offsets (m + 1/2)Δp, m = -K..K, where the cumulative curve has nodes."""
    K = len(ens.log_q) // 2
    return (np.arange(-K, K + 1) + 0.5) * ens.delta_p


def node_values(ens: Ensemble) -> np.ndarray:
    """(2K+1, n) cumulative net demand at the node offsets; the edge is row 0."""
    return _nodes(ens)[0]


def curve_value(ens: Ensemble, price) -> np.ndarray:
    """Net demand of each book at an absolute price (one, or one per book),
    linear between nodes."""
    offs = node_offsets(ens)
    s = price - ens.pi
    if not np.all((offs[0] <= s) & (s <= offs[-1])):
        raise GridError(f"price {price} outside the bucket grid around pi={ens.pi}")
    m = np.minimum(((s - offs[0]) // ens.delta_p).astype(int), len(offs) - 2)
    lo, hi = node_values(ens)[[m, m + 1], np.arange(ens.pi.size)]
    return lo + (hi - lo) * (s - offs[m]) / ens.delta_p


_ACCUMULATE_MAX_COLUMNS = 192      # widest array _running_sum accumulates in one call


def _running_sum(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Cumulative sums down the rows of x, into `out` when given (x itself
    may be `out`).

    The additions and their order are those of np.cumsum(x, axis=0): row i
    is row i-1 plus x[i], so the last row is the column sums added in row
    order whatever the number of columns (np.sum switches to pairwise
    summation on a single column).

    Width rule: up to _ACCUMULATE_MAX_COLUMNS columns the sums come from one
    np.add.accumulate call, on wider arrays from one np.add call per row.
    Both make the same additions in the same order.  On 14 rows (2 vCPU
    Xeon, numpy 2.4, Python 3.11) the one call takes about 0.7 µs plus 47 ns
    a column, as it runs down strided columns, and the loop about 10 µs plus
    9 ns a column: 0.7 against 10 µs on one column, 13 against 9 µs on 256,
    490 against 100 µs on 10⁴.  They break even near 192 columns on 14 rows
    and near 256 on 20.
    """
    if x[0].size <= _ACCUMULATE_MAX_COLUMNS:
        return np.add.accumulate(x, axis=0, out=out)
    out = np.empty_like(x) if out is None else out
    out[0] = x[0]
    for i in range(1, len(x)):
        np.add(out[i - 1], x[i], out=out[i])
    return out


# The fractional position w in bucket 0 where clearing puts the zero of the
# curve: mid-bucket.  riskneutral's drift kill assumes the same w, and is
# exact only while the two agree.
_CLEARING_ANCHOR = 0.5


def _nodes(ens: Ensemble, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(2K+1, n) node values, the edge first, and the (n,) edge that puts
    each curve's zero mid-bucket 0: half of bucket 0 plus the masses below
    it, summed in row order.

    The node values are built in `out`, a (2K+1, n) array when given, as the
    exp of the log state summed in place.  Overflow to inf is left in place:
    _batch_clear reports such paths as broken.
    """
    K = len(ens.log_state) // 2
    with np.errstate(over="ignore"):
        vals = np.exp(ens.log_state, out=out)       # the edge, then the masses
        half = _CLEARING_ANCHOR * vals[K]           # before the running sum replaces q(0)
        sums = _running_sum(vals[1:], out=vals[1:])
        anchor = half + sums[K - 2] if K > 1 else half
        np.subtract(vals[0], sums, out=sums)
    return vals, anchor


def _segment(vals: np.ndarray, curve: Ensemble, x, live=True):
    """Width and offset of the segment holding level x on each column's curve.

    `vals` holds the (2K+1, n) node values of n decreasing curves on the grid
    of `curve`; x is one level or one per column.  Segment j = 1..2K joins
    nodes j-1 and j; node j-1 sits at offset (j - K - 1/2)Δp, formed from
    the exact half-integer as node_offsets forms it.  A level equal to an
    interior node value falls in the segment starting at that node (on its
    higher-price side), so its offset is the node's exactly.  Columns off
    `live` get width 1 and offset 0.

    The count is a uint8 reduce, cast once, and the two nodes are read by
    take on flat indices: the cheapest search on wide batches (about 120 µs
    at 10⁴ columns, 2 vCPU Xeon, numpy 2.4).  On one column two row reads
    are cheaper still.
    """
    K, n = len(vals) // 2, vals.shape[1]
    count = np.uint8 if K <= 128 else np.intp      # uint8 counts the 2K - 1 <= 255 nodes
    above = np.add.reduce(vals[1:-1] >= x, axis=0, dtype=count).astype(np.intp)    # j - 1
    node = (above - (K - 0.5)) * curve.delta_p
    if n == 1:
        v_hi, v_lo = vals[above[0]], vals[above[0] + 1]
    else:
        flat = above                                # j - 1 is spent: row-major flat indices
        flat *= n
        flat += np.arange(n)
        v_hi = vals.take(flat)
        flat += n
        v_lo = vals.take(flat)
    width = np.where(live, v_hi - v_lo, 1.0)
    return width, np.where(live, node + curve.delta_p * (v_hi - x) / width, 0.0)


def _batch_clear(ens: Ensemble, params: ModelParams, out: np.ndarray | None = None) -> Cleared:
    """Vectorized zero-crossing and edge re-anchoring (in place).

    Each live book's π moves to its curve's zero crossing, and its edge is
    re-anchored so the zero sits mid-bucket 0.  The masses keep their labels:
    the relative curve moves with π, however far the crossing lies.  Live
    books whose curve is non-finite or does not cross zero inside the grid
    are marked dead and reported instead of cleared.  A stepping loop passes
    a (2K+1, n) work array as `out` for the node values.
    """
    vals, anchor = _nodes(ens, out)
    # the nodes fall from the edge by non-negative masses, so an inf or a NaN
    # anywhere, the edge included, reaches the last node: test it alone
    sound = np.isfinite(vals[-1]) & ens.alive
    broken = ens.alive ^ sound
    top = sound & (vals[-1] >= 0.0)
    bottom = sound & (vals[0] <= 0.0)
    np.logical_xor(sound, top | bottom, out=ens.alive)     # sound & ~(top | bottom)
    if np.count_nonzero(broken):    # placeholder state so later vector math stays finite
        ens.log_q[:, broken] = params.mean_logq[:, None]
        ens.log_edge[broken] = params.mean_log_edge
        vals[:, broken] = 1.0
    live = ens.alive
    if not np.count_nonzero(live):
        return Cleared(top, bottom, broken)

    # a live curve falls from positive at the edge to negative at the top:
    # its zero crossing is the inverse at level 0
    _, z = _segment(vals, ens, 0.0, live)
    ens.pi += z
    # live edges re-anchor so the zero sits mid-bucket 0; dead paths stay frozen
    np.log(anchor, out=ens.log_edge, where=live)
    return Cleared(top, bottom, broken)


# ----------------------------------------------------------------------
# inverse process and liquidation proceeds

def inverse(ens: Ensemble, x) -> np.ndarray:
    """Price at which each book's net demand equals x (one level, or one per
    book); unique, as the curve is strictly decreasing."""
    vals = node_values(ens)
    if not np.all((vals[-1] <= x) & (x <= vals[0])):
        raise UndefinedInverseError(f"net demand level {x} outside the curve range of a book")
    return ens.pi + _segment(vals, ens, x)[1]


def liquidation_proceeds(ens: Ensemble, theta) -> np.ndarray:
    """L(θ) = ∫_0^θ P(x) dx per book, the value of unwinding θ shares (one
    position, or one per book) against the curve.

    P is linear on each segment, so the integral is exact: the sum over the
    segments of their overlap with [0, θ] times P at the overlap's midpoint.
    A non-empty overlap's midpoint lies strictly inside its own segment, so
    P there needs no segment search.
    """
    vals = node_values(ens)
    lo, hi = np.minimum(theta, 0.0), np.maximum(theta, 0.0)
    if not np.all((vals[-1] <= lo) & (hi <= vals[0])):
        raise UndefinedInverseError(f"liquidation of {theta} shares exceeds a curve range")
    top, bottom = np.minimum(vals[:-1], hi), np.maximum(vals[1:], lo)   # overlaps, per segment
    overlap = np.maximum(top - bottom, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):    # empty overlaps on empty segments
        s = node_offsets(ens)[:-1, None] \
            + ens.delta_p * (vals[:-1] - 0.5 * (top + bottom)) / (vals[:-1] - vals[1:])
    total = _running_sum(overlap * (ens.pi + np.where(overlap > 0.0, s, 0.0)))[-1]
    return np.where(theta < 0, -total, total)


# ----------------------------------------------------------------------
# wealth dynamics of a position held against the curve

def wealth_increment(before: Ensemble, after: Ensemble, theta_before, theta_after, *,
                     jump: bool = True, theta_qv=0.0) -> np.ndarray:
    """Real-wealth change over one step of each book's position (one, or one
    per book), marked at liquidation value.

    Three contributions: the change of L(θ_before, ·) as the curve moves; a
    quadratic-variation trading cost 0.5*|P'|*d[θ] for strategies with a
    diffusive component (pass the increment of [θ] as theta_qv); and, when the
    position change is a block (jump=True), a displacement penalty equal to
    the area between the curve and the post-trade price over the traded
    interval.  On a strictly decreasing curve the penalty is strictly positive
    for any non-zero block; it vanishes for continuous finite-variation
    trading (jump=False, theta_qv=0).
    """
    dv = liquidation_proceeds(after, theta_before) - liquidation_proceeds(before, theta_before)
    if np.any(theta_qv != 0.0):
        width, _ = _segment(node_values(after), after, theta_before)
        dv -= 0.5 * (after.delta_p / width) * theta_qv     # |dP/dx| on the segment
    if jump:
        dv -= jump_penalty(after, theta_before, theta_after)    # 0 where θ is unchanged
    return dv


def jump_penalty(ens: Ensemble, theta_before, theta_after) -> np.ndarray:
    """Displacement cost of a block trade: area between curve and post-trade price."""
    gained = liquidation_proceeds(ens, theta_after) - liquidation_proceeds(ens, theta_before)
    return gained - (theta_after - theta_before) * inverse(ens, theta_after)
