"""Calibration pipeline: exchange message logs to fitted model parameters.

Stages, each a pure transformation:

    parse_messages -> clean -> build_panel -> fits

The panel replays the cleaned log through the matching engine, snapshots
the book at one-minute bar ends, and books every resting order into the
relative price bucket k whose half-open range ((k - 1/2) delta_p,
(k + 1/2) delta_p] holds its offset p - pi.  The fits are then
straight time-series work: AR(1) per log-mass series (mapped to
Ornstein-Uhlenbeck rates per hour), a correlation square root for the
factor loadings, an OLS trend for the clearing-price drift, a Jarque-Bera
normality check, and descriptive statistics.

``fit_report`` bundles all of it into a FitReport: the fitted ModelParams,
ready to simulate, and the diagnostics of the fit, closing the
calibrate -> simulate loop.  ``synthesize_log`` runs the loop the other
way: it simulates a physical-measure path and writes a message log whose
replayed panel reproduces the simulated state exactly, which is what the
round-trip estimation tests are built on.
"""

from __future__ import annotations

import math
import operator
import statistics
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .demand import init_ensemble
from .errors import ConfigError, FitError, ParseError
from .lob import MessageEvent, OrderBook, Side, replay
from .params import ModelParams, uniform_loadings
from .riskneutral import run_steps
from .sheet import is_whole

SESSION_START_NS = 34_200_000_000_000   # 09:30
SESSION_END_NS = 57_600_000_000_000     # 16:00
BAR_NS = 60_000_000_000                 # one minute
BAR_HOURS = BAR_NS / 3_600_000_000_000.0

# Default price sanity window for the cleaning stage.
PRICE_WINDOW = (20.00, 20.62)

_SIDES = {"B": Side.BUY, "S": Side.SELL}
_TYPES = frozenset("AMD")

# How near an integer f = offset/delta_p - 1/2 must lie for _snapshot to take
# the 9-decimal round.  round(x, 9) is the float nearest a decimal within
# 5e-10 of x: it moves x by at most 5e-10 plus half an ulp, and not at all
# once x's ulps are coarser than 2e-9, so it moves x - 1/2 by under 1e-8 even
# with the subtraction's own rounding.  Beyond this margin it cannot carry f
# across an integer, and ceil(f) is the bucket without it.
_BOUNDARY_MARGIN = 1e-6

# A MessageEvent from a 6-tuple of its fields, skipping the Python-level
# keyword handling of the named tuple's own constructor.
_event = partial(tuple.__new__, MessageEvent)


# ----------------------------------------------------------------------
# parsing and cleaning

@dataclass(frozen=True)
class ParseIssue:
    line_no: int
    reason: str
    raw: str


@dataclass
class ParseResult:
    events: list
    issues: list

    @property
    def n_ok(self) -> int:
        return len(self.events)


def parse_messages(source, strict: bool = False) -> ParseResult:
    """Parse a message-log text stream.

    One event per line: ``msg_type,side,timestamp_ns,order_id,price,size``
    (e.g. ``A,B,34200000000000,42,20.16,500``).  Whitespace around a line
    and around each field is stripped.  Blank lines and ``#`` comments are
    skipped.  Malformed lines are collected into the issue list with their
    line numbers; ``strict=True`` aborts on the first one.

    A line in the canonical form ``format_log`` writes is read in the loop
    itself; any other goes through ``_parse_line``, the one reader of
    malformed and padded lines.  int and float ignore surrounding
    whitespace, so both read a field to the same value.
    """
    if isinstance(source, str):
        lines: Iterable[str] = source.splitlines()
    else:
        lines = source
    events: list = []
    issues: list = []
    inf = math.inf
    for line_no, raw in enumerate(lines, start=1):
        parts = raw.split(",")
        if len(parts) == 6:
            msg_type, side_code, ts_s, order_id, price_s, size_s = parts
            side = _SIDES.get(side_code)
            # _parse_line's checks, in its order, on an unpadded line; a
            # line failing any of them goes to _parse_line for its reason
            if (msg_type in _TYPES and side is not None and order_id
                    and order_id.strip() == order_id):
                try:
                    fields = (msg_type, side, int(ts_s), order_id,
                              float(price_s), float(size_s))
                except ValueError:
                    pass
                else:
                    if 0.0 < fields[4] < inf and 0.0 < fields[5] < inf:
                        events.append(_event(fields))
                        continue
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            events.append(_parse_line(line))
        except ValueError as exc:
            if strict:
                raise ParseError(f"line {line_no}: {exc}") from None
            issues.append(ParseIssue(line_no, str(exc), line))
    return ParseResult(events, issues)


def _parse_line(line: str) -> MessageEvent:
    parts = [p.strip() for p in line.split(",")]
    if len(parts) != 6:
        raise ValueError(f"expected 6 fields, got {len(parts)}")
    msg_type, side_code, ts_s, order_id, price_s, size_s = parts
    if msg_type not in _TYPES:
        raise ValueError(f"unknown message type {msg_type!r}")
    side = _SIDES.get(side_code)
    if side is None:
        raise ValueError(f"unknown side {side_code!r}")
    timestamp = int(ts_s)
    price = float(price_s)
    size = float(size_s)
    if not 0.0 < price < math.inf:
        raise ValueError(f"price must be positive, got {price_s!r}")
    if not 0.0 < size < math.inf:
        raise ValueError(f"size must be positive, got {size_s!r}")
    if not order_id:
        raise ValueError("empty order id")
    return MessageEvent(msg_type, side, timestamp, order_id, price, size)


@dataclass(frozen=True)
class CleanResult:
    events: tuple
    retention: float


def clean(events: Sequence, p_min: float = PRICE_WINDOW[0],
          p_max: float = PRICE_WINDOW[1],
          session: tuple = (SESSION_START_NS, SESSION_END_NS)) -> CleanResult:
    """Drop events with prices outside [p_min, p_max] or off-session times.

    Returns the kept events and the retention fraction.  Idempotent: the
    output always survives a second pass unchanged.
    """
    if not p_min < p_max:
        raise ValueError(f"need p_min < p_max, got [{p_min}, {p_max}]")
    lo, hi = session
    kept = tuple(
        ev for ev in events
        if p_min <= ev.price <= p_max and lo <= ev.timestamp <= hi
    )
    retention = len(kept) / len(events) if events else 1.0
    return CleanResult(kept, retention)


# ----------------------------------------------------------------------
# panel construction

@dataclass
class PanelData:
    """Bar-sampled book state, BAR_NS apart, in the row order of ``Ensemble.log_state``.

    ``masses`` holds one column per bar: the edge (all resting buys minus
    the sells in bucket -K), then buckets -K+1..K, so K = len(masses) // 2.
    It stays linear, for a panel can hold what a model state cannot: an
    empty bucket, or a negative edge.  ``Ensemble(delta_p, np.log(masses),
    pi, alive)`` views the bars as books.  ``below_grid`` is the quantity
    clipped into bucket -K; ``gap`` flags bars that received no message and
    so carry an adjacent bar's snapshot.
    """

    pi: np.ndarray             # (n_bars,)
    masses: np.ndarray         # (2K+1, n_bars)
    below_grid: np.ndarray     # (n_bars,)
    gap: np.ndarray            # (n_bars,) bool
    delta_p: float


def _snapshot(book: OrderBook, K: int, delta_p: float):
    """Book state as (pi, masses, below_grid): the (2K+1,) masses hold the
    edge net demand, then buckets -K+1..K, as a column of PanelData.masses.

    An order at offset p - pi sits in bucket k = ceil(offset/delta_p - 1/2),
    the one whose range ((k - 1/2) delta_p, (k + 1/2) delta_p] holds it,
    clipped to [-K, K].  The rule is ceil(round(offset/delta_p, 9) - 1/2):
    the offset in buckets is rounded to 9 decimals, so float noise cannot
    move a price that lies on a boundary.  The round is taken only where
    f = offset/delta_p - 1/2 lies within _BOUNDARY_MARGIN of an integer:
    further out the round cannot carry f across one (see the margin), so
    ceil(f) is the same k.  A sell nets out of the edge exactly when it
    lands in bucket -K.  The orders are read off ``book.records()`` and
    summed in its order.
    """
    pi = book.clearing_price
    masses = [0.0] * (2 * K + 1)       # bucket -K in row 0 until the edge takes it
    edge = 0.0
    buy = Side.BUY
    ceil = math.ceil
    near, far = _BOUNDARY_MARGIN, 1.0 - _BOUNDARY_MARGIN
    for _, remaining, side, price, _ in book.records():
        f = (price - pi) / delta_p - 0.5
        k = ceil(f)
        if not near < k - f < far:
            k = ceil(round((price - pi) / delta_p, 9) - 0.5)
        if k < -K:
            k = -K
        elif k > K:
            k = K
        masses[k + K] += remaining
        if side is buy:
            edge += remaining
        elif k == -K:
            edge -= remaining
    below_grid, masses[0] = masses[0], edge
    return pi, np.array(masses), below_grid


def build_panel(events: Sequence, pi0: float, K: int, delta_p: float,
                session: tuple = (SESSION_START_NS, SESSION_END_NS)) -> PanelData:
    """Replay events through the matching engine and sample bars.

    Bar b covers the timestamps (start + b BAR_NS, start + (b + 1) BAR_NS];
    the first bar also takes messages at or before the session start, and
    the last one any after its end.  The book is snapshotted at the last
    message of every bar (390 bars for a 6.5-hour session), and resting
    quantity is assigned to the half-open relative buckets of ``_snapshot``,
    whose columns are stacked once into the (2K+1, n_bars) masses.
    Bars that receive no message carry the snapshot of the last bar that
    did (of the first one, before any message) and are flagged as gaps.  A
    book that is empty at a bar end is snapshotted as it is, with zero
    masses, which ``fit_report`` rejects.  A bad grid (K not an int of at
    least 1, bools excluded; Δp not positive and finite) raises ConfigError.
    """
    if not is_whole(K):
        raise ConfigError(f"K must be an integer, got {K!r}")
    if not K >= 1:
        raise ConfigError(f"K must be at least 1, got {K}")
    if not 0.0 < delta_p < math.inf:
        raise ConfigError(f"delta_p must be positive and finite, got {delta_p}")
    start, end = session
    n_bars = int((end - start) // BAR_NS)
    if n_bars < 1:
        raise ValueError("session shorter than one bar")
    if not events:
        raise FitError("no message to build a panel from")
    timestamp = operator.attrgetter("timestamp")
    events = sorted(events, key=timestamp)

    # Messages replayed by the end of each bar; a bar closes where the
    # count grows, and the snapshots are taken at those counts.
    ends = [bisect_right(events, start + b * BAR_NS, key=timestamp)
            for b in range(1, n_bars)] + [len(events)]
    closes = sorted(set(ends) - {0})
    snaps = []
    seen = 0

    def on_event(ev, book):
        nonlocal seen
        seen += 1
        if seen == closes[len(snaps)]:
            snaps.append(_snapshot(book, K, delta_p))

    replay(events, pi0, on_event=on_event)

    # Each bar takes the snapshot of the last bar that closed by its end;
    # a leading gap takes the first one.
    take = np.maximum(np.searchsorted(closes, ends, side="right") - 1, 0)
    pi, masses, below_grid = (np.array(column)[take] for column in zip(*snaps))
    return PanelData(pi, masses.T.copy(), below_grid, np.diff(ends, prepend=0) == 0, delta_p)


# ----------------------------------------------------------------------
# fits

class Ar1Fit(NamedTuple):
    a: float          # mean-reversion rate per hour (>= 0 after truncation)
    mean: float       # long-run level of the series
    sigma_rel: float  # driving volatility per sqrt(hour)


def fit_ar1(x: Sequence, delta_t: float) -> Ar1Fit:
    """Ornstein-Uhlenbeck parameters from a sampled log-value series.

    OLS of x_{i+1} on x_i gives the AR(1) slope phi and intercept; then
    a = -ln(phi)/delta_t (truncated to 0 when phi >= 1, the random-walk
    limit, where the long-run mean falls back to the sample mean),
    mean = intercept/(1 - phi), and the residual standard deviation is
    scaled back to the continuous-time volatility through the exact
    relation Var(eps) = sigma^2 (1 - phi^2) / (2a).

    ``delta_t`` is the sampling interval in hours, making ``a`` per hour
    and ``sigma_rel`` per square-root hour.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 30:
        raise FitError(f"need a 1-d series of at least 30 points, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise FitError("series contains non-finite values")
    if delta_t <= 0:
        raise FitError(f"sampling interval must be positive, got {delta_t}")
    x0, x1 = x[:-1], x[1:]
    var0 = float(np.var(x0))
    if var0 == 0.0 or float(np.ptp(x)) == 0.0:
        raise FitError("degenerate fit: the series is constant")
    phi = float(np.cov(x0, x1, bias=True)[0, 1] / var0)
    if phi <= 0.0:
        raise FitError(f"unstable fit: AR(1) slope {phi:.6g} is not positive")
    intercept = float(x1.mean() - phi * x0.mean())
    resid = x1 - (intercept + phi * x0)
    s = float(resid.std(ddof=2))
    if phi >= 1.0:
        a = 0.0
        mean = float(x.mean())
        sigma = s / math.sqrt(delta_t)
    else:
        a = -math.log(phi) / delta_t
        mean = intercept / (1.0 - phi)
        sigma = s * math.sqrt(2.0 * a / (1.0 - phi * phi))
    return Ar1Fit(a=a, mean=mean, sigma_rel=sigma)


def fit_loadings(log_q: np.ndarray, delta_p: float) -> np.ndarray:
    """Factor loadings from the correlation of per-bar log-mass changes.

    ``log_q`` is (2K, n_bars): rows 1..2K of ``np.log(PanelData.masses)``.

    Only the product b bᵀ delta_p (= the correlation matrix) is
    identifiable from the panel, so the symmetric square root is taken and
    every row is rescaled to the normalization sum_j b(k,j)^2 delta_p = 1.
    A non-positive-semidefinite empirical matrix is repaired by clipping
    its eigenvalues at zero.  A rank-deficient panel (constant or
    non-finite columns) falls back to identity loadings with a warning.
    """
    n, n_bars = log_q.shape
    if n_bars < 100:
        raise FitError(f"need at least 100 bars to fit loadings, got {n_bars}")
    scale = 1.0 / math.sqrt(delta_p)
    with np.errstate(invalid="ignore"):
        d = np.diff(log_q, axis=1)
    norms = np.zeros(n)
    if np.all(np.isfinite(d)) and np.all(d.std(axis=1) > 0):
        vals, vecs = np.linalg.eigh(np.corrcoef(d))
        root = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
        norms = np.linalg.norm(root, axis=1)
    if np.any(norms == 0.0):
        warnings.warn(
            "degenerate loadings: panel is rank-deficient, using identity",
            RuntimeWarning,
            stacklevel=2,
        )
        return np.eye(n) * scale
    return root / norms[:, None] * scale


def jarque_bera_from_moments(n: int, skewness: Optional[float],
                             excess_kurtosis: Optional[float]) -> tuple:
    """JB statistic and p-value from sample size and standardized moments.

    JB = (sqrt(n/6) S)^2 + (sqrt(n/24) K_excess)^2, compared against a
    chi-square(2) law whose survival function is exp(-JB/2) exactly.  The
    kurtosis argument is the excess (normal = 0) convention.  A constant
    sample (moments None, as summarize reports them) gives (0.0, 1.0).
    """
    if skewness is None:
        return 0.0, 1.0
    jb = n / 6.0 * skewness ** 2 + n / 24.0 * excess_kurtosis ** 2
    return jb, math.exp(-jb / 2.0)


def jarque_bera(series: Sequence) -> tuple:
    """Jarque-Bera normality test of a sample; returns (statistic, p-value)."""
    x = np.asarray(series, dtype=float)
    if x.size < 8:
        raise FitError(f"need at least 8 observations, got {x.size}")
    stats = summarize(x)
    return jarque_bera_from_moments(x.size, stats.skewness, stats.kurtosis)


def fit_drift(pi: Sequence) -> float:
    """OLS slope of the clearing price against bar index, per bar."""
    y = np.asarray(pi, dtype=float)
    if y.size < 2:
        raise FitError(f"need at least 2 observations, got {y.size}")
    t = np.arange(y.size, dtype=float)
    return float(np.polyfit(t, y, 1)[0])


@dataclass(frozen=True)
class SummaryStats:
    nobs: int
    minimum: float
    maximum: float
    q1: float
    median: float
    q3: float
    mean: float
    variance: float
    stdev: float
    skewness: Optional[float]
    kurtosis: Optional[float]   # excess convention (normal = 0)
    se_mean: float
    ci95: tuple

    def to_text(self) -> str:
        rows = [
            ("nobs", f"{self.nobs}"),
            ("min", f"{self.minimum:.6g}"),
            ("q1", f"{self.q1:.6g}"),
            ("median", f"{self.median:.6g}"),
            ("q3", f"{self.q3:.6g}"),
            ("max", f"{self.maximum:.6g}"),
            ("mean", f"{self.mean:.6g}"),
            ("variance", f"{self.variance:.6g}"),
            ("stdev", f"{self.stdev:.6g}"),
            ("skewness", "missing" if self.skewness is None else f"{self.skewness:.6g}"),
            ("excess kurtosis", "missing" if self.kurtosis is None else f"{self.kurtosis:.6g}"),
            ("se(mean)", f"{self.se_mean:.6g}"),
            ("95% CI", f"[{self.ci95[0]:.6g}, {self.ci95[1]:.6g}]"),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def summarize(series: Sequence) -> SummaryStats:
    """Descriptive statistics of a series (sample variance, excess kurtosis).

    Skewness and kurtosis are reported as missing for a constant series,
    where they are undefined.
    """
    x = np.asarray(series, dtype=float)
    if x.size == 0:
        raise FitError("cannot summarize an empty series")
    mean = float(x.mean())
    var = float(x.var(ddof=1)) if x.size > 1 else 0.0
    std = math.sqrt(var)
    c = x - mean
    m2 = float(np.mean(c ** 2))
    if m2 == 0.0:
        skew = kurt = None
    else:
        skew = float(np.mean(c ** 3)) / m2 ** 1.5
        kurt = float(np.mean(c ** 4)) / m2 ** 2 - 3.0
    se = std / math.sqrt(x.size)
    z = statistics.NormalDist().inv_cdf(0.975)
    q1, med, q3 = (float(v) for v in np.percentile(x, [25, 50, 75]))
    return SummaryStats(
        nobs=int(x.size),
        minimum=float(x.min()),
        maximum=float(x.max()),
        q1=q1,
        median=med,
        q3=q3,
        mean=mean,
        variance=var,
        stdev=std,
        skewness=skew,
        kurtosis=kurt,
        se_mean=se,
        ci95=(mean - z * se, mean + z * se),
    )


# ----------------------------------------------------------------------
# the full report

@dataclass
class FitReport:
    """A calibration: the fitted model ``params`` and the diagnostics of its
    fit.  ``drift_c`` is the clearing-price trend per bar, the convention the
    drift is usually quoted in; ``params.drift_c`` is the same trend per hour."""

    params: ModelParams
    drift_c: float             # per bar
    jb_stat: float
    jb_pvalue: float
    summary: SummaryStats

    # read-only views of params for the readers that take them from the
    # report: bench/workloads.py and the acceptance test of criterion 9
    a = property(lambda self: self.params.a_q)                  # (2K,) per hour
    sigma_rel = property(lambda self: self.params.sigma_q_rel)  # (2K,) per sqrt(hour)
    loadings = property(lambda self: self.params.loadings)      # (2K, 2K)


def fit_report(panel: PanelData) -> FitReport:
    """Run every estimator over a panel and bundle the fitted model with the
    diagnostics of its fit: one log of the masses, an AR(1) fit per row at
    BAR_HOURS spacing, and the loadings of the bucket rows.  The first row
    that is not positive is a FitError.

    The fitted model starts from the long-run book shape at the last
    clearing price.  Edge loadings are not identified by the panel (a single
    series cannot pin a direction in factor space), so the uniform
    normalized profile is used.  The drift is fitted per bar, the report's
    ``drift_c``, and ``params.drift_c`` holds it per hour.
    """
    K = len(panel.masses) // 2
    bad = np.flatnonzero((panel.masses <= 0.0).any(axis=1))
    if bad.size:
        name = "edge series" if bad[0] == 0 else f"bucket k={bad[0] - K}"
        raise FitError(f"{name} has non-positive values; cannot take logs")
    log_masses = np.log(panel.masses)
    edge, *buckets = [fit_ar1(x, BAR_HOURS) for x in log_masses]
    a, mean_logq, sigma_rel = np.array(buckets).T.copy()
    loadings = fit_loadings(log_masses[1:], panel.delta_p)
    summary = summarize(panel.pi)       # one pass for the summary and the JB moments
    jb, p = jarque_bera_from_moments(summary.nobs, summary.skewness, summary.kurtosis)
    drift_c = fit_drift(panel.pi)
    params = ModelParams(
        K=K,
        delta_p=panel.delta_p,
        pi0=float(panel.pi[-1]),
        q0=np.exp(mean_logq),
        a_q=a,
        mean_logq=mean_logq,
        sigma_q_rel=sigma_rel,
        loadings=loadings,
        edge0=math.exp(edge.mean),
        a_edge=edge.a,
        mean_log_edge=edge.mean,
        sigma_edge_rel=edge.sigma_rel,
        edge_loadings=uniform_loadings(K, panel.delta_p),
        drift_c=drift_c * (1.0 / BAR_HOURS),
    )
    return FitReport(params, drift_c, jb, p, summary)


def calibrate(source, pi0: float, K: int, delta_p: float,
              strict: bool = False,
              p_min: float = PRICE_WINDOW[0], p_max: float = PRICE_WINDOW[1],
              session: tuple = (SESSION_START_NS, SESSION_END_NS)) -> FitReport:
    """Full pipeline from a message-log text stream to a FitReport.

    Malformed lines are skipped with a RuntimeWarning naming the first one
    (``strict=True`` raises ParseError instead).
    """
    parsed = parse_messages(source, strict=strict)
    if parsed.issues:
        first = parsed.issues[0]
        warnings.warn(
            f"{len(parsed.issues)} malformed lines skipped "
            f"(first: line {first.line_no}: {first.reason})",
            RuntimeWarning,
            stacklevel=2,
        )
    cleaned = clean(parsed.events, p_min=p_min, p_max=p_max, session=session)
    if not cleaned.events:
        raise FitError(
            f"no message to calibrate on: clean dropped all {len(parsed.events)} "
            f"parsed messages as outside the session or the price window "
            f"[{p_min}, {p_max}]")
    panel = build_panel(cleaned.events, pi0=pi0, K=K, delta_p=delta_p, session=session)
    return fit_report(panel)


# ----------------------------------------------------------------------
# synthetic log generation (round-trip oracle and bundled demo data)

def synthesize_log(params: ModelParams, n_bars: int, seed: int = 0) -> list:
    """Message log whose replayed panel equals a simulated physical path.

    One bar at a time: the previous bar's orders are deleted, a crossing
    pair prints a trade exactly at the simulated clearing price, and fresh
    resting orders place each bucket's simulated mass at its bucket-center
    offset (buys below the clearing price, sells at and above it, plus a
    deep buy that makes the edge aggregate match).  Replaying the log and
    rebuilding the panel therefore recovers pi, every q(k), and the edge
    series exactly, which is what makes parameter-recovery tests sharp.
    Bar b shows the path after b one-minute physical steps of run_steps; a
    path that aborts raises SimulationError.
    """
    ens = init_ensemble(params, 1)
    steps = run_steps(params, ens, n_bars - 1, BAR_HOURS, seed, risk_neutral=False)
    K = params.K
    # per bucket j, k = j - K + 1: buys below the clearing price, sells at
    # and above it, at offset k·Δp
    buckets = range(-K + 1, K + 1)
    bucket_sides = [Side.BUY if k < 0 else Side.SELL for k in buckets]
    bucket_offsets = [k * params.delta_p for k in buckets]
    bucket_ids = [f"k{j}" for j in range(2 * K)]
    deep_offset = K * params.delta_p
    tick = 1_000_000
    events: list = []
    # the orders resting from the previous bar, as (sides, ids, prices, sizes)
    resting: tuple = ([], [], [], [])

    for bar in range(n_bars):
        if bar > 0:
            next(steps)
        pi = float(ens.pi[0])
        q = np.exp(ens.log_q[:, 0])
        sides = bucket_sides.copy()
        prefix = f"q{bar}"
        ids = [prefix + suffix for suffix in bucket_ids]
        prices = [pi + offset for offset in bucket_offsets]
        sizes = q.tolist()
        # Deep buy below the grid: brings total buys up to the edge value.
        deep = math.exp(ens.log_edge[0]) - float(q[: K - 1].sum())
        if deep > 0.0:
            sides.append(Side.BUY)
            ids.append(f"e{bar}")
            prices.append(pi - deep_offset)
            sizes.append(deep)

        # the previous bar's orders go, a crossing pair prints the trade at
        # pi, and this bar's orders rest; one message per tick inside the bar
        old_sides, old_ids, old_prices, old_sizes = resting
        n_del, n_add = len(old_ids), 2 + len(ids)
        t0 = SESSION_START_NS + bar * BAR_NS + tick
        events += map(_event, zip(
            ["D"] * n_del + ["A"] * n_add,
            old_sides + [Side.SELL, Side.BUY] + sides,
            range(t0, t0 + (n_del + n_add) * tick, tick),
            old_ids + [f"x{bar}s", f"x{bar}b"] + ids,
            old_prices + [pi, pi] + prices,
            old_sizes + [1.0, 1.0] + sizes))
        resting = sides, ids, prices, sizes

    return events


def format_log(events: Sequence) -> str:
    """Render events in the text format ``parse_messages`` reads.

    Floats use their shortest round-tripping representation, so a
    parse(format(x)) cycle reproduces prices and sizes bit-for-bit.
    """
    buy = Side.BUY      # by identity: an Enum key would hash through Enum.__hash__
    lines = [f"{msg_type},{'B' if side is buy else 'S'},{timestamp},{order_id},{price!r},{size!r}"
             for msg_type, side, timestamp, order_id, price, size in events]
    return "\n".join(lines) + "\n"
