"""Calibration tests: log parsing, cleaning, panel construction against
hand-counted books, the exact synthetic round trip, and every estimator
against an independent oracle."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookvol.calibration import (
    BAR_HOURS,
    BAR_NS,
    SESSION_END_NS,
    SESSION_START_NS,
    ParseIssue,
    _parse_line,
    _snapshot,
    build_panel,
    calibrate,
    clean,
    fit_ar1,
    fit_drift,
    fit_loadings,
    fit_report,
    format_log,
    jarque_bera,
    jarque_bera_from_moments,
    parse_messages,
    summarize,
    synthesize_log,
    PanelData,
)
from bookvol.demand import Ensemble, init_ensemble
from bookvol.errors import ConfigError, FitError, ParseError, SimulationError
from bookvol.lob import LimitOrder, MessageEvent, OrderBook, Side, replay
from bookvol.params import ModelParams, demo_params
from bookvol.riskneutral import StepPlan, price_vol, run_steps, step_ensemble
from bookvol.sheet import SheetConfig, increments_block


# ----------------------------------------------------------------------
# parsing

def test_parse_good_line():
    parsed = parse_messages("A,B,34200000000000,42,20.16,500\n")
    assert parsed.n_ok == 1 and not parsed.issues
    ev = parsed.events[0]
    assert ev.msg_type == "A"
    assert ev.side is Side.BUY
    assert ev.timestamp == 34_200_000_000_000
    assert ev.order_id == "42"
    assert (ev.price, ev.size) == (20.16, 500.0)


def test_parse_skips_blanks_and_comments():
    text = "# header\n\nA,S,100,x,20.0,1\n   \n# trailing\n"
    parsed = parse_messages(text)
    assert parsed.n_ok == 1 and not parsed.issues


@pytest.mark.parametrize("line,reason_bit", [
    ("A,B,100,x,20.0", "field"),             # five fields
    ("X,B,100,x,20.0,1", "type"),
    ("A,Q,100,x,20.0,1", "side"),
    ("A,B,oops,x,20.0,1", ""),
    ("A,B,100,x,-1.0,1", ""),
    ("A,B,100,x,20.0,0", ""),
    ("A,B,100,x,nan,1", ""),
    ("A,B,100,,20.0,1", ""),
])
def test_parse_rejects_malformed(line, reason_bit):
    parsed = parse_messages(line + "\n")
    assert parsed.n_ok == 0
    assert len(parsed.issues) == 1
    assert parsed.issues[0].line_no == 1
    assert reason_bit in parsed.issues[0].reason
    with pytest.raises(ParseError):
        parse_messages(line + "\n", strict=True)


def test_parse_reports_correct_line_numbers():
    text = "# head\nA,B,100,a,20.0,1\nbroken\nA,S,200,b,20.1,1\n"
    parsed = parse_messages(text)
    assert parsed.n_ok == 2
    assert [i.line_no for i in parsed.issues] == [3]


@given(price=st.floats(min_value=1e-3, max_value=1e6,
                       allow_nan=False, allow_infinity=False),
       size=st.floats(min_value=1e-3, max_value=1e9,
                      allow_nan=False, allow_infinity=False))
@settings(max_examples=80, deadline=None)
def test_format_parse_round_trip_is_bit_exact(price, size):
    ev = MessageEvent("A", Side.SELL, 123456789, "oid", price, size)
    back = parse_messages(format_log([ev])).events[0]
    assert back.price == price and back.size == size
    assert back == ev


def _parse_oracle(lines, strict=False):
    """parse_messages as one loop over _parse_line: the slow oracle of the
    canonical-line fast path."""
    events, issues = [], []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            events.append(_parse_line(line))
        except ValueError as exc:
            if strict:
                raise ParseError(f"line {line_no}: {exc}") from None
            issues.append(ParseIssue(line_no, str(exc), line))
    return events, issues


# padding: "\x1c" and "\xa0" are stripped by str.strip but "\x1c" is not
# ignored by int and float, so such a field takes the slow path
_PAD = st.sampled_from(["", "", " ", "\t", "\x0b", "  ", "\x1c", "\xa0"])
# each field is valid about four times in five
_NUMBER = st.one_of(
    st.floats(min_value=1e-3, max_value=1e6).map(repr),
    st.floats(min_value=1e-3, max_value=1e6).map(repr),
    st.integers(1, 10**6).map(str),
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "-0.0", "1e400", "1_0", "+3",
                     "abc", "", "1 0", "0x10"]))
_FIELDS = (
    st.sampled_from(["A", "M", "D"] * 4 + ["X", "a", "", "AD", "#A"]),
    st.sampled_from(["B", "S"] * 6 + ["Q", "b", "", "BS"]),
    st.one_of(st.integers(-10, 10**14).map(str), st.integers(0, 10**14).map(str),
              st.sampled_from(["", "1_0", "x", "1.5", "+7"])),
    st.one_of(st.text(alphabet="ab0_ .", min_size=1, max_size=4),
              st.sampled_from(["", "id", "7"])),
    _NUMBER,
    _NUMBER,
)


def _padded(field):
    return st.tuples(_PAD, field, _PAD).map("".join)


_LINE = st.one_of(
    st.tuples(*_FIELDS).map(",".join),                              # unpadded
    st.tuples(*map(_padded, _FIELDS)).map(",".join),                # padded fields
    st.tuples(_PAD, st.tuples(*_FIELDS).map(",".join), _PAD).map("".join),   # padded line
    st.lists(st.sampled_from(["A", "B", "1", "x", "2.5", " ", ""]),
             max_size=9).map(",".join),                             # any field count
    st.text(max_size=8).map(lambda t: "#" + t),                     # comment
    _PAD,                                                           # blank
)


@given(st.lists(_LINE, max_size=25))
@settings(max_examples=300, deadline=None)
def test_parse_matches_the_line_by_line_oracle(lines):
    """Events (values and Python types), issues and the first strict-mode
    error all equal a loop over _parse_line, for a list of lines and for the
    same lines as one text."""
    for source in (lines, "\n".join(lines)):
        oracle_lines = source.splitlines() if isinstance(source, str) else source
        events, issues = _parse_oracle(oracle_lines)
        parsed = parse_messages(source)
        assert parsed.events == events
        assert [[type(v) for v in ev] for ev in parsed.events] == \
            [[type(v) for v in ev] for ev in events]
        assert all(type(ev) is MessageEvent and type(ev.side) is Side for ev in parsed.events)
        assert parsed.issues == issues
        if issues:
            with pytest.raises(ParseError) as expected:
                _parse_oracle(oracle_lines, strict=True)
            with pytest.raises(ParseError) as got:
                parse_messages(source, strict=True)
            assert str(got.value) == str(expected.value)
        else:
            assert parse_messages(source, strict=True).events == events


def test_format_of_no_events_is_one_newline():
    assert format_log([]) == "\n"
    assert parse_messages(format_log([])).events == []


# ----------------------------------------------------------------------
# cleaning and the cancellation rule

def _ev(ts, msg="A", side=Side.BUY, oid="x", price=20.3, size=1.0):
    return MessageEvent(msg, side, ts, oid, price, size)


def test_clean_is_inclusive_on_both_windows():
    inside = [
        _ev(SESSION_START_NS, price=20.00),
        _ev(SESSION_END_NS, price=20.62),
    ]
    outside = [
        _ev(SESSION_START_NS - 1, price=20.3),
        _ev(SESSION_END_NS + 1, price=20.3),
        _ev(SESSION_START_NS, price=19.9999),
        _ev(SESSION_START_NS, price=20.6201),
    ]
    result = clean(inside + outside)
    assert list(result.events) == inside
    assert result.retention == pytest.approx(2 / 6)


def test_clean_is_idempotent():
    events = [_ev(SESSION_START_NS + i, price=20.0 + 0.001 * i) for i in range(50)]
    once = clean(events)
    twice = clean(once.events)
    assert list(twice.events) == list(once.events)
    assert twice.retention == 1.0


# ----------------------------------------------------------------------
# panel construction

def test_panel_counts_a_hand_book():
    start = 0
    events = [
        MessageEvent("A", Side.BUY, 1000, "b1", 19.9, 5.0),    # bucket -1
        MessageEvent("A", Side.BUY, 1001, "b2", 19.7, 4.0),    # below the grid
        MessageEvent("A", Side.SELL, 1002, "s1", 20.1, 7.0),   # bucket +1
        MessageEvent("A", Side.SELL, 1003, "s2", 20.2, 3.0),   # bucket +2
        MessageEvent("A", Side.SELL, 1004, "s3", 20.3, 2.0),   # clips into +2
    ]
    panel = build_panel(events, pi0=20.0, K=2, delta_p=0.1, session=(start, BAR_NS))
    assert panel.masses.shape == (5, 1)
    assert panel.pi[0] == 20.0                      # no trade: opening price holds
    # the edge (all buys; no sells in bucket -K), then buckets -1..2
    assert panel.masses[:, 0].tolist() == [9.0, 5.0, 0.0, 7.0, 5.0]
    assert panel.below_grid[0] == 4.0
    # conservation: buckets + clipped tails account for all resting quantity
    assert panel.masses[1:, 0].sum() + panel.below_grid[0] == 21.0


def test_panel_carries_book_across_empty_bars():
    events = [MessageEvent("A", Side.BUY, BAR_NS // 2, "b", 19.9, 5.0)]
    panel = build_panel(events, pi0=20.0, K=2, delta_p=0.1, session=(0, 4 * BAR_NS))
    assert panel.masses.shape == (5, 4)
    assert not panel.gap[0] and panel.gap[1:].all()
    assert np.all(panel.masses[1] == 5.0)

    # a leading gap takes the first snapshot; a bar closes at its end time
    events = [MessageEvent("A", Side.BUY, 2 * BAR_NS, "b", 19.9, 5.0),
              MessageEvent("A", Side.BUY, 3 * BAR_NS + 1, "c", 19.9, 2.0)]
    panel = build_panel(events, pi0=20.0, K=2, delta_p=0.1, session=(0, 5 * BAR_NS))
    assert panel.gap.tolist() == [True, False, True, False, True]
    assert panel.masses[1].tolist() == [5.0, 5.0, 5.0, 7.0, 7.0]


def test_panel_requires_some_events():
    with pytest.raises(FitError):
        build_panel([], pi0=20.0, K=2, delta_p=0.1, session=(0, 4 * BAR_NS))


@pytest.mark.parametrize("K", [2.0, 2.5, True])
def test_a_grid_size_that_is_not_an_int_is_rejected_by_name(K):
    events = [MessageEvent("A", Side.BUY, SESSION_START_NS, "b", 20.3, 5.0)]
    with pytest.raises(ConfigError) as panel:
        build_panel(events, pi0=20.0, K=K, delta_p=0.1)
    with pytest.raises(ConfigError) as fit:
        calibrate(format_log(events), pi0=20.0, K=K, delta_p=0.1)
    assert str(panel.value) == str(fit.value) == f"K must be an integer, got {K!r}"


@pytest.mark.parametrize("side, ticks, k", [
    (Side.SELL, 1, 0),      # offset +Δp/2: top of bucket 0
    (Side.BUY, -1, -1),     # offset -Δp/2: top of bucket -1
    (Side.SELL, -5, -3),    # offset -(K-1/2)Δp: bucket -K, netted out of the edge
])
def test_panel_puts_boundary_prices_in_the_bucket_below(side, ticks, k):
    """Bucket k is ((k-1/2)Δp, (k+1/2)Δp] at every clearing price, whatever
    float noise the tick prices carry (K = 3, Δp = 2 ticks of 0.01)."""
    K, dp, size = 3, 0.02, 2.0
    landed, edges = [], []
    for i in range(62):
        pi = round(20.00 + 0.01 * i, 2)
        order = MessageEvent("A", side, 1, "o", round(pi + 0.01 * ticks, 2), size)
        panel = build_panel([order], pi0=pi, K=K, delta_p=dp, session=(0, BAR_NS))
        masses = np.concatenate([panel.below_grid, panel.masses[1:, 0]])
        landed.append(int(np.flatnonzero(masses)[0]) - K)
        edges.append(panel.masses[0, 0])
    edge = size if side is Side.BUY else -size if k == -K else 0.0
    assert landed == [k] * 62
    assert edges == [edge] * 62


def _snapshot_oracle(book, K, delta_p):
    """The reference snapshot: a loop over ``resting_orders()``, a
    LimitOrder per resting order and the 9-decimal round on each."""
    pi = book.clearing_price
    masses = [0.0] * (2 * K + 1)
    edge = 0.0
    for order, remaining in book.resting_orders():
        k = max(-K, min(K, math.ceil(round((order.price - pi) / delta_p, 9) - 0.5)))
        masses[k + K] += remaining
        if order.side is Side.BUY:
            edge += remaining
        elif k == -K:
            edge -= remaining
    below_grid, masses[0] = masses[0], edge
    return pi, np.array(masses), below_grid


def _assert_snapshot_is_the_oracle(book, K, delta_p):
    pi, masses, below_grid = _snapshot(book, K, delta_p)
    want_pi, want_masses, want_below = _snapshot_oracle(book, K, delta_p)
    assert pi == want_pi and below_grid == want_below
    assert masses.dtype == want_masses.dtype and masses.tolist() == want_masses.tolist()


# distances from a bucket boundary, in buckets: at, within and just beyond
# the round's reach of 5e-10, inside the margin, and beyond it
_NEAR = [0.0, 1e-10, 4.9e-10, 5e-10, 5.1e-10, 1e-7, 2e-6]


@pytest.mark.parametrize("K", [1, 3, 7])
@pytest.mark.parametrize("eps", sorted({sign * e for e in _NEAR for sign in (1, -1)}))
def test_snapshot_buckets_by_the_rounded_rule_near_every_boundary(K, eps):
    """An order at a bucket boundary (j + 1/2)Δp, or eps buckets off it, lands
    where ceil(round(offset/Δp, 9) - 1/2) puts it, on both sides of the
    clearing price and beyond ±K, though the round is taken only near one."""
    dp = 0.05
    for pi in (1.0, 20.0, 20.16, 1234.5):
        for j in range(-K - 3, K + 3):
            price = pi + (j + 0.5 + eps) * dp
            for side in Side:
                book = OrderBook(pi)
                book.submit(LimitOrder("o", side, price, 1.5))
                _assert_snapshot_is_the_oracle(book, K, dp)


@pytest.mark.parametrize("K, dp", [(1, 0.01), (3, 0.02), (2, 0.05)])
def test_snapshot_buckets_tick_prices_by_the_rounded_rule(K, dp):
    """Tick prices at 62 clearing prices, built as
    ``test_panel_puts_boundary_prices_in_the_bucket_below`` builds them,
    whatever float noise they carry."""
    for i in range(62):
        pi = round(20.00 + 0.01 * i, 2)
        for ticks in range(-12, 13):
            for side in Side:
                book = OrderBook(pi)
                book.submit(LimitOrder("o", side, round(pi + 0.01 * ticks, 2), 2.0))
                _assert_snapshot_is_the_oracle(book, K, dp)


def _scripted_events():
    B, S = Side.BUY, Side.SELL
    script = [
        ("A", B, "b1", 20.30, 2.0), ("A", B, "b2", 20.30, 0.7),   # two at a level
        ("A", B, "b3", 20.25, 1.1), ("A", B, "b4", 19.60, 0.45),
        ("A", S, "s1", 20.30, 0.75),      # trades at 20.30; b1 keeps 1.25
        ("A", S, "s2", 20.05, 3.3),       # takes the buys down to 20.25; 0.25 rests
        ("A", S, "s3", 20.10, 0.6),
        ("A", S, "s4", 19.70, 1.3), ("A", S, "s5", 19.70, 0.2),   # 0.55 below pi
        ("M", S, "s3", 20.15, 0.6),
        ("A", B, "b5", 20.00, 1.0),       # takes 1.0 of s4
        ("D", S, "s5", 19.70, 0.2),
        ("A", B, "b6", 21.50, 1.5),       # takes every sell; 0.35 rests 1.35 above pi
        ("A", B, "b7", 21.20, 0.35), ("A", B, "b8", 21.20, 0.8),
        ("A", S, "s6", 21.60, 0.9), ("A", S, "s7", 22.00, 0.3),
    ]
    return [MessageEvent(t, side, n, oid, price, size)
            for n, (t, side, oid, price, size) in enumerate(script)]


def _random_events(seed, n=400):
    rng = random.Random(seed)
    events, live = [], []
    for n_msg in range(n):
        u = rng.random()
        if u < 0.7 or not live:
            oid = f"r{n_msg}"
            live.append(oid)
            t = "A"
        else:
            oid = live.pop(rng.randrange(len(live)))
            t = "D" if u < 0.9 else "M"
            if t == "M":
                live.append(oid)
        side = rng.choice([Side.BUY, Side.SELL])
        price = round(20.0 + 0.01 * rng.randint(-40, 40), 2)
        events.append(MessageEvent(t, side, 100 + n_msg, oid, price,
                                   round(rng.uniform(0.05, 3.0), 3)))
    return events


@pytest.mark.parametrize("K, delta_p", [(1, 0.05), (1, 0.01), (2, 0.02), (3, 0.1), (7, 0.05)])
def test_snapshot_is_the_per_order_loop_at_every_message(K, delta_p):
    """``_snapshot`` gives the bits of the per-order loop over
    ``resting_orders()`` after every message of a scripted and a random
    flow: several orders a level, partly filled makers, sells in bucket -K
    and buys above +K."""
    seen = set()

    def on_event(ev, book):
        _assert_snapshot_is_the_oracle(book, K, delta_p)
        pi = book.clearing_price
        records = list(book.records())
        for _, remaining, side, price, quantity in records:
            if remaining < quantity:
                seen.add("partly filled")
            if side is Side.SELL and price - pi < -(K - 0.5) * delta_p:
                seen.add("sell in -K")
            if side is Side.BUY and price - pi > (K + 0.5) * delta_p:
                seen.add("buy above +K")
        if len({r[3] for r in records}) < len(records):
            seen.add("shared level")

    replay(_scripted_events() + _random_events(seed=K), 20.0, on_event=on_event)
    assert seen == {"partly filled", "sell in -K", "buy above +K", "shared level"}


def test_synthetic_log_round_trip_is_exact():
    params = demo_params()
    n_bars = 50
    events = synthesize_log(params, n_bars, seed=3)
    text = format_log(events)

    parsed = parse_messages(text, strict=True)
    cleaned = clean(parsed.events, p_min=19.0, p_max=21.5)
    assert cleaned.retention == 1.0
    panel = build_panel(cleaned.events, pi0=params.pi0, K=params.K,
                        delta_p=params.delta_p,
                        session=(SESSION_START_NS, SESSION_START_NS + n_bars * BAR_NS))

    # replay the generating path independently, one step and one stream draw at a time
    book = init_ensemble(params)
    cfg = SheetConfig(2 * params.K, params.delta_p, seed=3)
    dt = 1 / 60
    plan = StepPlan(params, dt, 1, risk_neutral=False)
    for bar in range(n_bars):
        if bar > 0:
            step_ensemble(book, increments_block(cfg, dt, bar - 1, 1), plan)
        q = np.exp(book.log_q[:, 0])
        assert panel.pi[bar] == book.pi[0]
        assert np.array_equal(panel.masses[1:, bar], q)
        assert panel.masses[0, bar] == pytest.approx(math.exp(book.log_edge[0]), rel=1e-12)
        assert panel.below_grid[bar] == pytest.approx(0.5 * q[params.K - 1], rel=1e-12)
    assert not panel.gap.any()


def test_volatility_law_holds_on_the_replayed_panel():
    """The paper's law through the matching engine: each bar's squared
    de-trended price move, regressed through the origin on the σ_π² Δt that
    price_vol reads off the bar's starting book, has slope 1 within 3 SE.
    On the demo book σ_π spans only 0.040 to 0.047, so this pins the law's
    level, not its dependence on depth."""
    params = demo_params()
    n_bars = 2000
    text = format_log(synthesize_log(params, n_bars, seed=1))
    panel = build_panel(parse_messages(text, strict=True).events, pi0=params.pi0,
                        K=params.K, delta_p=params.delta_p,
                        session=(SESSION_START_NS, SESSION_START_NS + n_bars * BAR_NS))
    books = Ensemble(panel.delta_p, np.log(panel.masses), panel.pi, np.ones(n_bars, bool))
    x = price_vol(books, params).sigma_pi[:-1] ** 2 * BAR_HOURS
    y = (np.diff(panel.pi) - params.drift_c * BAR_HOURS) ** 2
    slope = x @ y / (x @ x)
    se = math.sqrt(np.sum((y - slope * x) ** 2) / (x.size - 1) / (x @ x))
    assert abs(slope - 1.0) <= 3.0 * se


def test_synthetic_log_of_zero_and_one_bars(monkeypatch):
    """No bars give no messages; one bar is the initial book and draws no step."""
    params = demo_params()
    K, dp, pi0 = params.K, params.delta_p, params.pi0
    book = init_ensemble(params)
    q = np.exp(book.log_q[:, 0])

    def no_draw(*args):
        raise AssertionError("a one-bar log drew sheet noise")

    monkeypatch.setattr("bookvol.sheet.increments_block", no_draw)
    assert synthesize_log(params, 0) == []
    events = synthesize_log(params, 1)
    assert [(ev.msg_type, ev.side, ev.price, ev.size) for ev in events[:2]] == [
        ("A", Side.SELL, pi0, 1.0), ("A", Side.BUY, pi0, 1.0)]
    buckets = events[2:2 + 2 * K]
    assert [ev.price for ev in buckets] == [pi0 + k * dp for k in range(-K + 1, K + 1)]
    assert [ev.size for ev in buckets] == q.tolist()
    assert [ev.side for ev in buckets] == [Side.BUY] * (K - 1) + [Side.SELL] * (K + 1)
    deep, = events[2 + 2 * K:]
    assert (deep.msg_type, deep.side, deep.price) == ("A", Side.BUY, pi0 - K * dp)
    assert deep.size == math.exp(book.log_edge[0]) - q[:K - 1].sum()
    assert {ev.timestamp // BAR_NS for ev in events} == {SESSION_START_NS // BAR_NS}


def _synthesis_oracle(params, n_bars, seed):
    """synthesize_log rebuilt from run_steps states one message at a time."""
    ens = init_ensemble(params, 1)
    steps = run_steps(params, ens, n_bars - 1, 1 / 60, seed, risk_neutral=False)
    K = params.K
    events, live = [], []
    for bar in range(n_bars):
        ts = SESSION_START_NS + bar * BAR_NS + 1_000_000
        if bar > 0:
            next(steps)

        def emit(msg_type, side, order_id, price, size):
            nonlocal ts
            events.append(MessageEvent(msg_type, side, ts, order_id, price, size))
            ts += 1_000_000

        for order_id, side, price, size in live:
            emit("D", side, order_id, price, size)
        live = []
        pi = float(ens.pi[0])
        emit("A", Side.SELL, f"x{bar}s", pi, 1.0)
        emit("A", Side.BUY, f"x{bar}b", pi, 1.0)
        q = np.exp(ens.log_q[:, 0])
        for j in range(2 * K):
            k = j - K + 1
            side = Side.BUY if k < 0 else Side.SELL
            price = pi + k * params.delta_p
            emit("A", side, f"q{bar}k{j}", price, float(q[j]))
            live.append((f"q{bar}k{j}", side, price, float(q[j])))
        deep = math.exp(ens.log_edge[0]) - float(q[: K - 1].sum())
        if deep > 0.0:
            price = pi - K * params.delta_p
            emit("A", Side.BUY, f"e{bar}", price, deep)
            live.append((f"e{bar}", Side.BUY, price, deep))
    return events


def _ground_truth_like():
    """K = 7, fast-reverting, quiet buy side, 0.4^|i-j| factor correlation."""
    K, dp = 7, 0.05
    n = 2 * K
    m = np.full(n, math.log(2e9))
    corr = 0.4 ** np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    vals, vecs = np.linalg.eigh(corr)
    q0 = np.exp(m)
    edge0 = q0[:K - 1].sum() + 0.5 * q0[K - 1]
    return ModelParams.create(
        K=K, delta_p=dp, pi0=20.16, q0=q0, a_q=np.linspace(30.0, 60.0, n), mean_logq=m,
        sigma_q_rel=np.where(np.arange(n) < K - 1, 0.005, np.linspace(0.10, 0.30, n)),
        loadings=(vecs * np.sqrt(vals)) @ vecs.T / math.sqrt(dp), edge0=edge0, a_edge=5.0,
        mean_log_edge=math.log(edge0), sigma_edge_rel=0.002,
        edge_loadings=np.full(n, 1.0 / math.sqrt(n * dp)))


def _thin_start_edge():
    """Demo parameters whose first bar has no deep buy: the edge starts below
    the buy masses, and the first step clears it back."""
    params = demo_params()
    return replace(params, edge0=0.9 * float(params.q0[:params.K - 1].sum()))


@pytest.mark.parametrize("params", [demo_params(), _ground_truth_like(), _thin_start_edge()],
                         ids=["demo", "ground-truth-like", "no-deep-buy"])
def test_synthesis_and_format_match_the_message_by_message_oracle(params):
    events = synthesize_log(params, 40, seed=4)
    expected = _synthesis_oracle(params, 40, seed=4)
    assert events == expected
    assert [[type(v) for v in ev] for ev in events] == \
        [[type(v) for v in ev] for ev in expected]
    assert all(type(ev) is MessageEvent for ev in events)
    assert format_log(events) == "\n".join(
        f"{ev.msg_type},{ev.side.value},{ev.timestamp},{ev.order_id},{ev.price!r},{ev.size!r}"
        for ev in expected) + "\n"


def test_synthetic_log_raises_when_its_path_aborts():
    """An edge reverting to a mean e^1000 above its start grows some e^4 in
    the first step, past the whole book: the top of the grid breaches, and
    the simulation loop reports it."""
    params = demo_params()
    params = replace(params, mean_log_edge=params.mean_log_edge + 1000.0)
    assert len(synthesize_log(params, 1)) == 2 + 2 * params.K + 1
    with pytest.raises(SimulationError) as info:
        synthesize_log(params, 2)
    assert type(info.value) is SimulationError
    assert str(info.value) == ("all 1 simulated paths aborted "
                               "(top 1, bottom 0, broken 0, singular 0)")


# ----------------------------------------------------------------------
# estimators

def test_ar1_recovers_known_parameters():
    a, mean, sigma, dt, n = 0.3, 5.0, 0.05, 1.0, 10_000
    phi = math.exp(-a * dt)
    noise_sd = sigma * math.sqrt((1 - phi**2) / (2 * a))
    rng = np.random.default_rng(42)
    x = np.empty(n)
    x[0] = mean
    for i in range(1, n):
        x[i] = mean + phi * (x[i - 1] - mean) + noise_sd * rng.standard_normal()
    fit = fit_ar1(x, dt)
    assert fit.a == pytest.approx(a, rel=0.05)
    assert fit.mean == pytest.approx(mean, abs=0.01)
    assert fit.sigma_rel == pytest.approx(sigma, rel=0.03)


def test_ar1_random_walk_limit():
    x = np.exp(np.linspace(0.0, 1.0, 200))          # slope above one
    fit = fit_ar1(x, 1.0)
    assert fit.a == 0.0
    assert fit.mean == pytest.approx(x.mean())


def test_ar1_error_paths():
    with pytest.raises(FitError):
        fit_ar1(np.ones(29), 1.0)
    with pytest.raises(FitError):
        fit_ar1(np.ones(100), 1.0)
    with pytest.raises(FitError):
        fit_ar1(np.linspace(0, 1, 100), 0.0)
    with pytest.raises(FitError):
        fit_ar1(np.concatenate([[np.nan], np.ones(99)]), 1.0)


def test_jarque_bera_moment_oracle():
    jb, p = jarque_bera_from_moments(390, -0.289841, 0.277282)
    assert jb == pytest.approx(390 / 6 * 0.289841**2 + 390 / 24 * 0.277282**2, rel=1e-12)
    assert jb == pytest.approx(6.709894, abs=1e-6)
    assert p == pytest.approx(math.exp(-jb / 2), rel=1e-12)
    assert 0.026 <= p <= 0.037

    assert jarque_bera_from_moments(1000, 0.0, 0.0) == (0.0, 1.0)


def test_jarque_bera_on_samples():
    rng = np.random.default_rng(1)
    _, p_normal = jarque_bera(rng.standard_normal(4000))
    assert p_normal > 0.01
    _, p_skewed = jarque_bera(rng.exponential(size=4000))
    assert p_skewed < 1e-8
    assert jarque_bera(np.full(100, 3.0)) == (0.0, 1.0)
    with pytest.raises(FitError):
        jarque_bera(np.ones(7))


def test_fit_drift_exact_on_linear_series():
    pi = 20.0 + 0.00037 * np.arange(400)
    assert fit_drift(pi) == pytest.approx(0.00037, rel=1e-9)
    assert fit_drift(np.full(50, 20.0)) == pytest.approx(0.0, abs=1e-12)


def test_summarize_by_hand():
    s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s.nobs, s.minimum, s.maximum) == (5, 1.0, 5.0)
    assert (s.q1, s.median, s.q3) == (2.0, 3.0, 4.0)
    assert s.mean == 3.0
    assert s.variance == pytest.approx(2.5)          # ddof = 1
    assert s.skewness == pytest.approx(0.0, abs=1e-12)
    assert s.kurtosis == pytest.approx(6.8 / 4.0 - 3.0)   # population moments
    assert s.se_mean == pytest.approx(math.sqrt(2.5 / 5))
    lo, hi = s.ci95
    assert lo < 3.0 < hi
    assert hi - lo == pytest.approx(2 * 1.959963984540054 * s.se_mean, rel=1e-15)
    assert "excess kurtosis" in s.to_text()


def test_summarize_constant_series():
    s = summarize(np.full(10, 7.0))
    assert s.skewness is None and s.kurtosis is None
    assert "missing" in s.to_text()


def _loadings_panel(n_bars=4000, K=3, delta_p=0.1, seed=9):
    n = 2 * K
    corr = 0.4 ** np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    chol = np.linalg.cholesky(corr)
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n_bars, n)) @ chol.T * 0.01
    logq = 10.0 + np.cumsum(d, axis=0)
    return PanelData(
        pi=np.full(n_bars, 20.0), masses=np.vstack([np.ones(n_bars), np.exp(logq.T)]),
        below_grid=np.zeros(n_bars), gap=np.zeros(n_bars, dtype=bool), delta_p=delta_p,
    ), corr


@pytest.mark.parametrize("zero, message", [
    ("bucket", "bucket k=-1 has non-positive values; cannot take logs"),
    ("edge", "edge series has non-positive values; cannot take logs"),
], ids=["bucket", "edge"])
def test_fit_report_names_the_first_row_it_cannot_log(zero, message):
    """The fits run over the rows edge, then buckets -K+1..K; the first row
    holding a non-positive value is named, so a zero edge is named before a
    zero bucket."""
    panel, _ = _loadings_panel(n_bars=200)
    panel.masses[2, 50] = 0.0               # bucket k = -1 of K = 3
    if zero == "edge":
        panel.masses[0, 120] = 0.0
    with pytest.raises(FitError) as exc:
        fit_report(panel)
    assert str(exc.value) == message


def test_fit_report_fits_each_row_alone():
    """The edge and every bucket get the fit_ar1 of their own log series."""
    panel, _ = _loadings_panel(n_bars=200)
    panel.masses[0] = np.exp(np.linspace(0.0, 1.0, 200) ** 2)
    fitted = fit_report(panel).params
    dt = 1.0 / 60.0
    assert (fitted.a_edge, fitted.mean_log_edge, fitted.sigma_edge_rel) == \
        fit_ar1(np.log(panel.masses[0]), dt)
    for j in range(len(panel.masses) - 1):
        assert (fitted.a_q[j], fitted.mean_logq[j], fitted.sigma_q_rel[j]) == \
            fit_ar1(np.log(panel.masses[j + 1]), dt)


@pytest.mark.parametrize("walk", [False, True], ids=["constant-pi", "walking-pi"])
def test_fit_report_jarque_bera_is_that_of_pi(walk):
    """fit_report takes the JB moments from its one summary of π: the same
    bits as jarque_bera(panel.pi), (0.0, 1.0) for a constant π."""
    panel, _ = _loadings_panel(n_bars=200)
    panel.masses[0] = np.exp(np.linspace(0.0, 1.0, 200) ** 2)
    if walk:
        panel.pi = 20.0 + np.cumsum(np.random.default_rng(4).standard_normal(200)) * 0.01
    report = fit_report(panel)
    assert (report.jb_stat, report.jb_pvalue) == jarque_bera(panel.pi)
    assert report.summary == summarize(panel.pi)
    assert ((report.jb_stat, report.jb_pvalue) == (0.0, 1.0)) is not walk


def test_fit_loadings_recovers_correlation():
    panel, corr = _loadings_panel()
    b = fit_loadings(np.log(panel.masses[1:]), panel.delta_p)
    assert np.allclose((b**2).sum(axis=1) * panel.delta_p, 1.0, rtol=1e-12)
    assert np.max(np.abs(b @ b.T * panel.delta_p - corr)) < 0.05


def test_fit_loadings_degenerate_panel_warns():
    panel, _ = _loadings_panel(n_bars=200)
    panel.masses[3] = 5.0                            # a constant bucket
    with pytest.warns(RuntimeWarning, match="rank-deficient"):
        b = fit_loadings(np.log(panel.masses[1:]), panel.delta_p)
    assert np.allclose(b, np.eye(6) / math.sqrt(panel.delta_p))


def test_fit_loadings_needs_enough_bars():
    panel, _ = _loadings_panel(n_bars=99)
    with pytest.raises(FitError):
        fit_loadings(np.log(panel.masses[1:]), panel.delta_p)


# ----------------------------------------------------------------------
# the full pipeline

def test_fit_report_and_model_params_hand_off():
    params = demo_params()
    n_bars = 120
    text = format_log(synthesize_log(params, n_bars, seed=5))
    report = calibrate(text, pi0=params.pi0, K=params.K, delta_p=params.delta_p,
                       p_min=19.0, p_max=21.5,
                       session=(SESSION_START_NS, SESSION_START_NS + n_bars * BAR_NS))
    fitted = report.params
    assert fitted.K == params.K
    fitted.validate()
    # the report's a, sigma_rel and loadings are read-only views of its params
    assert report.a is fitted.a_q and report.sigma_rel is fitted.sigma_q_rel
    assert report.loadings is fitted.loadings
    with pytest.raises(AttributeError):
        report.a = fitted.a_q.copy()
    assert np.allclose(fitted.q0, np.exp(fitted.mean_logq))
    assert fitted.drift_c == pytest.approx(report.drift_c * 60.0)
    # the fitted book must itself support simulation from a consistent state
    assert fitted.edge0 > 0


def test_calibrate_matches_manual_chain():
    params = demo_params()
    n_bars = 120
    text = format_log(synthesize_log(params, n_bars, seed=5))
    session = (SESSION_START_NS, SESSION_START_NS + n_bars * BAR_NS)

    auto = calibrate(text, pi0=params.pi0, K=params.K, delta_p=params.delta_p,
                     p_min=19.0, p_max=21.5, session=session)

    cleaned = clean(parse_messages(text).events, p_min=19.0, p_max=21.5,
                    session=session)
    panel = build_panel(cleaned.events, pi0=params.pi0,
                        K=params.K, delta_p=params.delta_p, session=session)
    manual = fit_report(panel)
    assert np.array_equal(auto.a, manual.a)
    assert auto.jb_stat == manual.jb_stat
    assert auto.params.pi0 == manual.params.pi0 == float(panel.pi[-1])
