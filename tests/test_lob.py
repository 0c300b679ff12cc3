"""Matching-engine tests: the worked single-auction example, exchange rules,
conservation invariants, and replay against a list-scan reference matcher."""

import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bookvol.errors import OrderError, UnknownOrderError
from bookvol.lob import (
    LimitOrder,
    MessageEvent,
    OrderBook,
    Side,
    Trade,
    replay,
)


def _order(oid, side, price, qty):
    return LimitOrder(oid, Side(side), price, qty)


# ----------------------------------------------------------------------
# the worked single-auction example

def _example_events():
    return [
        MessageEvent("A", Side.BUY, 34_200_000_000_000, "b1", 100.0, 10.0),
        MessageEvent("A", Side.SELL, 34_200_000_000_000, "s1", 120.0, 10.0),
        MessageEvent("A", Side.SELL, 34_200_000_000_000, "s2", 130.0, 10.0),
        MessageEvent("A", Side.BUY, 34_260_000_000_000, "b2", 125.0, 15.0),
    ]


def test_single_auction_example():
    result = replay(_example_events(), opening_price=110.0)

    assert len(result.trades) == 1
    trade = result.trades[0]
    assert (trade.price, trade.quantity) == (120.0, 10.0)
    assert (trade.maker_id, trade.taker_id) == ("s1", "b2")

    # the book after the auction, best price first
    assert result.book.book_table(Side.BUY) == {125.0: 5.0, 100.0: 10.0}
    assert result.book.book_table(Side.SELL) == {130.0: 10.0}
    assert result.book.clearing_price == 120.0


def test_single_auction_example_is_fast():
    events = _example_events()
    replay(events, opening_price=110.0)          # warm the code paths
    start = time.perf_counter()
    replay(events, opening_price=110.0)
    assert time.perf_counter() - start < 1e-3


@pytest.mark.parametrize("opening", [float("nan"), float("inf"), 0.0, -1.0])
def test_bad_opening_price_rejected(opening):
    with pytest.raises(OrderError, match="positive and finite"):
        OrderBook(opening)


def test_clearing_price_before_any_trade_is_opening():
    book = OrderBook(101.5)
    assert book.clearing_price == 101.5
    book.submit(_order("b", "B", 100.0, 5.0))
    assert book.clearing_price == 101.5          # no match, continuation holds


# ----------------------------------------------------------------------
# matching rules

def test_fill_executes_at_resting_price():
    book = OrderBook(100.0)
    book.submit(_order("s", "S", 101.0, 5.0))
    fills = book.submit(_order("b", "B", 103.0, 5.0))
    assert [(f.price, f.quantity) for f in fills] == [(101.0, 5.0)]


def test_time_priority_breaks_price_ties():
    book = OrderBook(100.0)
    book.submit(_order("s_first", "S", 101.0, 5.0))
    book.submit(_order("s_second", "S", 101.0, 5.0))
    fills = book.submit(_order("b", "B", 101.0, 5.0))
    assert [f.maker_id for f in fills] == ["s_first"]


def test_price_priority_beats_time():
    book = OrderBook(100.0)
    book.submit(_order("s_early_worse", "S", 102.0, 5.0))
    book.submit(_order("s_late_better", "S", 101.0, 5.0))
    fills = book.submit(_order("b", "B", 102.0, 10.0))
    assert [f.maker_id for f in fills] == ["s_late_better", "s_early_worse"]


def test_partial_fill_rests_remainder_at_own_limit():
    book = OrderBook(100.0)
    book.submit(_order("s", "S", 101.0, 4.0))
    book.submit(_order("b", "B", 105.0, 10.0))
    assert book.book_table(Side.BUY) == {105.0: 6.0}


def test_sweep_over_three_levels_leaves_one_maker_partly_filled():
    book = OrderBook(100.0)
    book.submit(_order("s1", "S", 101.0, 2.0))
    book.submit(_order("s2", "S", 101.0, 1.5))
    book.submit(_order("s3", "S", 102.0, 3.0))
    book.submit(_order("s4", "S", 103.0, 4.0))
    book.submit(_order("s5", "S", 103.0, 2.0))
    book.submit(_order("s6", "S", 104.0, 1.0))
    fills = book.submit(_order("b", "B", 103.0, 8.5))
    assert fills == [Trade(101.0, 2.0, "s1", "b"), Trade(101.0, 1.5, "s2", "b"),
                     Trade(102.0, 3.0, "s3", "b"), Trade(103.0, 2.0, "s4", "b")]
    assert all(type(t) is Trade for t in fills)
    assert book.clearing_price == 103.0
    assert book.book_table(Side.SELL) == {103.0: 4.0, 104.0: 1.0}   # s4 keeps 2 of 4
    assert book.book_table(Side.BUY) == {}
    assert [(o.order_id, rem) for o, rem in book.resting_orders()] == \
        [("s4", 2.0), ("s5", 2.0), ("s6", 1.0)]
    assert book._sells == [103.0, 104.0]


def test_incoming_never_matches_through_its_limit():
    book = OrderBook(100.0)
    book.submit(_order("s", "S", 103.0, 5.0))
    fills = book.submit(_order("b", "B", 102.0, 5.0))
    assert fills == []
    assert book.book_table(Side.BUY) == {102.0: 5.0}
    assert book.book_table(Side.SELL) == {103.0: 5.0}


def test_cancel_returns_remaining_quantity():
    book = OrderBook(100.0)
    book.submit(_order("s", "S", 101.0, 10.0))
    book.submit(_order("b", "B", 101.0, 3.0))
    assert book.cancel("s") == 7.0
    assert book.book_table(Side.SELL) == {}


def test_cancel_mid_level_then_fill_across_the_gap():
    # the cancel passes s1 by id; the resting order comes back as submitted
    book = OrderBook(100.0)
    for oid in ("s1", "s2", "s3"):
        book.submit(LimitOrder(oid, Side.SELL, 101.0, 4))
    assert book.cancel("s2") == 4.0
    fills = book.submit(LimitOrder("b", Side.BUY, 101.0, 6))
    assert fills == [Trade(101.0, 4.0, "s1", "b"), Trade(101.0, 2.0, "s3", "b")]
    [(order, rest)] = book.resting_orders()
    assert type(order) is LimitOrder
    assert order == LimitOrder("s3", Side.SELL, 101.0, 4)
    assert type(order.quantity) is int
    assert rest == 2.0
    assert book.book_table(Side.SELL) == {101.0: 2.0}


def test_records_are_the_resting_orders_oldest_first():
    # the live records: a partial fill shows in remaining, a modify moves its
    # record to the end, a cancel removes it
    events = [
        MessageEvent("A", Side.SELL, 1, "s1", 101.0, 4.0),
        MessageEvent("A", Side.SELL, 2, "s2", 101.0, 3.0),
        MessageEvent("A", Side.BUY, 3, "b1", 99.0, 5.0),
        MessageEvent("A", Side.BUY, 4, "b2", 101.0, 1.5),     # takes 1.5 of s1
    ]
    book = replay(events, opening_price=100.0).book
    records = book.records()
    assert [list(r) for r in records] == [
        ["s1", 2.5, Side.SELL, 101.0, 4.0],
        ["s2", 3.0, Side.SELL, 101.0, 3.0],
        ["b1", 5.0, Side.BUY, 99.0, 5.0],
    ]
    assert [(o.order_id, o.side, o.price, o.quantity, rem) for o, rem in book.resting_orders()] == \
        [(oid, side, price, qty, rem) for oid, rem, side, price, qty in records]

    book.submit(("b3", Side.BUY, 98.0, 2.0))
    assert [r[0] for r in records] == ["s1", "s2", "b1", "b3"]   # the view is live

    events += [MessageEvent("M", Side.SELL, 5, "s1", 102.0, 2.5),
               MessageEvent("D", Side.BUY, 6, "b1", 99.0, 5.0)]
    book = replay(events, opening_price=100.0).book
    assert [list(r) for r in book.records()] == [
        ["s2", 3.0, Side.SELL, 101.0, 3.0],
        ["s1", 2.5, Side.SELL, 102.0, 2.5],
    ]


def test_cancel_unknown_id_raises():
    book = OrderBook(100.0)
    with pytest.raises(UnknownOrderError):
        book.cancel("ghost")


def test_duplicate_id_rejected():
    book = OrderBook(100.0)
    book.submit(_order("x", "B", 99.0, 1.0))
    with pytest.raises(OrderError):
        book.submit(_order("x", "B", 98.0, 1.0))


def test_nonpositive_quantity_rejected():
    book = OrderBook(100.0)
    with pytest.raises(OrderError):
        book.submit(_order("z", "B", 99.0, 0.0))


@pytest.mark.parametrize("price, qty", [
    (float("nan"), 1.0),     # would rest under a nan price level
    (float("inf"), 1.0),
    (101.0, float("inf")),   # would sweep the asks and rest inf
    (101.0, float("nan")),
])
def test_non_finite_order_rejected(price, qty):
    book = OrderBook(100.0)
    book.submit(_order("s", "S", 101.0, 5.0))
    with pytest.raises(OrderError):
        book.submit(_order("b", "B", price, qty))
    assert book.book_table(Side.BUY) == {}
    assert book.book_table(Side.SELL) == {101.0: 5.0}


@pytest.mark.parametrize("side", ["B", "S", None, 1])
def test_order_whose_side_is_not_a_side_rejected(side):
    """A side given as its letter, or any other non-Side, is an OrderError
    naming the order, from submit and from replay alike; nothing rests.
    book_table names such a side rather than answering with the sell book."""
    book = OrderBook(20.0)
    with pytest.raises(OrderError, match="order 'b1': side must be a Side"):
        book.submit(LimitOrder("b1", side, 20.0, 1.0))
    assert book.resting_orders() == []
    with pytest.raises(OrderError, match="order 'x': side must be a Side"):
        replay([MessageEvent("A", side, 1, "x", 20.0, 1.0)], 20.0)
    book.submit(LimitOrder("b2", Side.BUY, 19.0, 1.0))
    book.submit(LimitOrder("s2", Side.SELL, 21.0, 2.0))
    with pytest.raises(OrderError, match=f"book side must be a Side, got {side!r}"):
        book.book_table(side)
    assert book.book_table(Side.BUY) == {19.0: 1.0}


# ----------------------------------------------------------------------
# replay semantics

def test_replay_modify_loses_time_priority():
    events = [
        MessageEvent("A", Side.SELL, 0, "s1", 101.0, 5.0),
        MessageEvent("A", Side.SELL, 1, "s2", 101.0, 5.0),
        MessageEvent("M", Side.SELL, 2, "s1", 101.0, 5.0),   # re-queued behind s2
        MessageEvent("A", Side.BUY, 3, "b", 101.0, 5.0),
    ]
    result = replay(events, opening_price=100.0)
    assert [t.maker_id for t in result.trades] == ["s2"]


def test_replay_counts_orphans():
    events = [
        MessageEvent("D", Side.BUY, 0, "never_added", 100.0, 1.0),
        MessageEvent("M", Side.BUY, 1, "also_unknown", 100.0, 1.0),
    ]
    result = replay(events, opening_price=100.0)
    assert result.orphan_deletes == 1
    assert result.orphan_modifies == 1
    # the orphan modify still lands in the book, as exchanges reconstruct it
    assert result.book.book_table(Side.BUY) == {100.0: 1.0}


def test_replay_records_clearing_series():
    result = replay(_example_events(), opening_price=110.0)
    assert result.clearing_prices == [(34_260_000_000_000, 120.0)]


# ----------------------------------------------------------------------
# conservation invariants

@st.composite
def _order_stream(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    orders = []
    for i in range(n):
        side = draw(st.sampled_from(["B", "S"]))
        price = draw(st.integers(min_value=95, max_value=105))
        qty = draw(st.integers(min_value=1, max_value=20))
        orders.append(_order(f"o{i}", side, float(price), float(qty)))
    return orders


@given(_order_stream())
@settings(max_examples=120, deadline=None)
def test_quantity_is_conserved(orders):
    book = OrderBook(100.0)
    traded = 0.0
    for order in orders:
        traded += sum(f.quantity for f in book.submit(order))
    resting = sum(rem for _, rem in book.resting_orders())
    submitted = sum(o.quantity for o in orders)
    # every submitted unit is either resting or was matched (once per side)
    assert resting + 2.0 * traded == pytest.approx(submitted)


@given(_order_stream())
@settings(max_examples=120, deadline=None)
def test_book_never_stays_crossed(orders):
    book = OrderBook(100.0)
    for order in orders:
        book.submit(order)
        buys = book.book_table(Side.BUY)
        sells = book.book_table(Side.SELL)
        if buys and sells:
            assert max(buys) < min(sells)


# ----------------------------------------------------------------------
# replay against a reference matcher

class _ListBook:
    """Reference matcher: every resting order in one list, oldest first.

    Each fill scans the whole list for the best crossing price; ``min``
    returns the first of equal prices, which is the oldest.
    """

    def __init__(self, opening_price):
        self.orders = []                 # [order_id, side, price, remaining]
        self.last_price = opening_price

    def cancel(self, order_id):
        for i, o in enumerate(self.orders):
            if o[0] == order_id:
                del self.orders[i]
                return True
        return False

    def submit(self, order_id, side, price, qty):
        buy = side is Side.BUY
        trades = []
        while qty > 0:
            crossing = [o for o in self.orders if o[1] is not side
                        and (o[2] <= price if buy else o[2] >= price)]
            if not crossing:
                break
            maker = min(crossing, key=lambda o: o[2] if buy else -o[2])
            fill = min(qty, maker[3])
            trades.append((maker[2], fill, maker[0], order_id))
            self.last_price = maker[2]
            qty -= fill
            maker[3] -= fill
            if maker[3] == 0:
                self.orders = [o for o in self.orders if o is not maker]
        if qty > 0:
            self.orders.append([order_id, side, price, qty])
        return trades

    def table(self, side):
        levels = {}
        for _, s, price, rem in self.orders:
            if s is side:
                levels[price] = levels.get(price, 0.0) + rem
        return dict(sorted(levels.items(), reverse=side is Side.BUY))


def _reference_replay(events, opening_price):
    book = _ListBook(opening_price)
    trades, clearing, orphans = [], [], [0, 0]
    for ev in events:
        fills = []
        if ev.msg_type in "DM" and not book.cancel(ev.order_id):
            orphans["DM".index(ev.msg_type)] += 1
        if ev.msg_type in "AM":
            fills = book.submit(ev.order_id, ev.side, ev.price, ev.size)
        if fills:
            trades += fills
            clearing.append((ev.timestamp, book.last_price))
    return book, trades, clearing, orphans


_WHOLE_LOTS = st.integers(min_value=1, max_value=6).map(float)
_EIGHTHS = st.integers(min_value=1, max_value=48).map(lambda n: n / 8)


@st.composite
def _message_stream(draw, sizes=_WHOLE_LOTS):
    """Adds, deletes and modifies over five ticks, with some orphans."""
    n = draw(st.integers(min_value=1, max_value=40))
    known = {}                                     # order id -> (side, price)
    events = []
    for i in range(n):
        kind = draw(st.sampled_from("AAADDM"))
        if kind == "A" or not known:
            kind, order_id = "A", f"o{i}"
        else:
            order_id = draw(st.sampled_from(sorted(known) + ["ghost"]))
        side, price = known.get(order_id, (None, None))
        if side is None:
            side = draw(st.sampled_from([Side.BUY, Side.SELL]))
        if price is None or draw(st.booleans()):   # a modify may keep its price
            price = float(draw(st.integers(min_value=98, max_value=102)))
        size = draw(sizes)
        if kind != "D":
            known[order_id] = (side, price)
        events.append(MessageEvent(kind, side, i, order_id, price, size))
    return events


_STALE_LEVEL = [
    MessageEvent("A", Side.SELL, 0, "s1", 101.0, 2.0),
    MessageEvent("A", Side.SELL, 1, "s2", 102.0, 2.0),
    MessageEvent("A", Side.SELL, 2, "s3", 101.0, 2.0),
    MessageEvent("A", Side.SELL, 3, "s4", 101.0, 2.0),
    MessageEvent("D", Side.SELL, 4, "s3", 101.0, 2.0),   # middle of the 101 level
    MessageEvent("D", Side.SELL, 5, "s4", 101.0, 2.0),   # back
    MessageEvent("D", Side.SELL, 6, "s1", 101.0, 2.0),   # 101 empties, its key leaves the index
    MessageEvent("A", Side.SELL, 7, "s5", 101.0, 1.0),   # and comes back with the level
    MessageEvent("A", Side.SELL, 8, "s6", 101.0, 1.0),
    MessageEvent("M", Side.SELL, 9, "s5", 101.0, 1.0),   # same price, now behind s6
    MessageEvent("A", Side.BUY, 10, "b1", 102.0, 4.0),   # takes s6, s5, then s2
    MessageEvent("D", Side.BUY, 11, "b1", 102.0, 4.0),   # orphan: b1 filled in full
    MessageEvent("M", Side.BUY, 12, "b9", 99.0, 1.0),    # orphan modify rests b9
]


# Sizes in eighths; b1 takes s1 and s2 whole, exactly exhausting itself on
# s2, then b2 ends on s3 exactly and b3 leaves s4 part-filled.
_EXACT_TIES = [
    MessageEvent("A", Side.SELL, 0, "s1", 101.0, 0.375),
    MessageEvent("A", Side.SELL, 1, "s2", 101.0, 1.125),
    MessageEvent("A", Side.SELL, 2, "s3", 102.0, 0.625),
    MessageEvent("A", Side.SELL, 3, "s4", 102.0, 2.5),
    MessageEvent("A", Side.BUY, 4, "b1", 101.0, 1.5),
    MessageEvent("A", Side.BUY, 5, "b2", 102.0, 0.625),
    MessageEvent("A", Side.BUY, 6, "b3", 102.0, 0.875),
    MessageEvent("M", Side.SELL, 7, "s4", 100.0, 1.625),   # crosses nothing, rests
    MessageEvent("A", Side.BUY, 8, "b4", 100.0, 1.625),    # exhausts s4 exactly
]


@given(_message_stream())
@example(_STALE_LEVEL)
@settings(max_examples=200, deadline=None)
def test_replay_matches_reference_matcher(events):
    _assert_replay_matches_reference(events)


@given(_message_stream(sizes=_EIGHTHS))
@example(_EXACT_TIES)
@settings(max_examples=200, deadline=None)
def test_replay_matches_reference_matcher_in_eighths(events):
    """Fractional sizes, exact in binary, so a fill that exhausts a maker
    or the order to the last eighth leaves nothing behind in either book."""
    _assert_replay_matches_reference(events)


def _assert_replay_matches_reference(events):
    result = replay(events, opening_price=100.0)
    book, trades, clearing, orphans = _reference_replay(events, 100.0)

    assert [(t.price, t.quantity, t.maker_id, t.taker_id) for t in result.trades] == trades
    assert result.clearing_prices == clearing
    assert [result.orphan_deletes, result.orphan_modifies] == orphans
    for side in Side:
        # items, not dicts: dict == ignores the best-first order replay prints
        assert list(result.book.book_table(side).items()) == list(book.table(side).items())
    # the index holds exactly one key per live level
    assert result.book._sells == sorted(result.book._sell_levels)
    assert result.book._buys == sorted(-p for p in result.book._buy_levels)
    assert [(o.order_id, rem) for o, rem in result.book.resting_orders()] == \
        [(o[0], o[3]) for o in book.orders]
    assert all(type(t) is Trade for t in result.trades)
    assert all(type(o) is LimitOrder for o, _ in result.book.resting_orders())
