"""Limit order book with price-time priority matching.

The book keeps unmatched buy and sell limit orders until they are cancelled
or matched against an incoming order.  Matching follows exchange rules:

* an incoming order is matched against the best-priced resting order on the
  opposite side; ties at a price are resolved by time priority;
* every fill executes at the *resting* order's limit price, never the
  incoming order's;
* partial execution is allowed, and any unfilled remainder rests in the book
  at the incoming order's own limit price;
* the clearing price is the price of the last trade and is defined by
  continuation: before any trade it equals the opening price.

Quantities are strictly positive and order ids unique; violations raise
instead of corrupting the book.  The module also provides the message-event
record used for replaying exchange logs and a net-demand sampler used by the
curve model and the calibration pipeline.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum

from .errors import OrderError, UnknownOrderError


class Side(Enum):
    BUY = "B"
    SELL = "S"


class OrderClass(Enum):
    """Definition of an incoming order relative to the current clearing price."""

    CROSS = "cross"      # buy above / sell below the clearing price (strict)
    UNCROSS = "uncross"


@dataclass(frozen=True)
class LimitOrder:
    order_id: str
    side: Side
    price: float
    quantity: float


@dataclass(frozen=True)
class Trade:
    price: float          # resting (maker) order's limit price
    quantity: float
    maker_id: str
    taker_id: str


@dataclass(frozen=True)
class MessageEvent:
    """One line of an exchange message log.

    ``msg_type`` is ``"A"`` (add), ``"M"`` (modify) or ``"D"`` (delete);
    ``timestamp`` is in nanoseconds since midnight.
    """

    msg_type: str
    side: Side
    timestamp: int
    order_id: str
    price: float
    size: float


@dataclass
class _Resting:
    order: LimitOrder
    remaining: float
    seq: int


class OrderBook:
    """Price-time priority book with lazily cleaned heaps.

    Buy orders are kept in a max-heap on price, sells in a min-heap; entries
    are tombstoned on cancel/fill and skipped when they surface.  ``seq``
    numbers assigned at submission implement time priority and make replay
    fully deterministic.
    """

    def __init__(self, opening_price: float):
        if opening_price <= 0:
            raise OrderError(f"opening price must be positive, got {opening_price}")
        self.opening_price = opening_price
        self.last_trade_price: float | None = None
        self._resting: dict[str, _Resting] = {}
        self._buys: list[tuple[float, int, str]] = []   # (-price, seq, id)
        self._sells: list[tuple[float, int, str]] = []  # (price, seq, id)
        self._seq = 0

    # ------------------------------------------------------------------
    # inspection

    @property
    def clearing_price(self) -> float:
        """Last trade price, or the opening price before any trade."""
        return self.opening_price if self.last_trade_price is None else self.last_trade_price

    def classify(self, order: LimitOrder) -> OrderClass:
        """Cross/uncross classification against the pre-submission price."""
        pi = self.clearing_price
        if order.side is Side.BUY and order.price > pi:
            return OrderClass.CROSS
        if order.side is Side.SELL and order.price < pi:
            return OrderClass.CROSS
        return OrderClass.UNCROSS

    def resting_orders(self) -> list[tuple[LimitOrder, float]]:
        """All resting orders with their remaining quantities."""
        return [(r.order, r.remaining) for r in self._resting.values()]

    def book_table(self, side: Side) -> dict[float, float]:
        """Aggregate resting quantity by price level, best price first."""
        levels: dict[float, float] = {}
        for r in self._resting.values():
            if r.order.side is side:
                levels[r.order.price] = levels.get(r.order.price, 0.0) + r.remaining
        reverse = side is Side.BUY
        return dict(sorted(levels.items(), reverse=reverse))

    def net_demand(self, price: float) -> float:
        """Resting buy quantity with limit >= price minus sell quantity with limit <= price."""
        total = 0.0
        for r in self._resting.values():
            if r.order.side is Side.BUY and r.order.price >= price:
                total += r.remaining
            elif r.order.side is Side.SELL and r.order.price <= price:
                total -= r.remaining
        return total

    # ------------------------------------------------------------------
    # mutation

    def submit(self, order: LimitOrder) -> list[Trade]:
        """Match an incoming order, rest any remainder, return the fills."""
        if order.quantity <= 0:
            raise OrderError(f"order {order.order_id!r}: quantity must be positive")
        if order.price <= 0:
            raise OrderError(f"order {order.order_id!r}: price must be positive")
        if order.order_id in self._resting:
            raise OrderError(f"duplicate order id {order.order_id!r}")

        remaining = float(order.quantity)
        trades: list[Trade] = []
        book, crosses = (
            (self._sells, lambda best: best <= order.price)
            if order.side is Side.BUY
            else (self._buys, lambda best: -best >= order.price)
        )
        while remaining > 0 and book:
            key, seq, maker_id = book[0]
            maker = self._resting.get(maker_id)
            if maker is None or maker.seq != seq:
                heapq.heappop(book)  # tombstone
                continue
            if not crosses(key):
                break
            qty = min(remaining, maker.remaining)
            trades.append(Trade(maker.order.price, qty, maker_id, order.order_id))
            self.last_trade_price = maker.order.price
            remaining -= qty
            maker.remaining -= qty
            if maker.remaining <= 0:
                heapq.heappop(book)
                del self._resting[maker_id]

        if remaining > 0:
            self._seq += 1
            rest = _Resting(order, remaining, self._seq)
            self._resting[order.order_id] = rest
            if order.side is Side.BUY:
                heapq.heappush(self._buys, (-order.price, rest.seq, order.order_id))
            else:
                heapq.heappush(self._sells, (order.price, rest.seq, order.order_id))
        return trades

    def cancel(self, order_id: str) -> float:
        """Remove a resting order; returns the quantity removed."""
        rest = self._resting.pop(order_id, None)
        if rest is None:
            raise UnknownOrderError(f"no resting order with id {order_id!r}")
        return rest.remaining  # heap entry becomes a tombstone


@dataclass
class ReplayResult:
    book: OrderBook
    trades: list[Trade]
    clearing_prices: list[tuple[int, float]] = field(default_factory=list)
    orphan_deletes: int = 0
    orphan_modifies: int = 0


def replay(
    events: list[MessageEvent],
    opening_price: float,
    on_event=None,
) -> ReplayResult:
    """Replay a message log through a fresh book.

    Adds submit, deletes cancel, and modifies cancel-and-resubmit (the
    modified order loses its time priority).  Deletes or modifies of unknown
    ids are counted as orphans and skipped/added respectively.  ``on_event``
    is called as ``on_event(event, book)`` after each message, which is how
    the calibration pipeline takes bar snapshots.
    """
    book = OrderBook(opening_price)
    result = ReplayResult(book=book, trades=[])
    for ev in events:
        if ev.msg_type == "A":
            fills = book.submit(LimitOrder(ev.order_id, ev.side, ev.price, ev.size))
        elif ev.msg_type == "D":
            fills = []
            try:
                book.cancel(ev.order_id)
            except UnknownOrderError:
                result.orphan_deletes += 1
        elif ev.msg_type == "M":
            fills = []
            try:
                book.cancel(ev.order_id)
            except UnknownOrderError:
                result.orphan_modifies += 1
            fills = book.submit(LimitOrder(ev.order_id, ev.side, ev.price, ev.size))
        else:
            raise OrderError(f"unknown message type {ev.msg_type!r}")
        if fills:
            result.trades.extend(fills)
            result.clearing_prices.append((ev.timestamp, book.clearing_price))
        if on_event is not None:
            on_event(ev, book)
    return result
