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

Each side keeps one FIFO queue of resting orders per price level and one
heap entry per level (see ``OrderBook``).  Prices and quantities must be
positive and finite and order ids unique; violations raise instead of
corrupting the book.  The module also provides the message-event record
used for replaying exchange logs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from heapq import heappop, heappush
from operator import add
from typing import NamedTuple

from .errors import OrderError, UnknownOrderError


class Side(Enum):
    BUY = "B"
    SELL = "S"


_BUY = Side.BUY  # a module global reads faster than the enum attribute


class LimitOrder(NamedTuple):
    order_id: str
    side: Side
    price: float
    quantity: float


class Trade(NamedTuple):
    price: float          # resting (maker) order's limit price
    quantity: float
    maker_id: str
    taker_id: str


class MessageEvent(NamedTuple):
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


# eq=False: cancels find their record in a level with deque.remove, which
# must compare by identity, not field by field.
@dataclass(eq=False, slots=True)
class _Resting:
    order: LimitOrder
    remaining: float


class OrderBook:
    """Price-time priority book over FIFO price levels.

    Each side maps a price to a deque of resting records in submission order,
    and keeps a heap with one entry per level: prices for sells, negated
    prices for buys, so the top is the best level.  A cancel removes its
    record from its level and an emptied level is deleted; a heap price whose
    level is gone is skipped and dropped when it reaches the top.
    """

    def __init__(self, opening_price: float):
        if opening_price <= 0:
            raise OrderError(f"opening price must be positive, got {opening_price}")
        self.opening_price = opening_price
        self.last_trade_price: float | None = None
        self._resting: dict[str, _Resting] = {}
        self._buy_levels: dict[float, deque[_Resting]] = {}
        self._sell_levels: dict[float, deque[_Resting]] = {}
        self._buys: list[float] = []    # -price of each buy level
        self._sells: list[float] = []   # price of each sell level

    # ------------------------------------------------------------------
    # inspection

    @property
    def clearing_price(self) -> float:
        """Last trade price, or the opening price before any trade."""
        return self.opening_price if self.last_trade_price is None else self.last_trade_price

    def resting_orders(self) -> list[tuple[LimitOrder, float]]:
        """All resting orders with their remaining quantities, oldest first."""
        return [(r.order, r.remaining) for r in self._resting.values()]

    def book_table(self, side: Side) -> dict[float, float]:
        """Aggregate resting quantity by price level, best price first."""
        levels = self._buy_levels if side is _BUY else self._sell_levels
        # reduce, not sum: from Python 3.12 sum() compensates float rounding
        return {price: reduce(add, [r.remaining for r in levels[price]])
                for price in sorted(levels, reverse=side is _BUY)}

    # ------------------------------------------------------------------
    # mutation

    def submit(self, order: LimitOrder) -> list[Trade]:
        """Match an incoming order, rest any remainder, return the fills."""
        order_id, side, price, quantity = order
        if not 0 < quantity < math.inf:
            raise OrderError(f"order {order_id!r}: quantity must be positive and finite")
        if not 0 < price < math.inf:
            raise OrderError(f"order {order_id!r}: price must be positive and finite")
        resting = self._resting
        if order_id in resting:
            raise OrderError(f"duplicate order id {order_id!r}")

        remaining = float(quantity)
        trades: list[Trade] = []
        if side is _BUY:
            heap, levels, sign, own_heap, own_levels = (
                self._sells, self._sell_levels, 1.0, self._buys, self._buy_levels)
        else:
            heap, levels, sign, own_heap, own_levels = (
                self._buys, self._buy_levels, -1.0, self._sells, self._sell_levels)
        # heap keys are prices on the sell side and -price on the buy side;
        # ``sign`` turns an opposite-side key back into its price
        limit = sign * price
        while remaining > 0 and heap:
            key = heap[0]
            queue = levels.get(sign * key)
            if queue is None:
                heappop(heap)  # level emptied by cancels
                continue
            if key > limit:
                break
            while remaining > 0 and queue:
                maker = queue[0]
                maker_id, _, maker_price, _ = maker.order
                qty = maker.remaining if maker.remaining < remaining else remaining
                trades.append(Trade(maker_price, qty, maker_id, order_id))
                remaining -= qty
                maker.remaining -= qty
                if maker.remaining <= 0:
                    queue.popleft()
                    del resting[maker_id]
            self.last_trade_price = maker_price
            if not queue:
                heappop(heap)
                del levels[sign * key]

        if remaining > 0:
            rest = resting[order_id] = _Resting(order, remaining)
            queue = own_levels.get(price)
            if queue is None:
                own_levels[price] = deque((rest,))
                heappush(own_heap, -limit)
            else:
                queue.append(rest)
        return trades

    def cancel(self, order_id: str) -> float:
        """Remove a resting order; returns the quantity removed."""
        rest = self._resting.pop(order_id, None)
        if rest is None:
            raise UnknownOrderError(f"no resting order with id {order_id!r}")
        order = rest.order
        levels = self._buy_levels if order.side is _BUY else self._sell_levels
        queue = levels[order.price]
        queue.remove(rest)
        if not queue:
            del levels[order.price]  # its heap price goes stale
        return rest.remaining


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
    submit, cancel = book.submit, book.cancel
    result = ReplayResult(book=book, trades=[])
    for ev in events:
        msg_type, side, timestamp, order_id, price, size = ev
        if msg_type == "A":
            fills = submit(LimitOrder(order_id, side, price, size))
        elif msg_type == "D":
            fills = None
            try:
                cancel(order_id)
            except UnknownOrderError:
                result.orphan_deletes += 1
        elif msg_type == "M":
            try:
                cancel(order_id)
            except UnknownOrderError:
                result.orphan_modifies += 1
            fills = submit(LimitOrder(order_id, side, price, size))
        else:
            raise OrderError(f"unknown message type {msg_type!r}")
        if fills:
            result.trades.extend(fills)
            result.clearing_prices.append((timestamp, book.last_trade_price))
        if on_event is not None:
            on_event(ev, book)
    return result
