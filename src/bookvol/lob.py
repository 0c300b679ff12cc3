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

Each side keeps one FIFO queue of resting orders per price level and a
sorted index with one key per live level.  A resting order is one list,
``[order_id, remaining, side, price, quantity]``, id first so that a cancel
passes each other record with one string comparison (see ``OrderBook``);
``OrderBook.records()`` is the read-only view of them, oldest first.
Prices and quantities must be positive and finite and order ids unique;
violations raise instead of corrupting the book.  The module also provides
the message-event record of exchange logs and ``replay``, which runs a log
through a fresh book and hands the book to a callback at given message
counts (the bar closes of the calibration panel), not after every message.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from collections.abc import Callable, Sequence, ValuesView
from dataclasses import dataclass, field
from enum import Enum
from functools import partial, reduce
from operator import add
from typing import NamedTuple

from .errors import OrderError, UnknownOrderError


class Side(Enum):
    BUY = "B"
    SELL = "S"


_BUY, _SELL = Side.BUY, Side.SELL  # module globals read faster than enum attributes


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


# Positional constructors for the hot paths: they skip the named tuple's
# keyword-handling __new__.
_trade = partial(tuple.__new__, Trade)
_order = partial(tuple.__new__, LimitOrder)


class OrderBook:
    """Price-time priority book over FIFO price levels.

    Each side maps a price to a deque of resting records in submission order,
    and keeps an ascending list with one key per live level: prices for
    sells, negated prices for buys, so index 0 is the best level.  A level
    and its key are created and deleted together.  A record is the list
    ``[order_id, remaining, side, price, quantity]``, id first: ``cancel``'s
    ``deque.remove`` compares lists item by item, so with ids unique among
    live orders each other record it passes costs one string comparison.
    ``records()`` is the live view of these records, oldest first, for
    readers such as the bar panel that need no ``LimitOrder``.
    """

    def __init__(self, opening_price: float):
        if not 0 < opening_price < math.inf:
            raise OrderError(f"opening price must be positive and finite, got {opening_price}")
        self.opening_price = opening_price
        self.last_trade_price: float | None = None
        self._resting: dict[str, list] = {}
        self._buy_levels: dict[float, deque[list]] = {}
        self._sell_levels: dict[float, deque[list]] = {}
        self._buys: list[float] = []    # -price of each buy level
        self._sells: list[float] = []   # price of each sell level
        # each side's view for submit, cancel and book_table: the opposite
        # side's keys and levels, the sign that turns one of its keys into a
        # price (and one of the own side's into -price), then the own side
        self._for_buy = (self._sells, self._sell_levels, 1.0, self._buys, self._buy_levels)
        self._for_sell = (self._buys, self._buy_levels, -1.0, self._sells, self._sell_levels)

    # ------------------------------------------------------------------
    # inspection

    @property
    def clearing_price(self) -> float:
        """Last trade price, or the opening price before any trade."""
        return self.opening_price if self.last_trade_price is None else self.last_trade_price

    def records(self) -> ValuesView[list]:
        """Live view of the resting records ``[order_id, remaining, side,
        price, quantity]``, oldest first (a modified order counts from its
        resubmission).  The lists are the book's own: read, never write."""
        return self._resting.values()

    def resting_orders(self) -> list[tuple[LimitOrder, float]]:
        """All resting orders with their remaining quantities, oldest first;
        the ``LimitOrder``s are built from the stored fields on each call."""
        return [(_order((order_id, side, price, quantity)), remaining)
                for order_id, remaining, side, price, quantity in self.records()]

    def book_table(self, side: Side) -> dict[float, float]:
        """Aggregate resting quantity by price level, best price first."""
        if side is not _BUY and side is not _SELL:
            raise OrderError(f"book side must be a Side, got {side!r}")
        _, _, sign, keys, levels = self._for_buy if side is _BUY else self._for_sell
        prices = [-sign * key for key in keys]
        # reduce, not sum: from Python 3.12 sum() compensates float rounding
        return {price: reduce(add, [r[1] for r in levels[price]]) for price in prices}

    # ------------------------------------------------------------------
    # mutation

    def submit(self, order: LimitOrder) -> list[Trade]:
        """Match any ``(order_id, side, price, quantity)`` sequence (a ``LimitOrder``,
        or the plain tuple ``replay`` passes), rest any remainder, return the fills."""
        order_id, side, price, quantity = order
        if not 0 < quantity < math.inf:
            raise OrderError(f"order {order_id!r}: quantity must be positive and finite")
        if not 0 < price < math.inf:
            raise OrderError(f"order {order_id!r}: price must be positive and finite")
        if side is _BUY:
            keys, levels, sign, own_keys, own_levels = self._for_buy
        elif side is _SELL:
            keys, levels, sign, own_keys, own_levels = self._for_sell
        else:
            raise OrderError(f"order {order_id!r}: side must be a Side, got {side!r}")
        resting = self._resting
        if order_id in resting:
            raise OrderError(f"duplicate order id {order_id!r}")

        remaining = float(quantity)
        trades: list[Trade] = []
        limit = sign * price
        while keys:
            key = keys[0]
            if key > limit:
                break
            queue = levels[sign * key]
            while queue:
                maker = queue[0]
                maker_id, have, _, maker_price, _ = maker
                if have > remaining:              # the maker outlasts the order
                    maker[1] = have - remaining
                    trades.append(_trade((maker_price, remaining, maker_id, order_id)))
                    remaining = 0.0
                    break
                trades.append(_trade((maker_price, have, maker_id, order_id)))
                remaining -= have
                queue.popleft()
                del resting[maker_id]
                if remaining <= 0:
                    break
            self.last_trade_price = maker_price
            if not queue:
                del keys[0]
                del levels[maker_price]
            if remaining <= 0:
                break

        if remaining > 0:
            rest = resting[order_id] = [order_id, remaining, side, price, quantity]
            queue = own_levels.get(price)
            if queue is None:
                own_levels[price] = deque((rest,))
                insort(own_keys, -limit)
            else:
                queue.append(rest)
        return trades

    def cancel(self, order_id: str) -> float:
        """Remove a resting order; returns the quantity removed."""
        rest = self._resting.pop(order_id, None)
        if rest is None:
            raise UnknownOrderError(f"no resting order with id {order_id!r}")
        _, remaining, side, price, _ = rest
        _, _, sign, keys, levels = self._for_buy if side is _BUY else self._for_sell
        queue = levels[price]
        queue.remove(rest)
        if not queue:
            del levels[price]
            del keys[bisect_left(keys, -sign * price)]
        return remaining


@dataclass
class ReplayResult:
    book: OrderBook
    trades: list[Trade]
    clearing_prices: list[tuple[int, float]] = field(default_factory=list)
    orphan_deletes: int = 0
    orphan_modifies: int = 0


def replay(
    events: Sequence[MessageEvent],
    opening_price: float,
    closes: Sequence[int] = (),
    on_close: Callable[[OrderBook], object] | None = None,
) -> ReplayResult:
    """Replay a message log through a fresh book.

    Adds submit, deletes cancel, and modifies cancel-and-resubmit (the
    modified order loses its time priority).  Deletes or modifies of unknown
    ids are counted as orphans and skipped/added respectively.
    ``on_close(book)`` is called once after the ``closes[i]``-th message for
    each i, which is how the calibration pipeline takes bar snapshots; the
    messages between two closes run in one loop with no call.  ``closes``
    must rise strictly within 1..len(events), and needs an ``on_close``;
    otherwise it is a ValueError, raised before any message is replayed.
    """
    n = len(events)
    bounds = [0, *closes, n]
    for i in range(1, len(bounds) - 1):
        if not bounds[i - 1] < bounds[i] <= n:
            raise ValueError(f"closes must rise strictly within 1..{n}, "
                             f"got closes[{i - 1}] = {bounds[i]} after {bounds[i - 1]}")
    if len(bounds) > 2 and on_close is None:
        raise ValueError("closes need an on_close to call")
    book = OrderBook(opening_price)
    submit, cancel = book.submit, book.cancel
    result = ReplayResult(book=book, trades=[])
    add_fills, add_price = result.trades.extend, result.clearing_prices.append
    # one slice per close; with no closes the log runs as it is, uncopied
    segments = (events[start:stop] for start, stop in zip(bounds, bounds[1:])) \
        if len(bounds) > 2 else (events,)
    for i, segment in enumerate(segments):
        if i:                           # the book after the closes[i - 1]-th message
            on_close(book)
        for msg_type, side, timestamp, order_id, price, size in segment:
            if msg_type == "A":
                fills = submit((order_id, side, price, size))
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
                fills = submit((order_id, side, price, size))
            else:
                raise OrderError(f"unknown message type {msg_type!r}")
            if fills:
                add_fills(fills)
                add_price((timestamp, book.last_trade_price))
    return result
