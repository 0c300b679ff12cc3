"""Seeded order flow for the ``match`` workload, with an independent reference matcher.

The stream is built message by message against ``ReferenceBook``, a
price-level matcher that shares no code with ``bookvol.lob``.  Knowing the
reference book while generating keeps every delete and modify aimed at a
resting order (no orphans, no rejected orders), and the reference's trade
tape, final book and cancelled quantity become the expected outputs that
the program's replay is checked against.

Prices are integer ticks of 0.01, converted to floats only by ``price``,
and sizes are whole lots, so quantity arithmetic is exact in both
implementations.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

START_NS = 34_200_000_000_000
MSG_GAP_NS = 1_000
OPEN_TICK = 10_000            # opening price 100.00

# Message mix.  A quarter of the adds are marketable: they reach up to
# SWEEP_DEPTH ticks past the far side's best and take what rests there.
# The other adds, and every modify, rest a few ticks off the drifting mid.
TARGET_LIVE = 400             # delete probability is P_DELETE at this book size
P_DELETE = 0.25
P_MODIFY = 0.15
P_MARKETABLE = 0.25
P_MID_MOVE = 0.10
PASSIVE_DEPTH = 10            # passive orders rest 1..10 ticks from mid
SWEEP_DEPTH = 3               # marketable orders reach 0..3 ticks past the far best
PASSIVE_LOTS = (1, 4)
SWEEP_LOTS = (4, 16)

BUY, SELL = "B", "S"


def price(tick: int) -> float:
    """The float price the program sees for an integer tick of 0.01."""
    return tick / 100


class ReferenceBook:
    """Price-time priority book over integer ticks, one FIFO dict per level."""

    def __init__(self):
        self.levels = {BUY: {}, SELL: {}}     # tick -> {order_id: remaining}
        self.heaps = {BUY: [], SELL: []}      # -tick for buys, tick for sells
        self.orders = {}                      # order_id -> (side, tick)

    def best(self, side):
        heap, levels = self.heaps[side], self.levels[side]
        while heap:
            tick = -heap[0] if side == BUY else heap[0]
            if tick in levels:
                return tick
            heapq.heappop(heap)
        return None

    def crossed(self) -> bool:
        bid, ask = self.best(BUY), self.best(SELL)
        return bid is not None and ask is not None and bid >= ask

    def submit(self, order_id, side, tick, qty):
        """Match, rest the remainder; return fills as (maker_id, tick, qty)."""
        opp = SELL if side == BUY else BUY
        fills = []
        while qty > 0:
            best = self.best(opp)
            if best is None or (best > tick if side == BUY else best < tick):
                break
            level = self.levels[opp][best]
            maker, rem = next(iter(level.items()))
            fill = min(qty, rem)
            fills.append((maker, best, fill))
            qty -= fill
            if rem > fill:
                level[maker] = rem - fill
            else:
                del level[maker]
                del self.orders[maker]
                if not level:
                    del self.levels[opp][best]
        if qty > 0:
            levels = self.levels[side]
            if tick not in levels:
                levels[tick] = {}
                heapq.heappush(self.heaps[side], -tick if side == BUY else tick)
            levels[tick][order_id] = qty
            self.orders[order_id] = (side, tick)
        return fills

    def cancel(self, order_id):
        side, tick = self.orders.pop(order_id)
        level = self.levels[side][tick]
        rem = level.pop(order_id)
        if not level:
            del self.levels[side][tick]
        return rem

    def resting(self) -> dict:
        return {oid: rem for side in (BUY, SELL)
                for level in self.levels[side].values() for oid, rem in level.items()}


@dataclass
class OrderFlow:
    """A generated stream plus everything the reference book says it must produce."""

    messages: list                      # (msg_type, side, timestamp, order_id, tick, size)
    tape: list = field(default_factory=list)   # (tick, qty, maker_id, taker_id, msg_index)
    resting: dict = field(default_factory=dict)
    added: float = 0.0
    cancelled: float = 0.0
    ever_crossed: bool = False


def generate(seed: int, n_msgs: int) -> OrderFlow:
    """Add/modify/delete stream around a drifting mid, built against the reference."""
    rng = random.Random(seed)
    book = ReferenceBook()
    flow = OrderFlow(messages=[])
    live: list = []                     # resting ids, for uniform random picks
    pos: dict = {}
    mid = OPEN_TICK
    next_id = 0

    def forget(oid):
        i = pos.pop(oid)
        last = live.pop()
        if last != oid:
            live[i] = last
            pos[last] = i

    def apply(msg_index, oid, side, tick, size):
        fills = book.submit(oid, side, tick, size)
        for maker, mtick, qty in fills:
            flow.tape.append((mtick, qty, maker, oid, msg_index))
            if maker not in book.orders:
                forget(maker)
        if oid in book.orders:
            pos[oid] = len(live)
            live.append(oid)

    for i in range(n_msgs):
        if rng.random() < P_MID_MOVE:
            mid += 1 if rng.random() < 0.5 else -1
        ts = START_NS + i * MSG_GAP_NS
        r = rng.random()
        # each resting order is cancelled at a fixed rate, so the book
        # settles where adds balance fills and deletes
        p_delete = P_DELETE * len(live) / TARGET_LIVE
        if live and r < p_delete:
            oid = live[rng.randrange(len(live))]
            side, tick = book.orders[oid]
            flow.messages.append(("D", side, ts, oid, tick, 100.0))
            flow.cancelled += book.cancel(oid)
            forget(oid)
        elif live and r < p_delete + P_MODIFY:
            oid = live[rng.randrange(len(live))]
            side, _ = book.orders[oid]
            sign = 1 if side == BUY else -1
            tick = mid - sign * rng.randint(1, PASSIVE_DEPTH)
            size = 100.0 * rng.randint(*PASSIVE_LOTS)
            flow.messages.append(("M", side, ts, oid, tick, size))
            flow.cancelled += book.cancel(oid)
            forget(oid)
            flow.added += size
            apply(i, oid, side, tick, size)
        else:
            side = BUY if rng.random() < 0.5 else SELL
            sign = 1 if side == BUY else -1
            if rng.random() < P_MARKETABLE:
                far = book.best(SELL if side == BUY else BUY)
                tick = (mid if far is None else far) + sign * rng.randint(0, SWEEP_DEPTH)
                size = 100.0 * rng.randint(*SWEEP_LOTS)
            else:
                tick = mid - sign * rng.randint(1, PASSIVE_DEPTH)
                size = 100.0 * rng.randint(*PASSIVE_LOTS)
            oid = f"m{next_id}"
            next_id += 1
            flow.messages.append(("A", side, ts, oid, tick, size))
            flow.added += size
            apply(i, oid, side, tick, size)
        flow.ever_crossed = flow.ever_crossed or book.crossed()

    flow.resting = book.resting()
    return flow
