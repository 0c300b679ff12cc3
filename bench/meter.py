"""A speed meter that scales the benchmark's CPU times to one host speed.

On a shared host the CPU time of an identical repetition moves by tens of
percent from second to second, as other guests contend for the core and
its caches; two sets of runs of the same code a quarter of an hour apart
then disagree by more than any useful bound.  The meter is a thread that
wakes every ``INTERVAL_S`` and times, in its own thread CPU time, a fixed
chunk of bytecode that shares no code with the program.  Its chunks run
between the program's own bytecodes (the interpreter lock hands over), so
their mean CPU time over a repetition says how fast the host ran meanwhile:

    normalised CPU seconds = CPU seconds * NOMINAL_S / mean chunk seconds

reads as CPU seconds on a host where a chunk takes ``NOMINAL_S``.  A change
to the program moves the CPU seconds only.  The meter's own CPU time, about
2% of the process's, is taken out of the process's CPU time first.  Each
wake-up makes the program hand over the interpreter lock; doing that every
20 ms instead of every 100 ms slowed the pure-Python ``match`` workload by
about 14%.
"""

from __future__ import annotations

import threading
import time

NOMINAL_S = 1.8e-3      # a chunk's CPU time, tenth percentile, on a quiet 2-vCPU Xeon guest
INTERVAL_S = 0.1


def _chunk() -> int:
    s = 0
    for i in range(24_000):
        s += (i * 7) % 13
    return s


class SpeedMeter:
    """Context manager running the meter thread; ``mark()``/``since()`` read it.

    ``samples`` holds, per chunk, its thread CPU seconds and the meter
    thread's CPU seconds in all up to the end of that chunk.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-meter", daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            t0 = time.thread_time()
            _chunk()
            t1 = time.thread_time()
            self.samples.append((t1 - t0, t1))

    def __enter__(self) -> "SpeedMeter":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def mark(self) -> int:
        return len(self.samples)

    def since(self, mark: int) -> tuple:
        """Mean chunk seconds and the meter's CPU seconds since ``mark``.

        With no chunk since ``mark`` (a call shorter than the interval) the
        mean of every chunk so far stands in, and the meter used no CPU.
        """
        new = self.samples[mark:]
        if not new:
            every = self.samples or [(NOMINAL_S, 0.0)]
            return sum(s for s, _ in every) / len(every), 0.0
        before = self.samples[mark - 1][1] if mark else 0.0
        return sum(s for s, _ in new) / len(new), new[-1][1] - before
