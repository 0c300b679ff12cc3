"""Spans and return-value capture around the program's module attributes.

The benchmark never edits the program.  It replaces, from outside and for
the duration of a ``with Hooks(...)`` block, the module or class attributes
that the entry points look up at call time (``riskneutral._batch_clear``,
``calibration.parse_messages``, ``OrderBook.submit``, ...), and restores
them on exit.  A hook whose attribute no longer exists is recorded as
absent; it is never an error, so a later change that removes or renames a
function only makes its metric read as absent.

A hook can time its calls (a span), keep the last return value (a capture),
or only count calls.  Spans are kept in memory as flat arrays — id, name,
start, end, parent id, self time — and written out when the run ends.  Self
time is a span's duration minus the time its child spans cover; calls are
nested on one thread, so the covered time is the sum of the children's
durations.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Hook:
    owner: object       # module or class holding the attribute
    attr: str
    name: str           # span name, as ``<layer>.<function>``
    span: bool = True
    capture: bool = False
    callback: str = ""        # keyword argument holding a callable to time too,
    callback_name: str = ""   # as a child span of this name


class Hooks:
    """Install hooks on enter, restore the original attributes on exit."""

    def __init__(self, hooks, timed: bool):
        self.hooks = list(hooks)
        self.timed = timed
        self.names: list = []
        self._ids: dict = {}
        self.span_id = array("q")
        self.span_name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.self_ns = array("q")
        self.calls: dict = {}
        self.captured: dict = {}
        self.absent: list = []
        self._stack: list = []          # [span id, ns covered by children]
        self._next_id = 0
        self._saved: list = []

    def __enter__(self):
        for hook in self.hooks:
            original = getattr(hook.owner, hook.attr, None)
            if original is None:
                self.absent.append(hook.name)
                continue
            setattr(hook.owner, hook.attr, self._wrap(hook, original))
            self._saved.append((hook.owner, hook.attr, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, hook: Hook, fn):
        name = hook.name
        calls = self.calls
        calls.setdefault(name, 0)
        capture = hook.capture
        captured = self.captured
        if not (self.timed and hook.span):
            def counted(*args, **kwargs):
                calls[name] += 1
                out = fn(*args, **kwargs)
                if capture:
                    captured[name] = out
                return out
            return counted

        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter_ns
        rec_id, rec_name = self.span_id, self.span_name
        rec_start, rec_end = self.start, self.end
        rec_parent, rec_self = self.parent, self.self_ns

        callback = hook.callback
        callback_hook = Hook(None, "", hook.callback_name) if callback else None

        def traced(*args, **kwargs):
            if callback and kwargs.get(callback) is not None:
                kwargs[callback] = self._wrap(callback_hook, kwargs[callback])
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                    rec_parent.append(stack[-1][0])
                else:
                    rec_parent.append(-1)
                rec_id.append(sid)
                rec_name.append(nid)
                rec_start.append(t0)
                rec_end.append(t1)
                rec_self.append(dur - frame[1])
                calls[name] += 1
            if capture:
                captured[name] = out
            return out
        return traced

    # ------------------------------------------------------------------
    # summaries

    def _mask(self, name: str):
        if name not in self._ids:
            return None
        return np.frombuffer(self.span_name, dtype=np.int64) == self._ids[name]

    def self_seconds(self, name: str) -> float:
        mask = self._mask(name)
        if mask is None:
            return 0.0
        return float(np.frombuffer(self.self_ns, dtype=np.int64)[mask].sum()) * 1e-9

    def durations_us(self, name: str) -> np.ndarray:
        mask = self._mask(name)
        if mask is None:
            return np.zeros(0)
        start = np.frombuffer(self.start, dtype=np.int64)[mask]
        end = np.frombuffer(self.end, dtype=np.int64)[mask]
        return (end - start) * 1e-3

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names, dtype=str),
                     span_id=np.frombuffer(self.span_id, dtype=np.int64),
                     name=np.frombuffer(self.span_name, dtype=np.int64),
                     start_ns=np.frombuffer(self.start, dtype=np.int64),
                     end_ns=np.frombuffer(self.end, dtype=np.int64),
                     parent=np.frombuffer(self.parent, dtype=np.int64),
                     self_ns=np.frombuffer(self.self_ns, dtype=np.int64))
