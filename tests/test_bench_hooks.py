"""Every program attribute the benchmark hooks still exists.

`bench/spans.py` wraps program functions by name from outside, and a name
it cannot find makes that layer's metric read as absent, never an error.
So a change that renames or deletes a hooked function would silently zero
a per-layer metric; this test makes it fail instead.  The calibrate hooks
in ABSENT name functions that are already gone (synthesis now steps
through `riskneutral.run_steps` and draws through
`sheet.increments_block`); they stay listed until the benchmark's hooks
are re-pointed, and the list must shrink, not grow.  The replaying
workloads must also reach the book through `OrderBook.submit` and
`OrderBook.cancel`, once per message that adds, modifies or deletes, so
that the `lob.*` layers measure the book that runs.

    python -m pytest tests/test_bench_hooks.py -q
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from spans import Hooks  # noqa: E402

SMALL = {
    "smile": lambda: workloads.Smile(5, n_paths=300, n_steps=4),
    "calibrate": lambda: workloads.Calibrate(5, n_bars=150, n_logs=2),
    "match": lambda: workloads.Match(5, n_msgs=3_000),
}

ABSENT = {
    "smile": [],
    "calibrate": ["sheet.increments", "demand.step_physical", "demand.clear",
                  "calibration.infer_cancellations"],
    "match": [],
}


def test_every_workload_is_checked():
    assert set(SMALL) == set(ABSENT) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_hooked_attribute_resolves_but_the_known_absent(name):
    with Hooks(SMALL[name]().hooks(), timed=False) as hooks:
        absent = list(hooks.absent)
    assert absent == ABSENT[name]


@pytest.mark.parametrize("name", ["calibrate", "match"])
def test_replay_goes_through_submit_and_cancel(name):
    w = SMALL[name]()
    with Hooks(w.hooks(), timed=False) as hooks:
        w.rep()
    # match replays its own events; calibrate replays what clean kept
    events = w.events if name == "match" else hooks.captured["calibration.clean"].events
    kinds = [ev[0] for ev in events]
    adds, modifies, deletes = (kinds.count(k) for k in "AMD")
    assert adds > 0 and deletes > 0     # synthesized calibrate logs hold no modifies
    assert hooks.calls["lob.replay"] == 1
    assert hooks.calls["lob.submit"] == adds + modifies
    assert hooks.calls["lob.cancel"] == deletes + modifies
