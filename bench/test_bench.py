"""The benchmark's own tests, at small sizes.

    python3 -m pytest bench/test_bench.py -q
"""

import io
import json
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from meter import SpeedMeter  # noqa: E402
from spans import Hook, Hooks  # noqa: E402

from bookvol import lob, sheet  # noqa: E402

SMALL = {
    "smile": lambda seed: workloads.Smile(seed, n_paths=300, n_steps=4),
    "calibrate": lambda seed: workloads.Calibrate(seed, n_bars=150, n_logs=2),
    "match": lambda seed: workloads.Match(seed, n_msgs=3_000),
}


def _run_once(name, seed):
    w = SMALL[name](seed)
    records = []
    with Hooks([h for h in w.hooks() if h.capture], timed=False) as hooks:
        for _ in range(w.min_reps):
            _, out = w.rep()
            records.append(w.record(out, hooks.captured))
    gates, counts = w.check()
    return w, records, gates, counts


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_reproduces_every_exact_count(name):
    first = _run_once(name, 5)
    second = _run_once(name, 5)
    assert first[0].input_digest == second[0].input_digest
    assert first[1:] == second[1:]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_different_seed_changes_the_inputs(name):
    w5, records5, *_ = _run_once(name, 5)
    w6, records6, *_ = _run_once(name, 6)
    assert w5.input_digest != w6.input_digest
    assert {r[1] for r in records5}.isdisjoint(r[1] for r in records6)


def test_match_gates_pass_and_nothing_is_rejected():
    _, records, gates, counts = _run_once("match", 9)
    assert all(gates.values()), gates
    assert all(sum(r[3].values()) == 0 for r in records)
    assert counts["trades"] > 0 and counts["deletes"] > 0 and counts["modifies"] > 0


def test_self_time_subtracts_child_spans(monkeypatch):
    ticks = iter(range(0, 100))
    monkeypatch.setattr(time, "perf_counter_ns", lambda: next(ticks))

    class Box:
        @staticmethod
        def inner():
            next(ticks)             # one tick of work inside the child

        @staticmethod
        def outer():
            next(ticks)
            Box.inner()
            Box.inner()
            next(ticks)

    with Hooks([Hook(Box, "outer", "t.outer"), Hook(Box, "inner", "t.inner")],
               timed=True) as hooks:
        Box.outer()
    # outer: 0 -> 9 with children 2->4 and 5->7; inner: 2 ticks each
    assert hooks.self_seconds("t.inner") == pytest.approx(4e-9)
    assert hooks.self_seconds("t.outer") == pytest.approx(5e-9)
    assert list(hooks.parent) == [0, 0, -1]      # both inner spans belong to outer
    assert Box.outer.__name__ == "outer"      # restored on exit


def test_speed_meter_reads_chunks_counts_its_own_cpu_and_stops():
    with SpeedMeter(interval_s=0.002) as meter:
        mark = meter.mark()
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        chunk_s, meter_s = meter.since(mark)
    assert not meter._thread.is_alive()
    idle = meter.since(meter.mark())
    assert len(meter.samples) > mark and chunk_s > 0
    assert 0 < meter_s < 0.2
    # no chunk since the mark: the mean of all chunks stands in, and no meter CPU
    assert idle[1] == 0.0 and idle[0] > 0


def test_missing_hook_is_reported_absent_without_failing(monkeypatch):
    class SmallMatch(workloads.Match):
        def __init__(self, seed):
            super().__init__(seed, n_msgs=2_000)

        def hooks(self):
            return super().hooks() + [Hook(lob.OrderBook, "no_such_method", "lob.gone"),
                                      Hook(sheet, "no_such_function", "sheet.gone")]

    monkeypatch.setitem(workloads.WORKLOADS, "match", SmallMatch)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", "match", "--seed", "2", "--seconds", "0.2", "--trace", "1"])
    details, result = (json.loads(line) for line in buf.getvalue().splitlines()[-2:])
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0
    assert details["absent_hooks"] == ["lob.gone", "sheet.gone"]
    assert set(result["metrics"]) == {m.name for m in layers.PER_LAYER}


def test_benchmark_json_names_every_metric_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m.name for m in layers.PER_LAYER]
    assert {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]} == {
        (m.name, m.unit, m.better) for m in layers.PER_LAYER}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
