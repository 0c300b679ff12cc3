"""bookvol benchmark: one command, every metric by name and unit, outputs checked.

    python3 bench/run.py --workload {smile,calibrate,match} --seed N \\
                         --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy.  The run
builds the workload's inputs from the seed, then repeats the workload's
timed calls until ``--seconds`` is used up (at least once), checks every
output, and prints two lines: a details object (timings as median and
tail with sample counts, gates, exact counts, machine facts) and, last,
the result object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics with no timing hooks in place:
``work_per_norm_cpu_s``, ``job_norm_cpu_s``, ``peak_rss_mb`` and
``setup_s``.  Times are CPU times of this process (see ``workloads.Phases``)
less the speed meter's own, scaled to one host speed by the meter of
``meter.py``: each repetition's CPU seconds times ``meter.NOMINAL_S`` over
the meter's mean chunk time during that repetition.  A metric is the median
over the repetitions of each input, averaged over the inputs.  ``setup_s``
is the median of five set-ups, each scaled by a meter in its own
interpreter.  The inputs are built, then frozen out of the collector's
passes, before anything is timed.  Raw CPU and wall times, chunk times and
the CPU time the host took from this machine meanwhile (steal) are in the
details.  BLAS runs on one thread: these workloads gain nothing from a
second one, which would only spin and count as CPU time.  ``--trace 1``
first spends a quarter of ``--seconds`` (at least one repetition) on
untraced repetitions as the reference, then times spans at every layer
boundary and reports the per-layer metrics of ``layers.py``.  The tracing
overhead is the traced median normalised repetition time minus the
reference median, and the coverage is the share of traced wall time
that the per-layer self times account for.  Spans are written to ``.bench_out/``
in the checkout.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"          # before numpy loads its BLAS

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from meter import NOMINAL_S, SpeedMeter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 5
SETUP_METER_INTERVAL_S = 0.02  # a set-up is ~1 s of imports; read the meter often
REFERENCE_SHARE = 0.25         # of --seconds spent on untraced repetitions in a traced run
END_TO_END = {"work_per_norm_cpu_s": "1/s", "job_norm_cpu_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}

_SETUP = """\
import sys, time
sys.path.insert(0, {bench!r})
from meter import SpeedMeter
with SpeedMeter(interval_s={interval_s}) as m:
    t0 = time.process_time()
    sys.path.insert(0, {src!r})
    import workloads
    workloads.WORKLOADS[{name!r}].setup()
    cpu_s = time.process_time() - t0
    chunk_s, meter_s = m.since(0)
print(cpu_s - meter_s, chunk_s)
"""


def _setup_seconds(name: str) -> tuple:
    """CPU seconds to import the package and do the workload's set-up in a fresh
    interpreter, and the speed meter's mean chunk seconds meanwhile."""
    code = _SETUP.format(src=str(SRC), bench=str(BENCH), name=name,
                         interval_s=SETUP_METER_INTERVAL_S)
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    cpu_s, chunk_s = done.stdout.strip().splitlines()[-1].split()
    return float(cpu_s), float(chunk_s)


def _steal_s() -> float:
    """CPU time the hypervisor has given to others, summed over this machine's CPUs."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def _per_input_median(values, inputs) -> float:
    """Mean over the inputs of each input's median, so a run that repeats
    some inputs once more than others is not weighted towards them."""
    by_input = {}
    for value, key in zip(values, inputs):
        by_input.setdefault(key, []).append(value)
    return statistics.fmean(statistics.median(v) for v in by_input.values())


def _summary(values, tail: int) -> dict:
    """Median and the ``tail`` percentile (90 for times, 10 for rates) of a sample."""
    return {"p50": statistics.median(values),
            f"p{tail}": float(np.percentile(values, tail)), "n": len(values)}


@dataclass
class Reps:
    """What the repetitions of one measuring loop produced."""

    phases: list = field(default_factory=list)      # CPU seconds per phase, per repetition
    norm: list = field(default_factory=list)        # the same, normalised (see meter.py)
    walls: list = field(default_factory=list)       # wall seconds per phase, per repetition
    rates: list = field(default_factory=list)       # named rates per normalised CPU second
    work: list = field(default_factory=list)        # units of work done
    chunks: list = field(default_factory=list)      # mean meter chunk seconds, per repetition
    inputs: list = field(default_factory=list)      # the input id of each repetition
    outputs: dict = field(default_factory=dict)     # input id -> output digests seen
    attempted: int = 0
    failures: dict = field(default_factory=dict)
    error: str | None = None
    steal_s: float = 0.0

    @property
    def job(self) -> list:
        return [sum(p.values()) for p in self.phases]

    @property
    def job_norm(self) -> list:
        return [sum(p.values()) for p in self.norm]

    @property
    def job_wall(self) -> list:
        return [sum(p.values()) for p in self.walls]

    def merge(self, other: "Reps") -> None:
        """Add another loop's outputs and operation counts (not its timings)."""
        for key, digests in other.outputs.items():
            self.outputs.setdefault(key, set()).update(digests)
        self.attempted += other.attempted
        for kind, n in other.failures.items():
            self.failures[kind] = self.failures.get(kind, 0) + n
        self.error = self.error or other.error


def _measure(w, seconds: float, hooks, program_errors, min_reps: int) -> Reps:
    """Repeat the workload until the time is used up, and at least ``min_reps`` times."""
    r = Reps()
    start, steal0 = time.perf_counter(), _steal_s()
    with SpeedMeter() as meter:
        while True:
            gc.collect()
            mark = meter.mark()
            try:
                phases, out = w.rep()
            except program_errors as exc:
                r.error = f"{type(exc).__name__}: {exc}"
                return r
            chunk_s, meter_s = meter.since(mark)
            job = sum(phases.cpu.values())
            factor = (1.0 - meter_s / job if job > 0 else 1.0) * NOMINAL_S / chunk_s
            norm = {ph: cpu * factor for ph, cpu in phases.cpu.items()}
            if _record(r, w, hooks, phases, norm, chunk_s, out, start, min_reps, seconds):
                r.steal_s = _steal_s() - steal0
                return r


def _record(r: Reps, w, hooks, phases, norm, chunk_s, out, start, min_reps, seconds) -> bool:
    """Keep one repetition's timings and outputs; True once the loop should stop."""
    key, digest, attempted, failures = w.record(out, hooks.captured)
    r.phases.append(phases.cpu)
    r.norm.append(norm)
    r.walls.append(phases.wall)
    r.chunks.append(chunk_s)
    r.inputs.append(key)
    r.rates.append(w.rates(norm, out))
    r.work.append(w.work_counts(out))
    r.outputs.setdefault(key, set()).add(digest)
    r.attempted += attempted
    for kind, n in failures.items():
        r.failures[kind] = r.failures.get(kind, 0) + n
    elapsed = time.perf_counter() - start
    return len(r.phases) >= min_reps and elapsed + statistics.median(r.job_wall) > seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("smile", "calibrate", "match"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")

    if not (SRC / "bookvol" / "__init__.py").is_file():
        print(f"bench: no package sources at {SRC / 'bookvol'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bookvol
    if Path(bookvol.__file__).resolve().parent != SRC / "bookvol":
        print(f"bench: imported bookvol from {bookvol.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import facts
    import layers
    import workloads
    from spans import Hooks

    cls = workloads.WORKLOADS[args.workload]
    setup = [] if args.trace else [_setup_seconds(cls.name) for _ in range(SETUP_SAMPLES)]
    t0 = time.perf_counter()
    w = cls(args.seed)
    inputs_s = time.perf_counter() - t0
    gc.collect()
    gc.freeze()         # the collector's full passes skip the inputs and the checks' data
    capture = [h for h in w.hooks() if h.capture]

    reference = None
    if args.trace:
        with Hooks(capture, timed=False) as ref_hooks:
            ref = _measure(w, REFERENCE_SHARE * args.seconds, ref_hooks,
                           workloads.PROGRAM_ERRORS, min_reps=1)
        reference = statistics.median(ref.job_norm) if ref.job else None    # normalised s
    with Hooks(w.hooks() if args.trace else capture, timed=bool(args.trace)) as hooks:
        reps = _measure(w, args.seconds, hooks, workloads.PROGRAM_ERRORS, w.min_reps)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gc.unfreeze()
    if args.trace:
        reps.merge(ref)

    gates, counts = {}, {}
    if reps.error is None:
        gates, counts = w.check()
        gates["output_identical_across_reps"] = all(len(d) == 1 for d in reps.outputs.values())
    else:
        gates["program_raised"] = False
    correct = all(bool(v) for v in gates.values())
    attempted = max(1, reps.attempted)
    failed = attempted if not correct else sum(reps.failures.values())

    job = reps.job
    job_norm = reps.job_norm
    details = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "reps": len(job), "inputs_s": inputs_s, "input_digest": w.input_digest,
        "output_digests": {str(k): sorted(v) for k, v in reps.outputs.items()},
        "phases_cpu_s": {ph: _summary([p[ph] for p in reps.phases], 90)
                         for ph in (reps.phases[0] if reps.phases else {})},
        "phases_wall_s": {ph: _summary([p[ph] for p in reps.walls], 90)
                          for ph in (reps.walls[0] if reps.walls else {})},
        "steal_s_during_reps": reps.steal_s,
        "rates": {name: _summary([r[name] for r in reps.rates], 10)
                  for name in (reps.rates[0] if reps.rates else {})},
        "job_cpu_s": _summary(job, 90) if job else None,
        "job_norm_cpu_s": _summary(job_norm, 90) if job else None,
        "job_wall_s": _summary(reps.job_wall, 90) if job else None,
        "meter_chunk_s": _summary(reps.chunks, 90) if job else None,
        "meter_nominal_chunk_s": NOMINAL_S,
        "gates": gates, "counts": counts, "error": reps.error,
        "failed_frac": {k: v / attempted for k, v in reps.failures.items()},
        "absent_hooks": hooks.absent,
        "machine": facts.machine_facts(),
    }
    if "per_path_array_bytes" in counts:   # smile's working set, to set against the caches
        details["machine"]["smile_per_path_arrays_bytes"] = counts["per_path_array_bytes"]

    if args.trace:
        totals = {"path_steps": 0, "steps": 0, "bars": 0, "msgs": 0}
        for work in reps.work:
            for key, value in work.items():
                totals[key] += value
        gens = hooks.calls.get("sheet.chunk_block", 0)
        draws = hooks.calls.get("sheet.increments_block", 0) + hooks.calls.get("sheet.increments", 0)
        gens_per_step = gens / draws if draws else 0.0
        factor_count = w.params.factor_count if hasattr(w, "params") else 0
        layer_counts = dict(counts)
        layer_counts.update(
            generators_per_step=gens_per_step,
            bytes_drawn_per_step=gens_per_step * workloads.PHILOX_CHUNK * factor_count * 8,
            orphans=counts.get("orphan_deletes", 0) + counts.get("orphan_modifies", 0),
            failed_frac=failed / attempted)
        metrics = layers.layer_values(hooks, totals, layer_counts)
        traced = statistics.median(job_norm) if job else None
        details["tracing"] = {
            "untraced_reference_norm_cpu_s": reference,
            "traced_norm_cpu_s": traced,
            "overhead_s": None if not (traced and reference) else traced - reference,
            "overhead_frac": None if not (traced and reference) else traced / reference - 1.0,
            # spans read the wall clock, so coverage is a share of traced wall time
            "coverage": layers.covered_seconds(hooks) / sum(reps.job_wall) if job else None,
            "spans": len(hooks.start),
            "totals": totals,
            "predictions": {m.name: m.predicts for m in layers.PER_LAYER},
        }
        hooks.write(OUT_DIR / f"spans-{w.name}-seed{args.seed}.npz")
    else:
        rate = [next(iter(r.values())) for r in reps.rates]
        values = {
            "work_per_norm_cpu_s": _per_input_median(rate, reps.inputs) if rate else 0.0,
            "job_norm_cpu_s": _per_input_median(job_norm, reps.inputs) if job else 0.0,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(cpu * NOMINAL_S / chunk for cpu, chunk in setup),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        details["setup_samples_cpu_s_chunk_s"] = setup

    def plain(x):
        return x.item() if hasattr(x, "item") else str(x)

    print(json.dumps(details, default=plain))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, default=plain))
    return 0


if __name__ == "__main__":
    sys.exit(main())
