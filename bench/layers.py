"""Per-layer metrics, how each is computed, and what each should move.

The layers are the package modules: ``sheet``, ``demand``, ``riskneutral``,
``pricing``, ``lob`` and ``calibration``.  A timing is the self time of one
span (its duration minus its child spans) per unit of work, or a percentile
of the span's per-call duration.  A count comes from the workload's checks.

``predicts`` records, before any optimisation is made, which end-to-end
metric on which workload a change in this layer metric should move, and
where it should not.  A layer that does no work on a workload reports 0 on
it; a hook whose program attribute is gone is listed as absent and its
metric reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    source: str         # span name, or a key of the workload's counts
    per: str            # path_steps | steps | bars | msgs | calls | p50 | p99 | count
    scale: float = 1.0
    predicts: str = ""


_SMILE_ONLY = "work_per_norm_cpu_s and job_norm_cpu_s on smile; no change on calibrate or match"
_SYNTH = "job_norm_cpu_s on calibrate (synthesis phase); no change on smile today, none on match"
_CALIB = "work_per_norm_cpu_s and job_norm_cpu_s on calibrate; no change on match or smile"
_LOB = "work_per_norm_cpu_s and job_norm_cpu_s on match mostly, on calibrate partly; none on smile"

PER_LAYER = (
    LayerMetric("sheet.increments_block.ns_per_path_step", "ns", "lower",
                "sheet.increments_block", "path_steps", 1e9, _SMILE_ONLY),
    LayerMetric("sheet.increments.us_per_bar", "us", "lower",
                "sheet.increments", "bars", 1e6, _SYNTH),
    LayerMetric("riskneutral.kill_shifts.ns_per_path_step", "ns", "lower",
                "riskneutral.kill_shifts", "path_steps", 1e9, _SMILE_ONLY),
    LayerMetric("riskneutral.clear.ns_per_path_step", "ns", "lower",
                "riskneutral.clear", "path_steps", 1e9, _SMILE_ONLY),
    LayerMetric("riskneutral.residual.us_per_step", "us", "lower",
                "riskneutral.residual", "steps", 1e6, _SMILE_ONLY),
    LayerMetric("riskneutral.self.ns_per_path_step", "ns", "lower",
                "riskneutral.simulate_ensemble", "path_steps", 1e9,
                _SMILE_ONLY + " (OU update, factor matmuls, masking)"),
    LayerMetric("pricing.implied_vol.us_per_call", "us", "lower",
                "pricing.implied_vol", "calls", 1e6, "negligible on smile"),
    LayerMetric("pricing.self.ms_per_smile", "ms", "lower",
                "pricing.smile", "calls", 1e3, "negligible on smile"),
    LayerMetric("demand.step_physical.us_per_bar", "us", "lower",
                "demand.step_physical", "bars", 1e6, _SYNTH),
    LayerMetric("demand.clear.us_per_call", "us", "lower",
                "demand.clear", "calls", 1e6, _SYNTH),
    LayerMetric("lob.submit.us_per_call.p50", "us", "lower", "lob.submit", "p50", 1.0, _LOB),
    LayerMetric("lob.submit.us_per_call.p99", "us", "lower", "lob.submit", "p99", 1.0, _LOB),
    LayerMetric("lob.cancel.us_per_call.p50", "us", "lower", "lob.cancel", "p50", 1.0, _LOB),
    LayerMetric("lob.cancel.us_per_call.p99", "us", "lower", "lob.cancel", "p99", 1.0, _LOB),
    LayerMetric("lob.replay.self.us_per_msg", "us", "lower", "lob.replay", "msgs", 1e6, _LOB),
    LayerMetric("calibration.parse.us_per_msg", "us", "lower",
                "calibration.parse", "msgs", 1e6, _CALIB),
    LayerMetric("calibration.clean.us_per_msg", "us", "lower",
                "calibration.clean", "msgs", 1e6, _CALIB),
    LayerMetric("calibration.infer_cancellations.us_per_msg", "us", "lower",
                "calibration.infer_cancellations", "msgs", 1e6, _CALIB),
    LayerMetric("calibration.build_panel.us_per_msg", "us", "lower",
                "calibration.build_panel", "msgs", 1e6, _CALIB),
    LayerMetric("calibration.on_event.us_per_msg", "us", "lower",
                "calibration.on_event", "msgs", 1e6, _CALIB),
    LayerMetric("calibration.snapshot.us_per_bar", "us", "lower",
                "calibration.snapshot", "bars", 1e6, _CALIB),
    LayerMetric("calibration.fit_report.us_per_msg", "us", "lower",
                "calibration.fit_report", "msgs", 1e6, _CALIB),
    LayerMetric("calibration.synthesize_log.us_per_bar", "us", "lower",
                "calibration.synthesize_log", "bars", 1e6, _SYNTH),
    LayerMetric("calibration.format_log.us_per_msg", "us", "lower",
                "calibration.format_log", "msgs", 1e6,
                "job_norm_cpu_s on calibrate; no change on smile or match"),
    LayerMetric("sheet.generators_per_step", "count", "lower",
                "generators_per_step", "count", 1.0,
                "ceil(n_paths/256) on smile, 1 per bar on calibrate; fewer lifts smile"),
    LayerMetric("sheet.bytes_drawn_per_step", "B", "lower",
                "bytes_drawn_per_step", "count", 1.0, "same as sheet.generators_per_step"),
    LayerMetric("lob.heap_entries_per_resting", "count", "lower",
                "heap_entries_per_resting", "count", 1.0,
                "tombstone waste; fewer lifts match, calibrate partly"),
    LayerMetric("lob.orphans", "count", "lower", "orphans", "count", 1.0,
                "0 on every workload; a rise means rejected or lost orders"),
    LayerMetric("calibration.parse_issues", "count", "lower", "parse_issues", "count", 1.0,
                "0 on calibrate"),
    LayerMetric("calibration.retention", "1", "higher", "retention", "count", 1.0,
                "1 on calibrate"),
    LayerMetric("failed_frac", "1", "lower", "failed_frac", "count", 1.0,
                "0 on smile and calibrate"),
)

_SPAN_PER = {"path_steps", "steps", "bars", "msgs", "calls"}


def layer_values(hooks, totals: dict, counts: dict) -> dict:
    """Value of every per-layer metric for one traced run.

    ``totals`` holds the work done in the traced repetitions (path_steps,
    steps, bars, msgs); ``counts`` holds the workload's exact counts.
    """
    out = {}
    for m in PER_LAYER:
        if m.per in _SPAN_PER:
            denom = hooks.calls.get(m.source, 0) if m.per == "calls" else totals.get(m.per, 0)
            value = hooks.self_seconds(m.source) * m.scale / denom if denom else 0.0
        elif m.per in ("p50", "p99"):
            d = hooks.durations_us(m.source)
            value = float(np.percentile(d, int(m.per[1:]))) if d.size else 0.0
        else:
            value = counts.get(m.source)
            value = 0.0 if value is None else float(value)
        out[m.name] = {"value": value, "unit": m.unit}
    return out


def covered_seconds(hooks) -> float:
    """Self time of every span that a per-layer timing metric reads."""
    spans = {m.source for m in PER_LAYER if m.per in _SPAN_PER or m.per in ("p50", "p99")}
    return sum(hooks.self_seconds(name) for name in spans)
