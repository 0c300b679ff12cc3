"""The benchmark's workloads: seeded inputs, one timed repetition, and the gates.

Each workload builds its inputs from the seed, then ``rep()`` makes the
timed calls into the program's public entry points and returns the CPU
and wall seconds spent per phase with the output.  After each repetition
``record()`` keeps what the checks need and returns the input it ran on,
an output digest, the operations attempted and the failed ones.
``rates()`` names the throughputs of one repetition per CPU second, the
workload's own work rate first.  ``check()`` runs after timing and turns the records into
pass/fail gates and exact counts.

* ``smile``    — ``pricing.smile`` on the bundled parameters: 10⁴
  risk-neutral paths at one-minute steps, 8 strikes on one common sample.
* ``calibrate`` — ``calibration.synthesize_log`` → ``format_log`` →
  ``calibrate`` on eight 1250-bar logs from known ground-truth parameters,
  10⁴ bars in all; the fits of the eight logs are pooled for the gates.
* ``match``    — ``lob.replay`` of a 2·10⁵-message add/modify/delete
  stream in which a quarter of the adds sweep the far side.
"""

from __future__ import annotations

import hashlib
import math
import time

import numpy as np

import orderflow
from spans import Hook

from bookvol import calibration, demand, lob, pricing, riskneutral, sheet
from bookvol.errors import BookVolError
from bookvol.params import ModelParams, demo_params

SMILE_STRIKES = (19.8, 19.9, 20.0, 20.1, 20.2, 20.3, 20.4, 20.5)
PHILOX_CHUNK = 256             # streams per Philox generator in bookvol.sheet
PROGRAM_ERRORS = (BookVolError, ValueError, ArithmeticError)


class Phases:
    """CPU and wall seconds of the consecutive phases of one repetition.

    CPU time of the process, scaled to one host speed by ``meter.py``, is
    what the benchmark's rates use: on a shared host the wall clock also
    counts the time the hypervisor gives this machine's CPUs to others,
    which swings by tens of percent from minute to minute.
    """

    def __init__(self):
        self.cpu: dict = {}
        self.wall: dict = {}
        self._mark = (time.process_time(), time.perf_counter())

    def end(self, name: str) -> None:
        cpu, wall = time.process_time(), time.perf_counter()
        self.cpu[name] = cpu - self._mark[0]
        self.wall[name] = wall - self._mark[1]
        self._mark = (cpu, wall)


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()[:16]


def _heap_ratio(book) -> float | None:
    """Heap entries per resting order; None once the book stops using heaps."""
    heaps = [getattr(book, attr, None) for attr in ("_buys", "_sells")]
    resting = getattr(book, "_resting", None)
    if any(h is None for h in heaps) or not resting:
        return None
    return (len(heaps[0]) + len(heaps[1])) / len(resting)


# ----------------------------------------------------------------------
# smile

class Smile:
    name = "smile"
    min_reps = 1

    def __init__(self, seed: int, n_paths: int = 10_000, n_steps: int = 60):
        self.params = demo_params()
        self.req = pricing.PricingRequest(
            strikes=SMILE_STRIKES, expiry=n_steps * pricing.ONE_MINUTE_YEARS,
            n_paths=n_paths, seed=seed)
        self.n_paths = n_paths
        self.n_steps = n_steps
        self.input_digest = _sha(seed, n_paths, n_steps, SMILE_STRIKES)
        self._last = None

    @staticmethod
    def setup():
        """Program-side set-up: load the bundled parameters, build a request."""
        demo_params()
        pricing.PricingRequest(strikes=SMILE_STRIKES, expiry=pricing.ONE_MINUTE_YEARS)

    def hooks(self):
        return [
            Hook(pricing, "smile", "pricing.smile"),
            Hook(pricing, "simulate_ensemble", "riskneutral.simulate_ensemble", capture=True),
            Hook(pricing, "implied_vol", "pricing.implied_vol"),
            Hook(sheet, "increments_block", "sheet.increments_block"),
            Hook(sheet, "_chunk_block", "sheet.chunk_block", span=False),
            Hook(riskneutral, "_batch_kill_shifts", "riskneutral.kill_shifts"),
            Hook(riskneutral, "_batch_clear", "riskneutral.clear"),
            Hook(riskneutral, "_path0_rel_residual", "riskneutral.residual"),
        ]

    def work_counts(self, out) -> dict:
        return {"path_steps": self.n_paths * self.n_steps, "steps": self.n_steps}

    def rates(self, phases, out) -> dict:
        return {"path_steps_per_s": self.n_paths * self.n_steps / phases["smile"]}

    def rep(self):
        phases = Phases()
        table = pricing.smile(self.params, self.req)
        phases.end("smile")
        return phases, table

    def record(self, table, captured):
        ens, diag, _ = captured["riskneutral.simulate_ensemble"]
        self._last = (table, ens, diag)
        digest = _sha(np.ascontiguousarray(ens.pi[ens.alive]).tobytes(), table.to_text())
        return 0, digest, self.n_paths, {"aborted_paths": int(table.n_aborted_paths)}

    def check(self):
        table, ens, diag = self._last
        terminal = ens.pi[ens.alive]
        pi0 = self.params.pi0
        se = terminal.std(ddof=1) / math.sqrt(terminal.size)
        prices = np.array([q.price for q in table.quotes])
        tol = 1e-12 * pi0
        path_steps = self.n_paths * diag.n_steps
        gates = {
            "steps_as_requested": diag.n_steps == self.n_steps,
            "no_aborted_paths": table.n_aborted_paths == 0 and diag.n_aborted == 0,
            "martingale_within_3se": abs(terminal.mean() - pi0) <= 3.0 * se,
            "prices_non_increasing": bool(np.all(np.diff(prices) <= tol)),
            "prices_convex": bool(np.all(np.diff(prices, 2) >= -tol)),
        }
        counts = {
            "path_steps": path_steps,
            "aborted_paths": int(diag.n_aborted),
            "relabels": int(diag.n_relabel),
            "relabels_per_path_step": diag.n_relabel / path_steps,
            "martingale_z": float((terminal.mean() - pi0) / se),
            "max_path0_rel_residual": float(diag.max_rel_residual),
            "implied_vols_defined": sum(q.implied_vol is not None for q in table.quotes),
            "per_path_array_bytes": self.n_paths * self.params.factor_count * 8,
            "philox_generators_per_step_expected": -(-self.n_paths // PHILOX_CHUNK),
        }
        return gates, counts


# ----------------------------------------------------------------------
# calibrate

def ground_truth():
    """Fast-reverting parameters built like the criterion-9 round-trip set.

    Same grid (K=7, Δp=0.05), quiet buy side, 0.4^|i-j| factor correlation
    and flat long-run masses as the acceptance test, but mean reversion of
    30..60 per hour (a·Δt of 0.5..1 per one-minute bar) instead of 10..25.
    At 10⁴ bars that puts the 10% gate on each fitted rate about four
    standard errors out, so a correct program fails it on well under one
    seed in a thousand; with 10..25 per hour it failed on about 1.7%.
    """
    K, dp = 7, 0.05
    n = 2 * K
    a = np.linspace(30.0, 60.0, n)
    sig = np.where(np.arange(n) < K - 1, 0.005, np.linspace(0.10, 0.30, n))
    m = np.full(n, math.log(2e9))
    corr = 0.4 ** np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    vals, vecs = np.linalg.eigh(corr)
    loadings = (vecs @ np.diag(np.sqrt(vals)) @ vecs.T) / math.sqrt(dp)
    q0 = np.exp(m)
    edge0 = q0[:K - 1].sum() + 0.5 * q0[K - 1]
    params = ModelParams.create(
        K=K, delta_p=dp, pi0=20.16, q0=q0, a_q=a, mean_logq=m,
        sigma_q_rel=sig, loadings=loadings, edge0=edge0, a_edge=5.0,
        mean_log_edge=math.log(edge0), sigma_edge_rel=0.002,
        edge_loadings=np.full(n, 1.0 / math.sqrt(n * dp)))
    return params, a, sig, corr


class Calibrate:
    """Round trip on ``n_logs`` logs of ``n_bars`` each, repetitions cycling through them.

    Short logs give a run many timed repetitions to take a median over;
    pooling the fits of all logs gives the gates the statistical power of
    one log of n_logs·n_bars bars.
    """

    name = "calibrate"

    def __init__(self, seed: int, n_bars: int = 1_250, n_logs: int = 8):
        self.params, self.a, self.sig, self.corr = ground_truth()
        self.seeds = [seed * n_logs + i for i in range(n_logs)]
        self.n_bars = n_bars
        self.min_reps = n_logs
        self.session = (calibration.SESSION_START_NS,
                        calibration.SESSION_START_NS + n_bars * calibration.BAR_NS)
        # orders sit within K·Δp of a clearing price that wanders a few Δp;
        # the default cleaning window is for other data
        half = 2 * self.params.K * self.params.delta_p
        self.window = (self.params.pi0 - half, self.params.pi0 + half)
        self.input_digest = _sha(self.seeds, n_bars)
        self._next = 0
        self._logs: dict = {}

    @staticmethod
    def setup():
        """Program-side set-up: validate the ground-truth parameter set."""
        ground_truth()

    def hooks(self):
        c = calibration
        return [
            Hook(c, "synthesize_log", "calibration.synthesize_log"),
            Hook(c, "increments", "sheet.increments"),
            Hook(sheet, "_chunk_block", "sheet.chunk_block", span=False),
            Hook(c, "step_physical", "demand.step_physical"),
            Hook(demand, "clear", "demand.clear"),
            Hook(c, "format_log", "calibration.format_log"),
            Hook(c, "calibrate", "calibration.calibrate"),
            Hook(c, "parse_messages", "calibration.parse", capture=True),
            Hook(c, "clean", "calibration.clean", capture=True),
            Hook(c, "infer_cancellations", "calibration.infer_cancellations"),
            Hook(c, "build_panel", "calibration.build_panel"),
            Hook(c, "replay", "lob.replay", capture=True,
                 callback="on_event", callback_name="calibration.on_event"),
            Hook(lob.OrderBook, "submit", "lob.submit"),
            Hook(lob.OrderBook, "cancel", "lob.cancel"),
            Hook(c, "_snapshot", "calibration.snapshot"),
            Hook(c, "fit_report", "calibration.fit_report"),
        ]

    def work_counts(self, out) -> dict:
        return {"bars": self.n_bars, "msgs": out[2]}

    def rates(self, phases, out) -> dict:
        return {"msgs_per_s": out[2] / phases["calibrate"],
                "synth_bars_per_s": self.n_bars / phases["synthesize"]}

    def rep(self):
        i = self._next % len(self.seeds)
        self._next += 1
        p = self.params
        phases = Phases()
        events = calibration.synthesize_log(p, self.n_bars, seed=self.seeds[i])
        phases.end("synthesize")
        text = calibration.format_log(events)
        phases.end("format")
        report = calibration.calibrate(text, pi0=p.pi0, K=p.K, delta_p=p.delta_p,
                                       p_min=self.window[0], p_max=self.window[1],
                                       session=self.session)
        phases.end("calibrate")
        return phases, (i, report, len(events), _sha(text))

    def record(self, out, captured):
        i, report, n_msgs, text_digest = out
        replayed = captured["lob.replay"]
        log = {
            "report": report,
            "msgs": n_msgs,
            "log_digest": text_digest,
            "parse_issues": len(captured["calibration.parse"].issues),
            "retention": captured["calibration.clean"].retention,
            "orphan_deletes": replayed.orphan_deletes,
            "orphan_modifies": replayed.orphan_modifies,
            "trades": len(replayed.trades),
            "heap_entries_per_resting": _heap_ratio(replayed.book),
        }
        self._logs[i] = log
        digest = _sha(text_digest, report.a.tobytes(), report.sigma_rel.tobytes(),
                      report.loadings.tobytes())
        failures = {"parse_issues": log["parse_issues"],
                    "rejected_orders": log["orphan_deletes"] + log["orphan_modifies"]}
        return i, digest, n_msgs, failures

    def check(self):
        logs = [self._logs[i] for i in sorted(self._logs)]
        reports = [log["report"] for log in logs]
        dp = self.params.delta_p
        a_fit = np.mean([r.a for r in reports], axis=0)
        sig_fit = np.mean([r.sigma_rel for r in reports], axis=0)
        corr_fit = np.mean([(r.loadings @ r.loadings.T) * dp for r in reports], axis=0)
        a_err = float(np.max(np.abs(a_fit / self.a - 1.0)))
        sig_err = float(np.max(np.abs(sig_fit / self.sig - 1.0)))
        corr_err = float(np.max(np.abs(corr_fit - self.corr)))
        gates = {
            "every_log_fitted": len(logs) == len(self.seeds),
            "a_within_10pct": a_err <= 0.10,
            "sigma_within_10pct": sig_err <= 0.10,
            "corr_within_0.05": corr_err <= 0.05,
        }
        msgs = sum(log["msgs"] for log in logs)

        def total(key):
            return sum(log[key] for log in logs)

        heap = [log["heap_entries_per_resting"] for log in logs]
        counts = {
            "logs": len(logs),
            "bars_per_log": self.n_bars,
            "msgs": msgs,
            "msgs_per_bar": msgs / (self.n_bars * len(logs)),
            "log_digests": [log["log_digest"] for log in logs],
            "parse_issues": total("parse_issues"),
            "retention": min(log["retention"] for log in logs),
            "orphan_deletes": total("orphan_deletes"),
            "orphan_modifies": total("orphan_modifies"),
            "trades": total("trades"),
            "trades_per_msg": total("trades") / msgs,
            "heap_entries_per_resting": None if None in heap else max(heap),
            "max_rel_err_a": a_err,
            "max_rel_err_sigma": sig_err,
            "max_abs_err_corr": corr_err,
        }
        return gates, counts


# ----------------------------------------------------------------------
# match

class Match:
    name = "match"
    min_reps = 1

    def __init__(self, seed: int, n_msgs: int = 200_000):
        self.flow = orderflow.generate(seed, n_msgs)
        sides = {orderflow.BUY: lob.Side.BUY, orderflow.SELL: lob.Side.SELL}
        self.events = [
            lob.MessageEvent(kind, sides[side], ts, oid, orderflow.price(tick), size)
            for kind, side, ts, oid, tick, size in self.flow.messages]
        self.opening = orderflow.price(orderflow.OPEN_TICK)
        self.input_digest = _sha(*(repr(m) for m in self.flow.messages))
        self._last = None

    @staticmethod
    def setup():
        """Program-side set-up: an empty book at the opening price."""
        lob.OrderBook(orderflow.price(orderflow.OPEN_TICK))

    def hooks(self):
        return [
            Hook(lob, "replay", "lob.replay"),
            Hook(lob.OrderBook, "submit", "lob.submit"),
            Hook(lob.OrderBook, "cancel", "lob.cancel"),
        ]

    def work_counts(self, out) -> dict:
        return {"msgs": len(self.events)}

    def rates(self, phases, out) -> dict:
        return {"msgs_per_s": len(self.events) / phases["replay"]}

    def rep(self):
        phases = Phases()
        result = lob.replay(self.events, self.opening)
        phases.end("replay")
        return phases, result

    def record(self, result, captured):
        self._last = result
        digest = _sha(*(f"{t.price!r},{t.quantity!r},{t.maker_id},{t.taker_id};"
                        for t in result.trades))
        return 0, digest, len(self.events), {
            "rejected_orders": result.orphan_deletes + result.orphan_modifies}

    def check(self):
        result, flow = self._last, self.flow
        tape = [(t.price, t.quantity, t.maker_id, t.taker_id) for t in result.trades]
        expected = [(orderflow.price(tick), qty, maker, taker)
                    for tick, qty, maker, taker, _ in flow.tape]
        resting = {o.order_id: rem for o, rem in result.book.resting_orders()}
        filled = sum(t.quantity for t in result.trades)
        gates = {
            "tape_matches_reference": tape == expected,
            "final_book_matches_reference": resting == flow.resting,
            # the reference book was checked uncrossed after every message and
            # held the same orders whenever the tapes agree
            "book_never_crossed": not flow.ever_crossed and tape == expected,
            "fills_at_maker_price": self._fills_at_maker_price(result.trades),
            "quantity_conserved": flow.added == sum(resting.values()) + 2 * filled + flow.cancelled,
        }
        n = len(self.events)
        counts = {
            "msgs": n,
            "adds": sum(m[0] == "A" for m in flow.messages),
            "modifies": sum(m[0] == "M" for m in flow.messages),
            "deletes": sum(m[0] == "D" for m in flow.messages),
            "trades": len(result.trades),
            "trades_per_msg": len(result.trades) / n,
            "resting_orders": len(resting),
            "heap_entries_per_resting": _heap_ratio(result.book),
            "orphan_deletes": result.orphan_deletes,
            "orphan_modifies": result.orphan_modifies,
            "added_qty": flow.added,
            "filled_qty": filled,
            "cancelled_qty": flow.cancelled,
        }
        return gates, counts

    def _fills_at_maker_price(self, trades) -> bool:
        """Each fill's price equals the maker's limit when the taker arrived.

        The reference tape carries the message index of every fill; where the
        program's tape differs in length the tape gate already fails.
        """
        if len(trades) != len(self.flow.tape):
            return False
        limit = {}
        fills = iter(zip(trades, self.flow.tape))
        pending = next(fills, None)
        for i, (kind, _, _, oid, tick, _) in enumerate(self.flow.messages):
            while pending is not None and pending[1][4] == i:
                trade = pending[0]
                if trade.price != limit.get(trade.maker_id):
                    return False
                pending = next(fills, None)
            if kind != "D":
                limit[oid] = orderflow.price(tick)
        return pending is None


WORKLOADS = {w.name: w for w in (Smile, Calibrate, Match)}
