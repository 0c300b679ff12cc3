"""Command-line driver for the order-book liquidity toolkit.

Five commands cover the pipeline end to end::

    bookvol replay    LOG   # matching engine: trades, clearing price, book
    bookvol calibrate LOG   # fit model parameters from a message log
    bookvol simulate        # terminal clearing prices under P or Q
    bookvol price           # Monte-Carlo option quotes
    bookvol smile           # quotes plus the implied-vol column

Configuration is a JSON file with optional sections ``model`` (same schema
as a parameter file), ``sheet`` (``seed``), ``pricing`` (``strikes``,
``expiry``, ``dt``, ``paths``, ``seed``, ``rate``), ``simulate``
(``measure``, ``expiry``, ``dt``, ``paths``, ``seed``), ``calibrate``
(``pi0``, ``K``, ``delta_p``, ``p_min``, ``p_max``, ``strict``) and
``replay`` (``opening_price``, ``strict``).  A bare parameter file — such as
the one ``calibrate`` writes — is accepted wherever a config is and treated
as its ``model`` section, so a fitted file feeds straight back into
``simulate``.
Command-line flags override config values.  Without ``--config`` the
bundled demo parameter set is used.

Every run emits a manifest recording the command, library version, seed and
a SHA-256 hash of the fully resolved inputs, the message log's content
included; it is written next to the ``--out`` artifact
(``<out>.manifest.json``) or to stderr when the artifact goes to stdout.
Runs with identical configuration and seed produce byte-identical artifacts.

Exit codes:
    0  success
    2  bad input (missing file, malformed log or config, bad flag values)
    3  singular market-price-of-risk system
    4  simulation failure (grid breach, every path aborted, degenerate book)
    5  estimation failure (too few bars, empty panel, unusable series)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import warnings
from pathlib import Path

from . import __version__
from . import calibration, pricing
from .errors import (
    BookVolError,
    ConfigError,
    FitError,
    OrderError,
    SimulationError,
    SingularSystemError,
)
from .lob import Side, replay
from .params import (ModelParams, _integer, _number, _numbers, demo_params, params_from_dict,
                     params_to_dict)
from .riskneutral import simulate_ensemble

# the keys of each section; the "model" section is a parameter file, for params_from_dict
_SECTIONS = {"sheet": {"seed"}, "replay": {"opening_price", "strict"},
             "pricing": {"strikes", "expiry", "dt", "paths", "seed", "rate"},
             "simulate": {"measure", "expiry", "dt", "paths", "seed"},
             "calibrate": {"pi0", "K", "delta_p", "p_min", "p_max", "strict"}}


def _num(x) -> str:
    return format(float(x), ".10g")


# ----------------------------------------------------------------------
# configuration

def _load_config(path: str | None) -> dict:
    """Read a config file; a bare parameter file becomes its model section."""
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    if "buckets" in raw:            # a parameter file used directly as config
        return {"model": raw}
    sections = sorted(set(raw) - {"model", *_SECTIONS})
    keys = sorted(f"{name}.{key}" for name, known in _SECTIONS.items()
                  if isinstance(raw.get(name), dict) for key in raw[name].keys() - known)
    for what, unknown in (("sections", sections), ("keys", keys)):
        if unknown:
            print(f"warning: ignoring unknown config {what} {unknown}", file=sys.stderr)
    return raw


def _resolve_params(cfg: dict) -> ModelParams:
    if "model" in cfg:
        return params_from_dict(cfg["model"])
    return demo_params()


def _setting(cfg: dict, section: str, key: str, read, default=None, flag=None):
    """The setting `section.key`, read by `read` (such as `_integer`) and named
    `section.key` in its errors.  Precedence: the command-line `flag` unless
    it is None, then the config entry, then `default`.  With no default the
    setting is required.  A missing required setting is a ConfigError, and so
    is a config section that is not a JSON object, whichever value wins."""
    sec = cfg.get(section, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {section!r} must be a JSON object")
    if flag is None and key not in sec and default is None:
        raise ConfigError(f"{section} needs a config with a {section!r} section holding {key!r}")
    return read(flag if flag is not None else sec.get(key, default), f"{section}.{key}")


def _boolean(value, name: str) -> bool:
    """A config switch: JSON true or false only, so the string "false" is a
    ConfigError naming `name` rather than a true value."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _measure(value, name: str) -> str:
    """The simulation measure: "risk_neutral" (Q) or "physical" (P)."""
    if value not in ("risk_neutral", "physical"):
        raise ConfigError(f"{name} must be 'risk_neutral' or 'physical', got {value!r}")
    return value


def _run_settings(args, cfg: dict, section: str, default_paths: int) -> tuple:
    """Checked (seed, paths, expiry, dt) of a simulation; the seed falls back to sheet.seed."""
    seed = _setting(cfg, section, "seed", _integer,
                    _setting(cfg, "sheet", "seed", _integer, 0), args.seed)
    n_paths = _setting(cfg, section, "paths", _integer, default_paths, args.paths)
    expiry = _setting(cfg, section, "expiry", _number, 0.02, args.expiry)
    dt = _setting(cfg, section, "dt", _number, pricing.ONE_MINUTE_YEARS, args.dt)
    pricing.check_run(expiry, n_paths, dt, seed)
    return seed, n_paths, expiry, dt


def _parse_strikes(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"--strikes must be comma-separated numbers: {exc}") from exc


# ----------------------------------------------------------------------
# manifest and artifact output

def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _write_artifact(text: str, out: str | None, command: str, seed: int,
                    effective: dict) -> None:
    """Write the artifact and its manifest.

    The manifest hash covers the fully resolved inputs (flags merged over
    config, model parameters and the SHA-256 of a message log's text
    included), so two runs with the same hash and seed are guaranteed
    byte-identical.
    """
    canonical = json.dumps(effective, sort_keys=True, separators=(",", ":"))
    manifest = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "config_sha256": _sha256(canonical),
    }
    manifest_text = json.dumps(manifest, sort_keys=True, indent=1) + "\n"
    if out is None:
        sys.stdout.write(text)
        sys.stderr.write("manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
    else:
        Path(out).write_text(text)
        Path(out + ".manifest.json").write_text(manifest_text)
        print(f"wrote {out} and {out}.manifest.json", file=sys.stderr)


def _read_log(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read message log {path}: {exc}") from exc


# ----------------------------------------------------------------------
# commands

def cmd_replay(args) -> int:
    cfg = _load_config(args.config)
    strict = _setting(cfg, "replay", "strict", _boolean, False)
    log = _read_log(args.log)
    parsed = calibration.parse_messages(log, strict=strict)
    if parsed.issues:
        print(f"warning: {len(parsed.issues)} malformed lines skipped", file=sys.stderr)
        if args.verbose:
            for issue in parsed.issues[:20]:
                print(f"  line {issue.line_no}: {issue.reason}", file=sys.stderr)
    events = parsed.events
    if not events:
        raise OrderError(f"message log {args.log} holds no events")
    opening = _setting(cfg, "replay", "opening_price", _number, events[0].price)
    result = replay(events, opening)
    if result.orphan_deletes or result.orphan_modifies:
        print(f"warning: {result.orphan_deletes} orphan deletes, "
              f"{result.orphan_modifies} orphan modifies", file=sys.stderr)

    lines = ["# trades", "price,quantity,maker_id,taker_id"]
    lines += [f"{_num(t.price)},{_num(t.quantity)},{t.maker_id},{t.taker_id}"
              for t in result.trades]
    lines += ["# clearing series", "timestamp_ns,price"]
    lines += [f"{ts},{_num(p)}" for ts, p in result.clearing_prices]
    lines += ["# clearing price", f"pi,{_num(result.book.clearing_price)}"]
    for label, side in (("buy book", Side.BUY), ("sell book", Side.SELL)):
        lines += [f"# {label}", "price,quantity"]
        lines += [f"{_num(p)},{_num(q)}" for p, q in result.book.book_table(side).items()]
    text = "\n".join(lines) + "\n"

    effective = {"command": "replay", "log_sha256": _sha256(log), "opening_price": opening}
    _write_artifact(text, args.out, "replay", seed=0, effective=effective)
    return 0


def _report_text(report) -> str:
    p = report.params
    lines = ["# per-bucket fits", "k,a_per_hour,mean_logq,sigma_rel"]
    lines += [f"{k},{_num(a)},{_num(m)},{_num(s)}" for k, a, m, s in
              zip(range(-p.K + 1, p.K + 1), p.a_q, p.mean_logq, p.sigma_q_rel)]
    lines += [
        "# edge aggregate",
        f"a_per_hour,{_num(p.a_edge)}",
        f"mean_log,{_num(p.mean_log_edge)}",
        f"sigma_rel,{_num(p.sigma_edge_rel)}",
        "# clearing-price diagnostics",
        f"pi_last,{_num(p.pi0)}",
        f"drift_per_bar,{_num(report.drift_c)}",
        f"jarque_bera,{_num(report.jb_stat)}",
        f"jarque_bera_pvalue,{_num(report.jb_pvalue)}",
        "# clearing-price summary",
        report.summary.to_text().rstrip("\n"),
    ]
    return "\n".join(lines) + "\n"


def cmd_calibrate(args) -> int:
    cfg = _load_config(args.config)
    pi0 = _setting(cfg, "calibrate", "pi0", _number)
    K = _setting(cfg, "calibrate", "K", _integer)
    delta_p = _setting(cfg, "calibrate", "delta_p", _number)
    p_min = _setting(cfg, "calibrate", "p_min", _number, calibration.PRICE_WINDOW[0])
    p_max = _setting(cfg, "calibrate", "p_max", _number, calibration.PRICE_WINDOW[1])
    strict = _setting(cfg, "calibrate", "strict", _boolean, False)

    log = _read_log(args.log)
    report = calibration.calibrate(log, pi0=pi0, K=K, delta_p=delta_p,
                                   strict=strict, p_min=p_min, p_max=p_max)
    artifact = json.dumps(params_to_dict(report.params), indent=1) + "\n"
    if args.verbose:
        sys.stderr.write(_report_text(report))

    effective = {"command": "calibrate", "log_sha256": _sha256(log), "pi0": pi0, "K": K,
                 "delta_p": delta_p, "p_min": p_min, "p_max": p_max,
                 "strict": strict}
    _write_artifact(artifact, args.out, "calibrate", seed=0, effective=effective)
    return 0


def _steps_text(diag) -> str:
    """The per-step table of a simulation: alive paths and aborts by cause."""
    lines = ["# per-step diagnostics",
             "step,alive,aborted_top,aborted_bottom,aborted_broken,"
             "aborted_singular,path0_rel_residual"]
    lines += [f"{step},{r.alive},{r.top},{r.bottom},{r.broken},{r.singular},"
              f"{r.residual:.6e}" for step, r in enumerate(diag.rows)]
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    params = _resolve_params(cfg)
    seed, n_paths, expiry, dt = _run_settings(args, cfg, "simulate", 100)
    measure = _setting(cfg, "simulate", "measure", _measure, "risk_neutral")

    hours = pricing.TRADING_HOURS_PER_YEAR
    ens, diag, _ = simulate_ensemble(params, n_paths, expiry * hours, dt * hours,
                                     seed=seed, risk_neutral=measure == "risk_neutral")
    if args.verbose:
        sys.stderr.write(_steps_text(diag))
    if diag.n_aborted:
        print(f"warning: {diag.n_aborted} of {n_paths} paths aborted", file=sys.stderr)

    lines = ["# terminal clearing prices", "path,pi,alive"]
    lines += [f"{i},{_num(ens.pi[i])},{int(ens.alive[i])}" for i in range(n_paths)]
    lines += [
        "# diagnostics",
        f"measure,{measure}",
        f"n_paths,{n_paths}",
        f"n_steps,{diag.n_steps}",
        f"n_aborted_top,{diag.n_aborted_top}",
        f"n_aborted_bottom,{diag.n_aborted_bottom}",
        f"n_aborted_broken,{diag.n_aborted_broken}",
        f"n_aborted_singular,{diag.n_aborted_singular}",
        f"max_rel_residual,{diag.max_rel_residual:.6e}",
    ]
    text = "\n".join(lines) + "\n"

    effective = {"command": "simulate", "measure": measure, "expiry": expiry,
                 "dt": dt, "paths": n_paths, "seed": seed,
                 "model": params_to_dict(params)}
    _write_artifact(text, args.out, "simulate", seed=seed, effective=effective)
    return 0


def _build_request(args, cfg: dict, params: ModelParams) -> pricing.PricingRequest:
    seed, n_paths, expiry, dt = _run_settings(args, cfg, "pricing", 10_000)
    rate = _setting(cfg, "pricing", "rate", _number, 0.0)
    flag = None if args.strikes is None else _parse_strikes(args.strikes)
    strikes = _setting(cfg, "pricing", "strikes", _numbers, [params.pi0], flag)
    return pricing.PricingRequest(strikes=tuple(strikes), expiry=expiry,
                                  n_paths=n_paths, dt=dt, seed=seed, rate=rate)


def _price_text(table: pricing.SmileTable) -> str:
    lines = ["strike,price,std_error"]
    lines += [f"{_num(q.strike)},{_num(q.price)},{_num(q.std_error)}" for q in table.quotes]
    lines += ["# diagnostics", f"n_aborted_paths,{table.n_aborted_paths}"]
    return "\n".join(lines) + "\n"


def _cmd_quotes(args, command: str, render) -> int:
    """Shared body of ``price`` and ``smile``, which differ only in the table text."""
    cfg = _load_config(args.config)
    params = _resolve_params(cfg)
    req = _build_request(args, cfg, params)
    text = render(pricing.smile(params, req))
    effective = {"command": command, "strikes": list(req.strikes),
                 "expiry": req.expiry, "dt": req.dt, "paths": req.n_paths,
                 "seed": req.seed, "rate": req.rate,
                 "model": params_to_dict(params)}
    _write_artifact(text, args.out, command, seed=req.seed, effective=effective)
    return 0


def cmd_price(args) -> int:
    return _cmd_quotes(args, "price", _price_text)


def cmd_smile(args) -> int:
    return _cmd_quotes(args, "smile", pricing.SmileTable.to_text)


# ----------------------------------------------------------------------
# parser and entry point

def _add_common(sub, *, log=False, paths=False, strikes=False, verbose=False):
    if log:
        sub.add_argument("log", help="message-log file (msg_type,side,ts_ns,id,price,size)")
    sub.add_argument("--config", help="JSON config file (or a parameter file)")
    if paths:
        sub.add_argument("--seed", type=int, help="noise seed (overrides config)")
        sub.add_argument("--paths", type=int, help="number of Monte-Carlo paths")
        sub.add_argument("--expiry", type=float, help="horizon in trading years")
        sub.add_argument("--dt", type=float,
                         help="step in trading years (default: one minute)")
    if strikes:
        sub.add_argument("--strikes", help="comma-separated strike list")
    sub.add_argument("--out", help="artifact path (default: stdout)")
    if verbose:
        sub.add_argument("--verbose", action="store_true",
                         help="extra diagnostics on stderr")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bookvol",
        description="Order-book liquidity model: matching, calibration, "
                    "simulation and option pricing.",
        epilog="exit codes: 0 ok, 2 bad input, 3 singular risk system, "
               "4 simulation failure, 5 estimation failure",
    )
    parser.add_argument("--version", action="version", version=f"bookvol {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("replay", help="replay a message log through the matching engine")
    _add_common(p, log=True, verbose=True)
    p.set_defaults(func=cmd_replay)

    p = subs.add_parser("calibrate", help="fit model parameters from a message log")
    _add_common(p, log=True, verbose=True)
    p.set_defaults(func=cmd_calibrate)

    p = subs.add_parser("simulate", help="simulate terminal clearing prices")
    _add_common(p, paths=True, verbose=True)
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("price", help="Monte-Carlo option quotes")
    _add_common(p, paths=True, strikes=True)
    p.set_defaults(func=cmd_price)

    p = subs.add_parser("smile", help="option quotes with implied vols")
    _add_common(p, paths=True, strikes=True)
    p.set_defaults(func=cmd_smile)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # a shown warning (malformed log lines skipped, aborted paths)
        # prints as one "warning: <message>" line, like the CLI's own; the
        # warning filters, -W error included, are left as they are
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SingularSystemError as exc:
        print(f"numerical failure (singular risk system): {exc}", file=sys.stderr)
        return 3
    except SimulationError as exc:
        print(f"numerical failure (simulation): {exc}", file=sys.stderr)
        return 4
    except FitError as exc:
        print(f"numerical failure (estimation): {exc}", file=sys.stderr)
        return 5
    except BookVolError as exc:        # anything new defaults to "bad input"
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
