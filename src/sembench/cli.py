"""Command-line interface: run, sweep, analyze, and verify subcommands.

The CLI is a thin shell over the library; every behavior here is a direct
call into bakeoff, metrics, or verify.  Config files use `key = value` lines
(# comments allowed) with the same keys as the flags; flags win over the
file, the file wins over defaults.  Exit codes: 0 success, 1 runtime
failure, 2 configuration error (a point too large for memory included).
"""

from __future__ import annotations

import argparse
import sys

from . import bakeoff, metrics, verify
from .bakeoff import BP_TABLE, MODES, ConfigError, RunConfig
from .mesh import MeshError
from .operators import STRATEGIES

# Keys accepted in config files; identical to the RunConfig field names.
CONFIG_KEYS = ("bp", "p", "k", "mode", "ranks", "iterations", "strategy",
               "block", "threads", "deterministic", "trials", "instrument")

_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


def parse_int_list(text: str) -> list:
    """Parse "7", "2,4,8", or an inclusive range "2..6"."""
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ConfigError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",") if part.strip()]


def _parse_bool(key: str, value: str) -> bool:
    try:
        return _BOOL_WORDS[value.strip().lower()]
    except KeyError:
        raise ConfigError(f"{key} expects a boolean, got {value!r}") from None


def load_config(path: str) -> dict:
    """Read a `key = value` config file into typed values."""
    values: dict = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in ("deterministic", "instrument"):
            values[key] = _parse_bool(key, value)
        elif key in ("mode", "strategy"):
            values[key] = value
        elif key in ("p", "k"):
            values[key] = value          # kept textual; may be a list
        else:
            try:
                values[key] = int(value)
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: {key} expects an integer") from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sembench",
        description="Matrix-free spectral element operator benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(sp, sweep: bool):
        sp.add_argument("--bp", type=int, help="problem id 1..6")
        sp.add_argument("--mode", choices=MODES,
                        help="bk = local kernel only, bp = full solve")
        sp.add_argument("--p", help="polynomial order" +
                        (" (int, list, or lo..hi)" if sweep else ""))
        sp.add_argument("--k", help="element exponent, E = 2^k" +
                        (" (int, list, or lo..hi)" if sweep else ""))
        sp.add_argument("--ranks", type=int, help="simulated rank count")
        sp.add_argument("--iters", type=int, dest="iterations",
                        help="iteration count (default 100)")
        sp.add_argument("--strategy", choices=STRATEGIES)
        sp.add_argument("--block", type=int, choices=(4, 8),
                        help="elements per batch for --strategy blocked")
        sp.add_argument("--threads", type=int,
                        help="worker threads (default: SEMBENCH_THREADS "
                             "or hardware count)")
        sp.add_argument("--deterministic", action="store_true", default=None,
                        help="bitwise-reproducible reductions (default on; "
                             "a config file may turn it off)")
        sp.add_argument("--instrument", action="store_true", default=None,
                        help="accumulate flop/byte counters during timed runs")
        sp.add_argument("--trials", type=int,
                        help="timed repetitions, median kept (default 3)")
        sp.add_argument("--config", help="key = value config file")
        sp.add_argument("--out", help="write the CSV dataset here")
        sp.add_argument("--quiet", action="store_true")

    sp_run = sub.add_parser("run", help="run one benchmark point")
    add_run_flags(sp_run, sweep=False)

    sp_sweep = sub.add_parser("sweep", help="run a p x k grid")
    add_run_flags(sp_sweep, sweep=True)
    sp_sweep.add_argument("--plot", help="also write plot-data blocks here")

    sp_an = sub.add_parser("analyze", help="summarize a sweep CSV")
    sp_an.add_argument("dataset", help="CSV file written by run/sweep")
    sp_an.add_argument("--out", help="write the per-(bp,p) summary CSV here")
    sp_an.add_argument("--quiet", action="store_true")

    sp_ver = sub.add_parser("verify", help="run the correctness suites")
    sp_ver.add_argument("--check", action="append", choices=verify.CHECKS,
                        help="run only this suite (repeatable)")
    sp_ver.add_argument("--p", type=int, help="override the suite order")
    sp_ver.add_argument("--k", type=int, help="override the suite mesh size")
    sp_ver.add_argument("--quiet", action="store_true")
    return parser


def _merged_value(args, config: dict, key: str, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return default


def _resolve_configs(args, sweep: bool):
    """defaults < config file < flags; returns kwargs plus p/k lists."""
    config = load_config(args.config) if args.config else {}
    bp = _merged_value(args, config, "bp", None)
    if bp is None:
        raise ConfigError("--bp is required (1..6)")
    p_text = _merged_value(args, config, "p", None)
    k_text = _merged_value(args, config, "k", None)
    if p_text is None or k_text is None:
        raise ConfigError("--p and --k are required")
    try:
        p_list = parse_int_list(str(p_text))
        k_list = parse_int_list(str(k_text))
    except ValueError:
        raise ConfigError(f"cannot parse --p {p_text!r} / --k {k_text!r}"
                          ) from None
    if not sweep and (len(p_list) != 1 or len(k_list) != 1):
        raise ConfigError("run takes a single --p and --k; use sweep for "
                          "lists")
    kwargs = dict(
        bp=int(bp),
        mode=_merged_value(args, config, "mode", "bp"),
        ranks=_merged_value(args, config, "ranks", 1),
        iterations=_merged_value(args, config, "iterations", 100),
        strategy=_merged_value(args, config, "strategy", "sumfact"),
        block=_merged_value(args, config, "block", 8),
        threads=_merged_value(args, config, "threads", None),
        deterministic=_merged_value(args, config, "deterministic", True),
        trials=_merged_value(args, config, "trials", 3),
        instrument=bool(_merged_value(args, config, "instrument", False)),
    )
    return kwargs, p_list, k_list


def cmd_run(args) -> int:
    kwargs, p_list, k_list = _resolve_configs(args, sweep=False)
    config = RunConfig(p=p_list[0], k=k_list[0], **kwargs)
    result = bakeoff.run(config)
    print(metrics.csv_header())
    print(metrics.csv_line(result))
    if args.out:
        metrics.emit_csv([result], args.out)
    return 0


def cmd_sweep(args) -> int:
    kwargs, p_list, k_list = _resolve_configs(args, sweep=True)
    mode = kwargs.pop("mode")
    bp = kwargs.pop("bp")

    def progress(result):
        if not args.quiet:
            cfg = result.config
            print(f"bp{cfg.bp} {cfg.mode} p={cfg.p} k={cfg.k} "
                  f"ranks={cfg.ranks} n={result.n} "
                  f"rate={result.dofs_rate:.4g} pts/(rank s)")

    results, failures = bakeoff.sweep(
        bp, p_list, k_list, mode=mode, progress=progress, **kwargs)
    if args.out:
        metrics.emit_csv(results, args.out)
        if not args.quiet:
            print(f"wrote {len(results)} rows to {args.out}")
    else:
        print(metrics.csv_header())
        for result in results:
            print(metrics.csv_line(result))
    if args.plot:
        metrics.emit_plot_data(results, args.plot)
        if not args.quiet:
            print(f"wrote plot data to {args.plot}")
    for failure in failures:
        print(f"failed: p={failure.p} k={failure.k}: {failure.error}",
              file=sys.stderr)
    return 1 if failures else 0


def cmd_analyze(args) -> int:
    rows = metrics.read_csv(args.dataset)
    if not rows:
        raise metrics.MetricsError(f"{args.dataset}: no data rows")
    summaries = metrics.group_metrics(rows)
    if not args.quiet:
        print(f"{'bp':>2} {'p':>2} {'r_max':>14} {'n_08':>12} {'t_08':>14} "
              f"flags")
        for (bp, p), s in summaries.items():
            flag = "degenerate" if s.degenerate else ""
            print(f"{bp:>2} {p:>2} {s.r_max:>14.6g} {s.n_08:>12.6g} "
                  f"{s.t_08:>14.6g} {flag}")
    curves = metrics.efficiency_groups(rows)
    if curves and not args.quiet:
        print("\nparallel efficiency (baseline = smallest rank count):")
        for (bp, p, k), curve in curves.items():
            etas = "  ".join(f"P={pp}: {eta:.3f}"
                             for (pp, _, eta) in curve.entries)
            print(f"  bp{bp} p={p} k={k}: {etas}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("bp_id,p,r_max,n_08,t_08,degenerate,samples\n")
            for (bp, p), s in summaries.items():
                fh.write(f"{bp},{p},{s.r_max:.17g},{s.n_08:.17g},"
                         f"{s.t_08:.17g},{int(s.degenerate)},{s.samples}\n")
    return 0


def cmd_verify(args) -> int:
    names = args.check if args.check else None
    overrides: dict = {}
    if args.p is not None or args.k is not None:
        p = args.p
        k = args.k if args.k is not None else 3
        if p is not None:
            overrides["csr-equivalence"] = dict(
                pairs=((p, p + 1), (p, p + 2)), ks=(k,))
            overrides["strategy-equivalence"] = dict(p_list=[p], k=k)
            overrides["even-odd"] = dict(p_list=[p])
            overrides["qtq-multiplicity"] = dict(cases=((k, min(p, 3)),))
        else:
            overrides["csr-equivalence"] = dict(ks=(k,))
            overrides["strategy-equivalence"] = dict(k=k)
            overrides["qtq-multiplicity"] = dict(cases=((k, 3),))
    results = verify.run_suites(names, overrides)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if not args.quiet or not r.passed:
            print(f"{status} {r.name}: {r.detail}")
    if failed:
        print(f"verify failed: {failed[0].name}", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {"run": cmd_run, "sweep": cmd_sweep, "analyze": cmd_analyze,
             "verify": cmd_verify}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, metrics.MetricsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (MeshError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
