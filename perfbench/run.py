"""Run the sembench benchmark.

    python3 perfbench/run.py --workload bp3-p7 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ./src.  With
--trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run (see spec.py).  End-to-end times are
in units of a host reference kernel timed next to every run call, which
cancels most of a shared host's drift; the seconds are printed too.
Without --workload every workload runs untraced, each in its own process.
The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}.
The full record (environment, host reference, samples, gate) goes to the
line before it and, with the trace's spans, to a file under --out.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import astuple, fields
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_library():
    """Import sembench from ./src of the checkout, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    try:
        import sembench
    except ImportError as exc:
        sys.exit(f"run.py: cannot import sembench from {src}: {exc}")
    if Path(sembench.__file__).resolve().parent != (src / "sembench"):
        sys.exit(f"run.py: sembench came from {sembench.__file__}, "
                 f"not from {src}")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    help="workload name, or 'all' (the default)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(ROOT / "perfbench" / "out"),
                    help="directory for the record and trace files")
    return ap.parse_args(argv)


def _result_line(correct, attempted, failed, values, unit_of) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in values.items()},
    })


def run_one(args) -> int:
    from perfbench import environment, measure, spec
    from perfbench.spans import Span
    from perfbench.workloads import BY_NAME

    workload = BY_NAME.get(args.workload)
    if workload is None:
        sys.exit(f"run.py: unknown workload {args.workload!r}; "
                 f"choose from {sorted(BY_NAME)} or 'all'")
    env = environment.environment(ROOT)
    state_start = environment.host_state()
    m = measure.measure(workload, args.seed, args.seconds, bool(args.trace))
    unit_of = spec.units(bool(args.trace))
    missing = set(unit_of) ^ set(m.values)
    if missing:
        raise RuntimeError(f"metrics emitted and specified differ: {missing}")

    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "host_start": state_start,
              "host_end": environment.host_state(), **m.record}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}.trace{args.trace}"
    with open(out / f"{stem}.json", "w") as fh:
        json.dump({"record": record, "metrics": m.values}, fh, indent=1)
    if args.trace:
        with open(out / f"{stem}.spans.json", "w") as fh:
            json.dump({"fields": [f.name for f in fields(Span)],
                       "spans": [astuple(s) for s in m.spans]}, fh)

    for name, value in m.values.items():
        print(f"{workload.name:10s} {name:38s} {value:.6g} {unit_of[name]}")
    print(f"{workload.name:10s} correct={m.correct} attempted={m.attempted} "
          f"failed={m.failed} samples={m.record['iter_samples']} "
          f"host_ref_s={m.record['host_ref_s']:.6g}")
    if not args.trace:
        print(f"{workload.name:10s} in seconds: " + " ".join(
            f"{k}={v:.6g}" for k, v in m.record["seconds"].items()
            if v is not None))
    print("record " + json.dumps(record))
    print(_result_line(m.correct, m.attempted, m.failed, m.values, unit_of))
    return 0


def run_all(args) -> int:
    """Every workload, each in a process of its own so peak RSS is its own."""
    from perfbench import spec
    from perfbench.workloads import WORKLOADS

    unit_of = spec.units(bool(args.trace))
    values, units = {}, {}
    attempted = failed = 0
    correct = True
    for w in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", w.name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", args.out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w.name}: failed with exit code {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            if not line.startswith("record "):
                print(line)
        res = json.loads(lines[-1])
        correct = correct and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for name, m in res["metrics"].items():
            values[f"{w.name}.{name}"] = m["value"]
            units[f"{w.name}.{name}"] = unit_of[name]
    print(f"all workloads: correct={correct} attempted={attempted} "
          f"failed={failed} error_rate={failed / attempted:.6g}")
    print(_result_line(correct, attempted, failed, values, units))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    _import_library()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
