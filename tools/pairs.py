"""Compare two checkouts on one benchmark workload in alternating pairs.

    python tools/pairs.py --parent /path/to/parent --change . \
        --workload bp5-p3-r2 --seeds 101 102 103 104 105 106 107 108 109 110

Each seed is one pair: `perfbench/run.py --trace 0` runs once in each
checkout, the parent first on even pairs and the change first on odd ones,
each run in its own process with the checkout as its working directory.
Nothing under either checkout is written; the run records go to a
temporary directory.

For every end-to-end metric of the change's BENCHMARK.json the script
prints each side's median and quartiles, and how many pairs the change
won (ties count for neither side).  Then it gives a verdict:

    gain        the change won at least 9 of 10 pairs, and the medians
                differ, in the better direction, by more than the
                parent's interquartile range;
    ok          not worse than the parent's median by more than the
                metric's bound;
    worse       worse than that;
    unresolved  the runs spread wider than the bound (either side's
                interquartile range over the parent's median), and not
                every change run beat every parent run.

A run that exits non-zero or reports correct=false stops the script.
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path,
                    help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path,
                    help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=int, nargs="+",
                    help="one seed per pair")
    ap.add_argument("--seconds", type=float, default=25.0)
    return ap.parse_args(argv)


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             out: str) -> dict:
    """The metric values of one untraced run.py run in checkout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--out", out]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"pairs.py: {checkout}: run.py exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"pairs.py: {checkout}: run.py reported incorrect output")
    return {k: m["value"] for k, m in result["metrics"].items()}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], lower: bool,
            bound: float) -> tuple[int, str]:
    """(wins of the change, verdict) for one metric; see the module doc."""
    sign = 1.0 if lower else -1.0
    wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (pm - cm)             # > 0 when the change is better
    if wins >= 0.9 * len(parent) and gain > p3 - p1:
        return wins, "gain"
    scale = abs(pm) or 1.0
    every_run_better = all(sign * (c - p) < 0.0
                           for c in change for p in parent)
    if max(p3 - p1, c3 - c1) / scale > bound and not every_run_better:
        return wins, "unresolved"
    return wins, "worse" if -gain / scale > bound else "ok"


def main(argv=None) -> int:
    args = _parse(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as out:
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                runs[side].append(run_once(checkout, args.workload, seed,
                                           args.seconds, out))
            print(f"pair {i + 1}/{len(args.seeds)} seed {seed}: " + " ".join(
                f"{m['name']} {runs['parent'][-1][m['name']]:.6g}->"
                f"{runs['change'][-1][m['name']]:.6g}"
                for m in metrics if m["name"] in runs["parent"][-1]),
                flush=True)

    n = len(args.seeds)
    print(f"\n{args.workload}, {n} pairs; median [q1, q3]")
    print(f"{'metric':15s} {'parent':>34s} {'change':>34s} "
          f"{'wins':>6s} verdict")
    for m in metrics:
        name = m["name"]
        if name not in runs["parent"][0]:
            continue
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        wins, word = verdict(parent, change, m["better"] == "lower",
                             m["bound"])
        cols = []
        for xs in (parent, change):
            q1, q2, q3 = quartiles(xs)
            cols.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}]")
        print(f"{name:15s} {cols[0]:>34s} {cols[1]:>34s} "
              f"{wins:>3d}/{n:<2d} {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
