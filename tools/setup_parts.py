"""Time each part of a problem build and count its minor page faults.

    PYTHONPATH=src python tools/setup_parts.py --bp 5 --p 3 --k 10 --ranks 2

Builds one config `--builds` times with one problem alive at a time, as
the benchmark's set-up loop (perfbench.measure.build_points) does, making
the calls bakeoff.build_problem makes.  For each part (mesh, geometry,
plan, operator, right-hand side, preconditioner) and for the whole build
it prints the median milliseconds and the median minor page faults per
build, from getrusage of this process.  The first two builds are
skipped: the heap is still growing to its working size during them.
Uses the standard library and sembench only.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import time

from sembench.assembly import build_gather_scatter
from sembench.bakeoff import Problem, RunConfig, build_rhs, make_operator
from sembench.basis import make_basis
from sembench.krylov import make_preconditioner
from sembench.mesh import build_box_mesh, compute_geometric_factors

PARTS = ("mesh", "geometry", "plan", "operator", "rhs", "preconditioner")
SKIPPED = 2


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def build(config: RunConfig, samples: dict) -> Problem:
    """Build config's problem; append each part's (seconds, faults)."""

    def part(name, fn, *args, **kwargs):
        f0, t0 = _minflt(), time.perf_counter()
        out = fn(*args, **kwargs)
        samples[name].append((time.perf_counter() - t0, _minflt() - f0))
        return out

    spec = config.spec
    f0, t0 = _minflt(), time.perf_counter()
    basis = make_basis(config.p, spec.quad)
    mesh = part("mesh", build_box_mesh, config.k, config.p)
    geom = part("geometry", compute_geometric_factors, mesh, basis,
                config.block if config.strategy == "blocked" else None)
    gs = part("plan", build_gather_scatter, mesh, bc=spec.bc,
              ranks=config.ranks, block=geom.block)
    op = part("operator", make_operator, spec, basis, geom, config.strategy,
              config.block)
    b = part("rhs", build_rhs, mesh, basis, geom, gs, spec.components)
    minv = (part("preconditioner", make_preconditioner, op, gs)
            if config.mode == "bp" else None)
    problem = Problem(config, mesh, basis, geom, gs, op, b, minv)
    samples["total"].append((time.perf_counter() - t0, _minflt() - f0))
    return problem


def measure(config: RunConfig, builds: int) -> dict:
    """{part: (median ms, median faults)} over builds after the first two."""
    samples = {name: [] for name in PARTS + ("total",)}
    problem = None
    for _ in range(builds):
        problem = None          # keep one problem alive, as a user would
        problem = build(config, samples)
    del problem
    return {name: (1e3 * statistics.median(t for t, _ in runs[SKIPPED:]),
                   statistics.median(f for _, f in runs[SKIPPED:]))
            for name, runs in samples.items() if runs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bp", type=int, required=True)
    ap.add_argument("--p", type=int, required=True)
    ap.add_argument("--k", type=int, required=True)
    ap.add_argument("--ranks", type=int, default=1)
    ap.add_argument("--mode", default="bp")
    ap.add_argument("--strategy", default="sumfact")
    ap.add_argument("--builds", type=int, default=12)
    args = ap.parse_args(argv)
    if args.builds <= SKIPPED:
        ap.error(f"--builds must be more than {SKIPPED}")
    config = RunConfig(bp=args.bp, p=args.p, k=args.k, mode=args.mode,
                       ranks=args.ranks, strategy=args.strategy)
    print(f"bp{config.bp} p={config.p} k={config.k} ranks={config.ranks} "
          f"mode={config.mode} strategy={config.strategy}: medians of "
          f"builds {SKIPPED + 1}-{args.builds}")
    print(f"{'part':<16}{'ms':>10}{'faults':>10}")
    for name, (ms, faults) in measure(config, args.builds).items():
        print(f"{name:<16}{ms:>10.3f}{faults:>10g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
