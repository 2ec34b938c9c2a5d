"""Print SHA-256 digests of the numbers of a fixed grid of solves.

Two commits that print the same digest computed the same bits: x as raw
bytes (so the sign of a zero counts), residual histories, diagnostics, the
right-hand side, the preconditioner, gather-scatter and system-apply
outputs, and the histories of bakeoff.run with two worker threads.  The
grid is BP1-6 x p in {1, 2, 4, 7} x ranks in {1, 3} at k = 4, ten arrays a
point, 480 in all.

Run it against a checkout's own sources, for example

    PYTHONPATH=src python tools/bitwise_digest.py
    PYTHONPATH=/path/to/other/checkout/src python tools/bitwise_digest.py

and compare the last lines: one digest over the ranks=1 half of the grid,
one over the ranks=3 half, then the total.  -v also prints a digest per
point, to find where two commits part.  The script calls only pcg, run,
build_problem and the gather-scatter's public methods, with arguments they
have long taken, so it runs on older commits too.
"""

from __future__ import annotations

import argparse
import hashlib

import numpy as np

from sembench.bakeoff import RunConfig, build_problem, run
from sembench.krylov import SystemApplier, pcg

BPS = (1, 2, 3, 4, 5, 6)
PS = (1, 2, 4, 7)
RANKS = (1, 3)
K = 4


def point_arrays(bp: int, p: int, ranks: int) -> list[np.ndarray]:
    """The ten arrays hashed for one (bp, p, ranks) point, in fixed order."""
    config = RunConfig(bp=bp, p=p, k=K, ranks=ranks, threads=2,
                       iterations=3, trials=2)
    problem = build_problem(config)
    gs, b, minv = problem.gs, problem.b, problem.minv
    applier = SystemApplier(problem.op, gs)
    u = np.random.default_rng(1000 * bp + 10 * p + ranks).standard_normal(
        b.shape)

    x, solve = pcg(applier, gs, b, max_iters=12, minv=minv, diagnostics=True)
    x1, _ = pcg(applier, gs, b, max_iters=1, minv=minv)
    _, energy = pcg(applier, gs, b, max_iters=4, minv=minv,
                    record_energy=True)
    m0 = gs.counters.messages
    gathered = gs.gather_scatter(u)
    result = run(config, problem)
    return [
        b,
        minv,
        gathered,
        applier(u, count=False),
        x,
        solve.residual_history,
        np.array([solve.b_norm, solve.residual_gap,
                  solve.true_residual_norm]),
        x1,
        energy.quadratic_history,
        np.concatenate([result.solver.residual_history,
                        [gs.counters.messages - m0, result.messages,
                         result.reductions]]),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="also print a digest per grid point")
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    by_ranks = {ranks: hashlib.sha256() for ranks in RANKS}
    count = 0
    for bp in BPS:
        for p in PS:
            for ranks in RANKS:
                point = hashlib.sha256()
                for a in point_arrays(bp, p, ranks):
                    a = np.ascontiguousarray(a, dtype=np.float64)
                    point.update(repr(a.shape).encode())
                    point.update(a.tobytes())
                    count += 1
                total.update(point.digest())
                by_ranks[ranks].update(point.digest())
                if args.verbose:
                    print(f"bp{bp} p={p} ranks={ranks} "
                          f"{point.hexdigest()}")
    for ranks, digest in by_ranks.items():
        print(f"ranks={ranks} points sha256 {digest.hexdigest()}")
    print(f"{count} arrays sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
