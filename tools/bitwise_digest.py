"""Print SHA-256 digests of the numbers of a fixed grid of solves.

Two commits that print the same digest computed the same bits: x as raw
bytes (so the sign of a zero counts), residual histories, diagnostics, the
right-hand side, the preconditioner, gather-scatter and system-apply
outputs, and the histories of bakeoff.run with threads=2 (recorded only:
every apply is serial).  The grid is BP1-6 x p in {1, 2, 4, 7} x ranks in
{1, 3} at k = 4, ten arrays a point, 480 in all, every one with the
default sumfact strategy.  A second grid covers the other strategies:
BP3-6 x p in {1, 2, 4, 7} x interpfirst, evenodd and blocked at ranks = 1
and k = 4, four arrays a point (a seeded local apply, x and the residual
history of pcg, and the preconditioner).  At k = 4 every q <= 12 is one
storage block, so a third grid covers setup over several: BP1, BP3 and
BP5 x p in {1, 2, 3, 5, 7}, each at the smallest k that gives at least
four default storage blocks, six arrays a point (the element coordinates,
the three geometric factors, b and the preconditioner).

Run it against a checkout's own sources, for example

    PYTHONPATH=src python tools/bitwise_digest.py
    PYTHONPATH=/path/to/other/checkout/src python tools/bitwise_digest.py

and compare the last lines: one digest over the ranks=1 half of the grid,
one over the ranks=3 half, the total, then the digests of the strategies
grid and of the setup grid.  -v also prints a digest per point, to find
where two commits part.
The script calls only pcg, run, build_problem, the operator's apply_local
and the gather-scatter's public methods, with arguments they have long
taken, so it runs on older commits too.
"""

from __future__ import annotations

import argparse
import hashlib

import numpy as np

from sembench.bakeoff import RunConfig, build_problem, run
from sembench.krylov import SystemApplier, pcg
from sembench.tensors import batch_size

BPS = (1, 2, 3, 4, 5, 6)
PS = (1, 2, 4, 7)
RANKS = (1, 3)
K = 4
STRATEGY_BPS = (3, 4, 5, 6)
STRATEGIES = ("interpfirst", "evenodd", "blocked")
SETUP_BPS = (1, 3, 5)
SETUP_PS = (1, 2, 3, 5, 7)


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


def strategy_arrays(bp: int, p: int, strategy: str) -> list[np.ndarray]:
    """The four arrays hashed for one (bp, p, strategy) point."""
    problem = build_problem(RunConfig(bp=bp, p=p, k=K, strategy=strategy))
    gs, b, minv = problem.gs, problem.b, problem.minv
    u = np.random.default_rng(1000 * bp + 10 * p).standard_normal(b.shape)
    x, solve = pcg(SystemApplier(problem.op, gs), gs, b, max_iters=12,
                   minv=minv)
    return [problem.op.apply_local(u), x, solve.residual_history, minv]


def setup_arrays(bp: int, p: int) -> list[np.ndarray]:
    """The six arrays hashed for one (bp, p) point of the setup grid."""
    q = RunConfig(bp=bp, p=p, k=0).q
    k = (4 * batch_size(q)).bit_length() - 1     # E = 4 default blocks
    problem = build_problem(RunConfig(bp=bp, p=p, k=k))
    geom = problem.geom
    return [problem.mesh.elem_coords, geom.G, geom.mass_diag, geom.jac_det,
            problem.b, problem.minv]


def _update(digest, arrays) -> int:
    """Hash each array's shape and bytes into digest; return the count."""
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        digest.update(repr(a.shape).encode())
        digest.update(a.tobytes())
    return len(arrays)


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
                count += _update(point, point_arrays(bp, p, ranks))
                total.update(point.digest())
                by_ranks[ranks].update(point.digest())
                if args.verbose:
                    print(f"bp{bp} p={p} ranks={ranks} "
                          f"{point.hexdigest()}")
    for ranks, digest in by_ranks.items():
        print(f"ranks={ranks} points sha256 {digest.hexdigest()}")
    print(f"{count} arrays sha256 {total.hexdigest()}")
    strategies = hashlib.sha256()
    count = 0
    for bp in STRATEGY_BPS:
        for p in PS:
            for strategy in STRATEGIES:
                point = hashlib.sha256()
                count += _update(point, strategy_arrays(bp, p, strategy))
                strategies.update(point.digest())
                if args.verbose:
                    print(f"bp{bp} p={p} {strategy} {point.hexdigest()}")
    print(f"strategies {count} arrays sha256 {strategies.hexdigest()}")
    setup = hashlib.sha256()
    count = 0
    for bp in SETUP_BPS:
        for p in SETUP_PS:
            point = hashlib.sha256()
            count += _update(point, setup_arrays(bp, p))
            setup.update(point.digest())
            if args.verbose:
                print(f"bp{bp} p={p} setup {point.hexdigest()}")
    print(f"setup {count} arrays sha256 {setup.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
