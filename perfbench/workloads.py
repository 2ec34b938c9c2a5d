"""The benchmark's workloads.

Each workload is a fixed set of RunConfigs; sizes are the workload's
definition.  Every config pins `threads`, so SEMBENCH_THREADS cannot change
a workload, and no workload asks for more worker threads than two cores
provide.  BP inputs are fixed by the bake-off spec; the seed only sets the
run order and, in BK mode, the input field.
"""

from __future__ import annotations

from dataclasses import dataclass

from sembench.bakeoff import RunConfig


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: tuple

    def __post_init__(self):
        if not self.configs:
            raise ValueError(f"{self.name}: no configs")
        if len({c.trials for c in self.configs}) != 1:
            # A sample sums trial j over every config of the workload.
            raise ValueError(f"{self.name}: configs must share a trial count")

    @property
    def trials(self) -> int:
        return self.configs[0].trials

    @property
    def primary(self) -> RunConfig:
        """The config single-valued metrics are read from: the largest."""
        return max(self.configs, key=lambda c: (c.n, c.k))


# Each run call makes few trials, so the host reference timed after the
# call (see measure.py) is close in time to all of them; the sweep's calls
# are short, so it makes more.
WORKLOADS = (
    Workload(
        "bp3-p7",
        "High-order stiffness kernel case: the local operator is about 95% "
        "of a PCG iteration, so kernel work shows here and threading or "
        "exchange changes should not.",
        (RunConfig(bp=3, p=7, k=9, ranks=1, threads=1, iterations=1,
                   trials=2),),
    ),
    Workload(
        "bp5-p3-r2",
        "Many small elements, so per-element dispatch dominates; the only "
        "workload with a real exchange, a worker pool and a two-partition "
        "gather-scatter plan.",
        (RunConfig(bp=5, p=3, k=10, ranks=2, threads=2, iterations=1,
                   trials=3),),
    ),
    Workload(
        "bk2-p5",
        "BK mode on vector mass: no assembly or krylov work, interpolation "
        "only, three components; shows a stiffness-only gain that slows "
        "mass or vector fields.",
        (RunConfig(bp=2, p=5, k=9, mode="bk", ranks=1, threads=1,
                   iterations=1, trials=2),),
    ),
    Workload(
        "bp1-sweep",
        "The paper's rate-versus-size pipeline (r_max, n_0.8, t_0.8) at "
        "n = 108 to 6,912, where fixed per-iteration costs of the harness, "
        "pcg and dots are a visible share.",
        tuple(RunConfig(bp=1, p=3, k=k, ranks=1, threads=1, iterations=5,
                        trials=4) for k in (2, 4, 6, 8)),
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
