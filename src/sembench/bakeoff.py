"""Bake-off problem definitions and the timed benchmark orchestrator.

The six problems pair an operator (mass or stiffness), a boundary condition,
a quadrature family, and a component count:

    BP1/BP2: mass,      Neumann,   Gauss-Legendre with q = p + 2
    BP3/BP4: stiffness, Dirichlet, Gauss-Legendre with q = p + 2
    BP5/BP6: stiffness, Dirichlet, Gauss-Lobatto-Legendre with q = p + 1

Even ids solve three identical components.  Each problem has two modes: BK
times only repeated unassembled local applies, BP times the full diagonally
preconditioned CG solve (fixed iteration count; the matvec pipeline is
mask . QQ^T . A_L).

The work-rate metric is iterations * points / (ranks * seconds), with points
n = p^3 E counted once per grid point regardless of component count, so that
vector problems report their extra work as a rate change at fixed n.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .assembly import GatherScatter, build_gather_scatter
from .basis import MAX_P, Basis1D, make_basis
from .krylov import PcgRun, SystemApplier, make_preconditioner, pcg
from .mesh import (FACTORS_PER_POINT, MAX_K, BoxMesh, GeomFactors,
                   build_box_mesh, compute_geometric_factors, to_blocks)
from .operators import (BLOCK_SIZES, STRATEGIES, MassOperator,
                        StiffnessOperator)
from .tensors import WORKING_SET_WORDS

THREADS_ENV = "SEMBENCH_THREADS"


class ConfigError(ValueError):
    """Invalid benchmark configuration."""


@dataclass(frozen=True)
class BPSpec:
    """One row of the bake-off table."""

    id: int
    system: str        # "mass" or "stiffness"
    components: int    # 1 or 3
    bc: str            # "neumann" or "dirichlet"
    quad: str          # "GL" or "GLL"

    def q_for(self, p: int) -> int:
        return p + 2 if self.quad == "GL" else p + 1


BP_TABLE = {
    1: BPSpec(1, "mass", 1, "neumann", "GL"),
    2: BPSpec(2, "mass", 3, "neumann", "GL"),
    3: BPSpec(3, "stiffness", 1, "dirichlet", "GL"),
    4: BPSpec(4, "stiffness", 3, "dirichlet", "GL"),
    5: BPSpec(5, "stiffness", 1, "dirichlet", "GLL"),
    6: BPSpec(6, "stiffness", 3, "dirichlet", "GLL"),
}

MODES = ("bk", "bp")


def default_threads() -> int:
    """Thread-count default: environment override, else hardware count."""
    env = os.environ.get(THREADS_ENV)
    if env is not None:
        try:
            n = int(env)
        except ValueError as exc:
            raise ConfigError(f"{THREADS_ENV} must be an integer") from exc
        if n < 1:
            raise ConfigError(f"{THREADS_ENV} must be >= 1")
        return n
    return os.cpu_count() or 1


@dataclass(frozen=True)
class RunConfig:
    """One benchmark point.  E = 2^k elements, simulated rank count `ranks`."""

    bp: int
    p: int
    k: int
    mode: str = "bp"
    ranks: int = 1
    iterations: int = 100
    strategy: str = "sumfact"
    block: int = 8
    threads: int | None = None
    deterministic: bool = True  # accepted, no effect
    trials: int = 3

    def __post_init__(self):
        if self.bp not in BP_TABLE:
            raise ConfigError(f"bp must be 1..6, got {self.bp}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 1 <= self.p <= MAX_P:
            raise ConfigError(f"p must be 1..{MAX_P}, got {self.p}")
        if not 0 <= self.k <= MAX_K:
            raise ConfigError(f"k must be 0..{MAX_K}, got {self.k}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.strategy == "blocked" and self.block not in BLOCK_SIZES:
            sizes = " or ".join(map(str, BLOCK_SIZES))
            raise ConfigError(f"block must be {sizes}, got {self.block}")
        if self.ranks < 1:
            raise ConfigError(f"ranks must be >= 1, got {self.ranks}")
        if self.E < self.ranks:
            raise ConfigError(
                f"E = 2^{self.k} = {self.E} < ranks = {self.ranks}; "
                "at least one element per rank is required")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.threads is not None and self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")

    @property
    def spec(self) -> BPSpec:
        return BP_TABLE[self.bp]

    @property
    def E(self) -> int:
        return 2 ** self.k

    @property
    def q(self) -> int:
        return self.spec.q_for(self.p)

    @property
    def n(self) -> int:
        """Headline point count n = p^3 E (unique points, periodic-free)."""
        return self.p ** 3 * self.E

    def resolved_threads(self) -> int:
        return self.threads if self.threads is not None else default_threads()


@dataclass
class RunResult:
    """Timing record for one configuration; rate is recomputable from it."""

    config: RunConfig
    n: int
    n_per_rank: float
    threads: int
    seconds_total: float
    seconds_per_iter: float
    dofs_rate: float
    flops_measured: int
    messages: int
    reductions: int
    trial_seconds: tuple = ()
    solver: PcgRun | None = None


@dataclass
class Problem:
    """Everything run() builds before the timed loop starts."""

    config: RunConfig
    mesh: BoxMesh
    basis: Basis1D
    geom: GeomFactors
    gs: GatherScatter
    op: object
    b: np.ndarray
    minv: np.ndarray | None


def make_operator(spec: BPSpec, basis: Basis1D, geom: GeomFactors,
                  strategy: str, block: int, instrument: bool = False):
    if spec.system == "stiffness":
        return StiffnessOperator(basis, geom, strategy=strategy, block=block,
                                 instrument=instrument)
    return MassOperator(basis, geom, strategy=strategy, block=block,
                        instrument=instrument)


def build_rhs(mesh: BoxMesh, basis: Basis1D, geom: GeomFactors,
              gs: GatherScatter, components: int) -> np.ndarray:
    """Assembled, masked right-hand side b = mask(QQ^T(B f)).

    f(x, y, z) = sin(pi x) sin(pi y) sin(pi z) sampled at the nodes, in the
    layout of geom.block; vector problems repeat it identically per
    component.  gs is not checked against that layout.
    """
    x, y, z = (mesh.elem_coords[:, c] for c in range(3))
    f = to_blocks(np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z),
                  geom.block)
    mass = MassOperator(basis, geom)
    b = gs.gather_scatter(mass.apply_local(f), count=False)
    if components == 3:
        b = np.stack([b, b, b])
    return b


def estimate_bytes(config: RunConfig) -> int:
    """Resident bytes of a built problem and its solve, from the config alone.

    Setup and the operator run in element batches, so their temporaries
    are a fixed cost; what grows with the mesh is the stored geometric
    factors, the mesh, the plan and the vectors.
    """
    # Words per local node (E p1^3 of them) besides the factors: the mesh
    # coordinates (3); the numbering's map and multiplicity, the plan's
    # slot index and weights and the preconditioner's diagonal (about 5);
    # and per component the right-hand side, the six PCG vectors, the
    # A_L u output and the global-length sums (about 8).  The factors and
    # the local vectors are stored in the same ragged blocks, with no
    # padding.  Setup's metric terms take about 24 batch fields, enough
    # for an apply on up to three threads, whose batches read and write
    # the local vectors in place.
    p1 = config.p + 1
    node_words = 3 + 5 + 8 * config.spec.components
    per_element = FACTORS_PER_POINT * config.q ** 3 + node_words * p1 ** 3
    return 8 * (config.E * per_element + 24 * WORKING_SET_WORDS)


def mem_available_bytes() -> int | None:
    """MemAvailable from /proc/meminfo, or None where it cannot be read."""
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return 1024 * int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


def build_problem(config: RunConfig) -> Problem:
    """Construct mesh, operators, RHS, and preconditioner (all untimed).

    Raises:
        ConfigError: before anything is allocated, when estimate_bytes
            exceeds the memory available; or when a BP problem has no
            free degree of freedom.
    """
    need, available = estimate_bytes(config), mem_available_bytes()
    if available is not None and need > available:
        raise ConfigError(
            f"bp{config.bp} p={config.p} k={config.k} needs about "
            f"{need / 2 ** 30:.2f} GiB, more than the "
            f"{available / 2 ** 30:.2f} GiB available")
    spec = config.spec
    basis = make_basis(config.p, spec.quad)
    mesh = build_box_mesh(config.k, config.p)
    geom = compute_geometric_factors(mesh, basis)
    gs = build_gather_scatter(mesh, bc=spec.bc, ranks=config.ranks,
                              block=geom.block)
    op = make_operator(spec, basis, geom, config.strategy, config.block)
    if config.mode == "bp" and not np.any(gs.mask):
        raise ConfigError(
            f"bp{config.bp} p={config.p} k={config.k} has no free degree "
            "of freedom; every node is on the Dirichlet boundary")
    b = build_rhs(mesh, basis, geom, gs, spec.components)
    minv = make_preconditioner(op, gs) if config.mode == "bp" else None
    return Problem(config, mesh, basis, geom, gs, op, b, minv)


def measure_apply_flops(problem: Problem) -> int:
    """Counted flops of one full local operator apply (all components).

    Every counter increment is proportional to the element count, so one
    element is applied and its count scaled by E.
    """
    cfg = problem.config
    probe = make_operator(cfg.spec, problem.basis, problem.geom,
                          cfg.strategy, cfg.block, instrument=True)
    probe.apply_local(problem.b, elements=(0, 1))
    return probe.counters.total_flops * cfg.E


def run(config: RunConfig, problem: Problem | None = None) -> RunResult:
    """Execute one benchmark point: warm-up, timed trials, median seconds.

    BP mode times the full fixed-iteration PCG solve, which stops early
    only when the residual reaches exactly zero (the rate then counts the
    iterations run); BK mode times `iterations` repeated local applies.
    Setup (mesh, geometric factors, RHS, diagonal) is excluded from the
    timing.  The cyclic garbage collector is paused over the trials, as
    timeit does, so a collection of the caller's heap does not land in or
    between them.
    """
    if problem is None:
        problem = build_problem(config)
    gs, op, b = problem.gs, problem.op, problem.b

    threads = config.resolved_threads()
    executor = None
    if threads > 1 and config.ranks > 1:
        executor = ThreadPoolExecutor(max_workers=min(threads, config.ranks))
    applier = SystemApplier(op, gs, executor)
    try:
        flops_measured = measure_apply_flops(problem)

        def bp_trial():
            m0 = gs.counters.messages
            t0 = time.perf_counter()
            _, rec = pcg(applier, gs, b, max_iters=config.iterations,
                         minv=problem.minv)
            dt = time.perf_counter() - t0
            return dt, gs.counters.messages - m0, rec

        def bk_trial():
            t0 = time.perf_counter()
            for _ in range(config.iterations):
                applier.apply_local(b, out=w)
            return time.perf_counter() - t0, 0, None

        if config.mode == "bp":
            trial = bp_trial
        else:
            w = np.empty_like(b)     # one output for every apply
            trial = bk_trial
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            trial()                               # warm-up, discarded
            outcomes = [trial() for _ in range(config.trials)]
        finally:
            if gc_was_enabled:
                gc.enable()
    finally:
        if executor is not None:
            executor.shutdown(wait=True)

    times = [t for (t, _, _) in outcomes]
    seconds = statistics.median(times)
    _, messages, solver = outcomes[-1]
    reductions = solver.reductions if solver is not None else 0
    # A solve that reaches r = 0 exactly stops early; rate its own steps.
    iterations = solver.iterations if solver is not None else config.iterations

    n = config.n
    rate = iterations * n / (config.ranks * seconds)
    return RunResult(
        config=config,
        n=n,
        n_per_rank=n / config.ranks,
        threads=threads,
        seconds_total=seconds,
        seconds_per_iter=seconds / iterations,
        dofs_rate=rate,
        flops_measured=flops_measured,
        messages=messages,
        reductions=reductions,
        trial_seconds=tuple(times),
        solver=solver,
    )


@dataclass
class SweepFailure:
    p: int
    k: int
    error: str


def sweep(bp: int, p_list, k_list, progress=None, **fields):
    """Run every (p, k) combination; skip and report invalid or failing ones.

    Every point is RunConfig(bp, p, k, **fields), so fields takes the other
    RunConfig fields by name and a name RunConfig lacks raises TypeError.
    progress, when given, is called with each result as it completes.

    Returns:
        (results sorted by n_per_rank, failures).
    """
    results: list[RunResult] = []
    failures: list[SweepFailure] = []
    for p in p_list:
        for k in k_list:
            try:
                result = run(RunConfig(bp=bp, p=p, k=k, **fields))
            except (ConfigError, ValueError, MemoryError) as exc:
                failures.append(SweepFailure(p=p, k=k, error=str(exc)))
                continue
            results.append(result)
            if progress is not None:
                progress(result)
    results.sort(key=lambda r: (r.n_per_rank, r.config.p, r.config.k))
    return results, failures
