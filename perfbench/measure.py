"""Measurement of one workload: set-up, correctness gate, timed runs, trace.

The library is driven only through its public API.  The benchmark times
``bakeoff.build_problem`` and ``bakeoff.run(config, problem)`` and reads the
RunResult and PcgRun they return.  A traced run passes the same ``run`` a
problem whose operator and gather-scatter objects are timing proxies
(spans.TracedProxy), so it follows the untraced path.

The end-to-end times are reported in units of the host reference kernel
(environment.HostReference), which is timed right after every run call:
a trial's seconds are divided by the kernel's time at the trial's middle,
interpolated linearly between the samples before and after its call.  On
a shared host whose speed drifts by tens of percent
between seconds, this ratio repeats from run to run where raw seconds do
not.  The raw seconds go into the record alongside.
"""

from __future__ import annotations

import dataclasses
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from sembench import bakeoff, metrics
from sembench.assembly import build_gather_scatter
from sembench.basis import make_basis
from sembench.krylov import make_preconditioner
from sembench.mesh import build_box_mesh, compute_geometric_factors
from sembench.operators import (STRATEGY_RTOL, bytes_model, flop_model,
                                mass_flop_model)
from sembench.tensors import contract_dir

from . import spans
from .environment import HostReference

# Set-up is timed at least SETUP_REPEATS times per run, and again until
# SETUP_SECONDS have gone (at most SETUP_MAX times); the median counts.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
SETUP_MAX = 50
MIN_PASSES = 3         # timed passes per run, at least, whatever --seconds
# The first WARMUP_SECONDS of the timed loop, and at most WARMUP_SHARE of
# it, are run and checked but not timed: a fresh process runs slower while
# its memory and caches fill.
WARMUP_SECONDS = 3.0
WARMUP_SHARE = 0.2
TAIL_BEYOND = 10       # samples the tail percentile must have beyond it

# Strategy whose apply the gate compares against.  For the mass operator
# interpfirst runs the same contractions as sumfact, so evenodd is used.
REFERENCE_STRATEGY = {"stiffness": "interpfirst", "mass": "evenodd"}


def tail_percentile(samples, beyond: int = TAIL_BEYOND):
    """Highest percentile of `samples` with at least `beyond` samples above it.

    Returns (value, percentile).  With n samples the value is the one at
    sorted index n - beyond - 1, the (n - beyond)/n quantile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {n}")
    k = n - beyond - 1
    return ordered[k], 100.0 * (k + 1) / n


# -- correctness gate ------------------------------------------------------

def reference_strategy(config) -> str:
    ref = REFERENCE_STRATEGY[config.spec.system]
    return "sumfact" if ref == config.strategy else ref


def apply_error(problem) -> float:
    """Relative difference of one apply of problem.op from an independent one.

    The reference operator uses another strategy on geometric factors
    computed afresh from the config, so a corrupted problem.geom shows.
    """
    cfg = problem.config
    basis = make_basis(cfg.p, cfg.spec.quad)
    geom = compute_geometric_factors(build_box_mesh(cfg.k, cfg.p), basis)
    ref = bakeoff.make_operator(cfg.spec, basis, geom,
                                reference_strategy(cfg), cfg.block)
    want = ref.apply_local(problem.b)
    got = problem.op.apply_local(problem.b)
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


@dataclass
class Point:
    """One config of a workload with its built problem and gate verdict."""

    config: bakeoff.RunConfig
    problem: bakeoff.Problem
    gate_error: float
    history: np.ndarray | None = None  # residual history of the first run

    @property
    def gate_ok(self) -> bool:
        return bool(np.isfinite(self.gate_error)
                    and self.gate_error <= STRATEGY_RTOL)

    def check_history(self, result) -> bool:
        """Residual history finite and bitwise equal to the first run's."""
        if result.solver is None:
            return True
        h = result.solver.residual_history
        if not np.all(np.isfinite(h)):
            return False
        if self.history is None:
            self.history = h.copy()
            return True
        return h.shape == self.history.shape and \
            h.tobytes() == self.history.tobytes()


def gate(problem, seed: int = 0, index: int = 0) -> Point:
    """Point for `problem`, with the seeded input field in BK mode."""
    cfg = problem.config
    if cfg.mode == "bk":
        rng = np.random.default_rng([seed, index])
        problem = dataclasses.replace(
            problem, b=rng.standard_normal(problem.b.shape))
    return Point(cfg, problem, apply_error(problem))


def setup_repeats():
    """Yield once per set-up repeat, following SETUP_* above."""
    deadline = time.perf_counter() + SETUP_SECONDS
    for i in range(SETUP_MAX):
        if i >= SETUP_REPEATS and time.perf_counter() >= deadline:
            return
        yield i


def build_points(workload, seed: int):
    """Build every config's problem repeatedly; gate the last build.

    Returns (points, set-up samples in seconds, each summed over configs).
    """
    problems = [None] * len(workload.configs)
    samples = []
    for _ in setup_repeats():
        total = 0.0
        for i, cfg in enumerate(workload.configs):
            problems[i] = None      # keep one copy alive, as a user would
            t0 = time.perf_counter()
            problems[i] = bakeoff.build_problem(cfg)
            total += time.perf_counter() - t0
        samples.append(total)
    points = [gate(pr, seed, i) for i, pr in enumerate(problems)]
    return points, samples


# -- timed runs ------------------------------------------------------------

@dataclass
class Outcome:
    index: int
    result: bakeoff.RunResult | None
    wall: float
    end: float
    ok: bool
    run_id: int | None = None
    # (perf_counter, seconds) of the host reference samples before (if
    # any) and after the call
    refs: tuple = ()

    def ref_at(self, t: float) -> float:
        """Host reference seconds at `t`, interpolated between refs."""
        (t1, y1) = self.refs[-1]
        if len(self.refs) == 1:
            return y1
        (t0, y0) = self.refs[0]
        return y0 + min(max((t - t0) / (t1 - t0), 0.0), 1.0) * (y1 - y0)

    def per_iter(self, relative: bool) -> list:
        """Per-iteration time of each trial, in seconds or in host-reference
        units."""
        iters = self.result.config.iterations
        windows = trial_windows(self.result, self.end)
        return [(w1 - w0) / iters
                / (self.ref_at(0.5 * (w0 + w1)) if relative else 1.0)
                for (w0, w1) in windows]

    def point(self, relative: bool) -> float:
        """Wall time of the whole call, in seconds or host-reference units."""
        if not relative:
            return self.wall
        return self.wall / self.ref_at(self.end - 0.5 * self.wall)


@dataclass
class Pass:
    """One run of every config of the workload, in a seeded order."""

    outcomes: list
    traced: bool

    def samples(self, relative: bool = True) -> list:
        """Time per iteration; sample j sums trial j over the configs."""
        if any(o.result is None for o in self.outcomes):
            return []
        per_iter = [o.per_iter(relative) for o in self.outcomes]
        trials = min(len(t) for t in per_iter)
        return [sum(t[j] for t in per_iter) for j in range(trials)]

    def point(self, relative: bool = True) -> float:
        """Mean wall time of one run call of the pass."""
        return statistics.mean(o.point(relative) for o in self.outcomes)


def traced_problem(problem, tracer: spans.Tracer):
    return dataclasses.replace(
        problem,
        op=spans.TracedProxy(problem.op, tracer, spans.OPERATOR_METHODS),
        gs=spans.TracedProxy(problem.gs, tracer,
                             spans.GATHER_SCATTER_METHODS))


def run_point(index: int, point: Point, tracer=None) -> Outcome:
    t0 = time.perf_counter()
    run_id = None
    try:
        if tracer is None:
            result = bakeoff.run(point.config, point.problem)
            end = time.perf_counter()
        else:
            result, run_id, end = tracer.call_run(
                bakeoff.run, point.config, traced_problem(point.problem,
                                                          tracer))
    except Exception:   # a failed run is counted, and the benchmark goes on
        traceback.print_exc(file=sys.stderr)
        end = time.perf_counter()
        return Outcome(index, None, end - t0, end, False)
    ok = point.gate_ok and point.check_history(result)
    return Outcome(index, result, end - t0, end, ok, run_id)


def run_pass(points, order, host: HostReference, tracer=None) -> Pass:
    """Run every point in `order`, timing the host reference after each."""
    outcomes = []
    for i in order:
        before = tuple(zip(host.times[-1:], host.samples[-1:]))
        o = run_point(i, points[i], tracer)
        host.sample()
        o.refs = before + ((host.times[-1], host.samples[-1]),)
        outcomes.append(o)
    return Pass(outcomes, tracer is not None)


def timed_passes(points, rng: random.Random, seconds: float,
                 host: HostReference, tracer=None) -> tuple[list, list]:
    """Passes for about `seconds`: (warm-up passes, timed passes).

    Passes that start in the warm-up (see WARMUP_*) are returned apart.
    At least MIN_PASSES rounds are timed, and a new round starts only while
    more than half the last round's time is left, so a run ends within half
    a round of `seconds`.  With a tracer, every round makes one untraced
    and one traced pass, in a seeded order, so host drift falls on both
    alike.
    """
    warm, passes = [], []
    start = time.perf_counter()
    deadline = start + seconds
    warm_until = start + min(WARMUP_SECONDS, WARMUP_SHARE * seconds)
    rounds = 0
    last = 0.0
    while rounds < MIN_PASSES or time.perf_counter() + last / 2 < deadline:
        t0 = time.perf_counter()
        tracers = [None] if tracer is None else [None, tracer]
        rng.shuffle(tracers)
        done = warm if t0 < warm_until else passes
        for tr in tracers:
            order = rng.sample(range(len(points)), len(points))
            done.append(run_pass(points, order, host, tr))
        if done is passes:
            rounds += 1
        last = time.perf_counter() - t0
    return warm, passes


def rate_summary(points, passes, relative: bool = True):
    """metrics.group_metrics over one row per config at its median trial.

    Rates are points x iterations per rank per second, or per host
    reference unit if `relative`.
    """
    per_iter = {i: [] for i in range(len(points))}
    for ps in passes:
        for o in ps.outcomes:
            if o.result is not None:
                per_iter[o.index].extend(o.per_iter(relative))
    rows = []
    for i, pt in enumerate(points):
        if not per_iter[i]:
            continue
        cfg = pt.config
        rate = cfg.n / (cfg.ranks * statistics.median(per_iter[i]))
        rows.append({"bp_id": cfg.bp, "p": cfg.p,
                     "n_per_rank": cfg.n / cfg.ranks, "dofs_rate": rate})
    if not rows:
        return None
    (summary,) = metrics.group_metrics(rows).values()
    return summary


def tally(passes) -> tuple[int, int]:
    outcomes = [o for ps in passes for o in ps.outcomes]
    return len(outcomes), sum(1 for o in outcomes if not o.ok)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def _tail(samples) -> tuple[float, float]:
    return (tail_percentile(samples) if len(samples) > TAIL_BEYOND
            else (0.0, 0.0))


def end_to_end(points, setup_samples, passes, attempted: int,
               failed: int) -> tuple[dict, dict]:
    """End-to-end metrics and the sample facts behind them.

    Times are in host-reference units; `facts` holds them in seconds too.
    """
    untraced = [ps for ps in passes if not ps.traced]
    samples = [s for ps in untraced for s in ps.samples()]
    seconds = [s for ps in untraced for s in ps.samples(relative=False)]
    summary = rate_summary(points, untraced)
    raw = rate_summary(points, untraced, relative=False)
    tail, pct = _tail(samples)
    values = {
        "iter_ref_p50": _median_or_zero(samples),
        "iter_ref_tail": tail,
        "setup_s": statistics.median(setup_samples),
        "point_ref": _median_or_zero([ps.point() for ps in untraced]),
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": 1.0 - failed / attempted,
        "r_max_ref": summary.r_max if summary else 0.0,
    }
    facts = {"iter_samples": len(samples), "tail_percentile": pct,
             "iter_samples_ref": samples,
             "iter_samples_s": seconds,
             "seconds": {
                 "iter_s_p50": _median_or_zero(seconds),
                 "iter_s_tail": _tail(seconds)[0],
                 "point_s": _median_or_zero([ps.point(relative=False)
                                             for ps in untraced]),
                 "r_max": raw.r_max if raw else None,
                 "n_08": raw.n_08 if raw else None,
                 "t_08": raw.t_08 if raw else None},
             "setup_samples": setup_samples,
             "passes": len(untraced)}
    return values, facts


# -- per-layer measurements --------------------------------------------------

def _timed(parts: dict, name: str, fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    parts[name] = parts.get(name, 0.0) + time.perf_counter() - t0
    return out


def setup_parts(config) -> dict:
    """Seconds of each public call build_problem makes, each on its own."""
    spec = config.spec
    parts: dict = {}
    basis = _timed(parts, "basis", make_basis, config.p, spec.quad)
    mesh = _timed(parts, "mesh.build_s", build_box_mesh, config.k, config.p)
    geom = _timed(parts, "mesh.geom_s", compute_geometric_factors, mesh,
                  basis)
    gs = _timed(parts, "assembly.plan_s", build_gather_scatter, mesh,
                bc=spec.bc, ranks=config.ranks,
                deterministic=config.deterministic)
    op = _timed(parts, "operator", bakeoff.make_operator, spec, basis, geom,
                config.strategy, config.block)
    _timed(parts, "operators.rhs_s", bakeoff.build_rhs, mesh, basis, geom,
           gs, spec.components)
    if config.mode == "bp":
        _timed(parts, "krylov.precond_s", make_preconditioner, op, gs)
    else:
        parts["krylov.precond_s"] = 0.0
    return parts


def setup_part_medians(workload) -> dict:
    """Median over repeats of each part, summed over the configs."""
    runs = []
    for _ in setup_repeats():
        total: dict = {}
        for cfg in workload.configs:
            for k, v in setup_parts(cfg).items():
                total[k] = total.get(k, 0.0) + v
        runs.append(total)
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def contraction_us(config, repeats: int = 7) -> tuple[float, float]:
    """Microseconds of one contract_dir on one element, and per element
    when all E elements go in one call, with the config's q x p1 matrix."""
    basis = make_basis(config.p, config.spec.quad)
    a = basis.J_hat
    p1 = basis.p1
    rng = np.random.default_rng(0)
    one = rng.standard_normal((1, p1, p1, p1))
    many = rng.standard_normal((config.E, p1, p1, p1))
    calls = 200
    single, batched = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            contract_dir(a, one, 0)
        single.append((time.perf_counter() - t0) / calls)
        t0 = time.perf_counter()
        contract_dir(a, many, 0)
        batched.append((time.perf_counter() - t0) / config.E)
    return statistics.median(single) * 1e6, statistics.median(batched) * 1e6


def operator_models(point) -> tuple[float, float]:
    """(model flops, model bytes) of one full apply of the point's operator."""
    cfg = point.config
    spec = cfg.spec
    p, q, comps, E = cfg.p, cfg.q, spec.components, cfg.E
    collocated = point.problem.basis.collocated
    if spec.system == "stiffness":
        per_elem = flop_model(cfg.strategy, p, q)
    else:
        per_elem = mass_flop_model(p, q, collocated)
    read, write = bytes_model(p, q, comps, spec.system, collocated)
    return per_elem * comps * E, 8.0 * (read + write) * E


@dataclass
class LayerTotals:
    """Span times summed over the timed trials of the traced runs."""

    wall: float = 0.0
    iterations: int = 0
    op_calls: int = 0
    op_sum: float = 0.0
    op_union: float = 0.0
    asm_union: float = 0.0
    others: float = 0.0         # trial time outside every span
    flops: float = 0.0          # counted flops of the applies in the trials
    model_bytes: float = 0.0
    calls: dict = field(default_factory=dict)
    seconds: dict = field(default_factory=dict)
    nbytes: dict = field(default_factory=dict)


def trial_windows(result, end: float) -> list:
    """(start, end) of each timed trial of a run whose last trial ends at `end`.

    The trials are the last thing run() does and follow each other, so
    they are laid back to back, the last ending at `end`.
    """
    windows = []
    for dt in reversed(result.trial_seconds):
        windows.append((end - dt, end))
        end -= dt
    return windows[::-1]


def layer_totals(points, passes, tracer: spans.Tracer) -> LayerTotals:
    by_run: dict = {}
    for s in tracer.spans:
        if s.name != spans.ROOT_SPAN:
            by_run.setdefault(s.run, []).append(s)
    tot = LayerTotals()
    for ps in passes:
        if not ps.traced:
            continue
        for o in ps.outcomes:
            if o.result is None:
                continue
            cfg = o.result.config
            _, model_bytes = operator_models(points[o.index])
            run_spans = by_run.get(o.run_id, [])
            # The last trial ends with a traced call (the b-norm dot in BP,
            # an apply in BK); run() returns later, after joining workers.
            end = max((s.end for s in run_spans), default=o.end)
            for (w0, w1) in trial_windows(o.result, end):
                inside = [s for s in run_spans
                          if w0 <= 0.5 * (s.start + s.end) < w1]
                ops = [(s.start, s.end) for s in inside
                       if s.name == "operators.apply"]
                asm = [(s.start, s.end) for s in inside
                       if s.name.startswith("assembly.")]
                tot.wall += w1 - w0
                tot.iterations += cfg.iterations
                tot.op_calls += len(ops)
                tot.op_sum += sum(e - s for (s, e) in ops)
                tot.op_union += spans.union_length(ops)
                tot.asm_union += spans.union_length(asm)
                tot.others += spans.self_time((w0, w1), ops + asm)
                tot.flops += o.result.flops_measured * cfg.iterations
                tot.model_bytes += model_bytes * cfg.iterations
                for s in inside:
                    if s.name.startswith("assembly."):
                        tot.calls[s.name] = tot.calls.get(s.name, 0) + 1
                        tot.seconds[s.name] = (tot.seconds.get(s.name, 0.0)
                                               + s.duration)
                        tot.nbytes[s.name] = (tot.nbytes.get(s.name, 0)
                                              + s.nbytes)
    return tot


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload, points, passes, tracer, parts, setup_s,
              contraction) -> dict:
    """Every per-layer metric of spec.PER_LAYER, by name."""
    tot = layer_totals(points, passes, tracer)
    untraced = [ps for ps in passes if not ps.traced]
    primary = next(pt for pt in points if pt.config == workload.primary)
    first = next((o.result for ps in untraced for o in ps.outcomes
                  if o.result is not None
                  and points[o.index] is primary), None)
    summary = rate_summary(points, untraced, relative=False)
    bp = primary.config.mode == "bp"

    phase = wall = 0.0
    for ps in untraced:
        for o in ps.outcomes:
            if o.result is not None and o.result.solver is not None:
                phase += sum(o.result.solver.timings.values())
                wall += o.result.trial_seconds[-1]

    overhead = [sum(o.wall - sum(o.result.trial_seconds)
                    for o in ps.outcomes if o.result is not None)
                for ps in untraced]
    geom = primary.problem.geom
    model_flops, model_bytes = operator_models(primary)
    traced_samples = [s for ps in passes if ps.traced for s in ps.samples()]
    plain_samples = [s for ps in untraced for s in ps.samples()]
    solver = first.solver if first is not None else None
    history = solver.residual_history if solver is not None else None
    iters = primary.config.iterations

    def per_call(name):
        return _per(tot.seconds.get(name, 0.0), tot.calls.get(name, 0))

    return {
        "bakeoff.overhead_s": _median_or_zero(overhead),
        "bakeoff.phase_coverage": _per(phase, wall),
        "bakeoff.setup_parts_ratio": _per(sum(parts.values()), setup_s),
        "mesh.build_s": parts["mesh.build_s"],
        "mesh.geom_s": parts["mesh.geom_s"],
        "mesh.geom_mb": (geom.G.nbytes + geom.mass_diag.nbytes
                         + geom.jac_det.nbytes) / 2 ** 20,
        "assembly.plan_s": parts["assembly.plan_s"],
        "assembly.gs_s": per_call("assembly.gs"),
        "assembly.mask_s": per_call("assembly.mask"),
        "assembly.dot_s": per_call("assembly.dot"),
        "assembly.gs_calls_per_iter": _per(tot.calls.get("assembly.gs", 0),
                                           tot.iterations),
        "assembly.messages_per_iter": _per(first.messages, iters)
        if first else 0.0,
        "assembly.reductions_per_iter": _per(first.reductions, iters)
        if first else 0.0,
        "assembly.share": _per(tot.asm_union, tot.wall),
        "assembly.gs_gbps_computed": _per(
            tot.nbytes.get("assembly.gs", 0),
            tot.seconds.get("assembly.gs", 0.0)) / 1e9,
        "operators.apply_s": _per(tot.op_sum, tot.op_calls),
        "operators.share": _per(tot.op_union, tot.wall),
        "operators.concurrency": _per(tot.op_sum, tot.op_union),
        "operators.flops_per_apply": first.flops_measured if first else 0,
        "operators.flop_model_ratio": _per(first.flops_measured, model_flops)
        if first else 0.0,
        "operators.gflops": _per(tot.flops, tot.op_union) / 1e9,
        "operators.gbps_computed": _per(tot.model_bytes, tot.op_union) / 1e9,
        "operators.flops_per_byte": _per(model_flops, model_bytes),
        "operators.rhs_s": parts["operators.rhs_s"],
        "tensors.contract_us_single": contraction[0],
        "tensors.contract_us_per_elem_batched": contraction[1],
        "krylov.precond_s": parts["krylov.precond_s"],
        "krylov.self_s_per_iter": _per(tot.others, tot.iterations),
        "krylov.iterations": solver.iterations if solver else 0,
        "krylov.residual_reduction": float(history[-1] / history[0])
        if history is not None and bp else 0.0,
        "metrics.n_08": summary.n_08 if summary else 0.0,
        "metrics.t_08": summary.t_08 if summary else 0.0,
        "trace.overhead_frac": _per(_median_or_zero(traced_samples),
                                    _median_or_zero(plain_samples)) - 1.0
        if plain_samples else 0.0,
        "trace.self_sum_ratio": _per(tot.op_union + tot.asm_union
                                     + tot.others, tot.wall),
    }


# -- one run of the benchmark ------------------------------------------------

@dataclass
class Measurement:
    correct: bool
    attempted: int
    failed: int
    values: dict
    record: dict
    spans: list


def measure(workload, seed: int, seconds: float, trace: bool) -> Measurement:
    """Measure `workload` for about `seconds`; traced if `trace`."""
    rng = random.Random(seed)
    # The reference uses as many threads as the workload's worker pool.
    host = HostReference(max(min(c.resolved_threads(), c.ranks)
                             for c in workload.configs))
    tracer = spans.Tracer() if trace else None
    parts = setup_part_medians(workload) if trace else None
    points, setup_samples = build_points(workload, seed)
    warm, passes = timed_passes(points, rng, seconds, host, tracer)
    attempted, failed = tally(warm + passes)

    e2e, facts = end_to_end(points, setup_samples, passes, attempted, failed)
    if trace:
        contraction = contraction_us(workload.primary)
        values = per_layer(workload, points, passes, tracer, parts,
                           e2e["setup_s"], contraction)
        facts["untraced"] = e2e
    else:
        values = e2e
    facts.update({
        "gate": [{"k": pt.config.k, "strategy": pt.config.strategy,
                  "reference": reference_strategy(pt.config),
                  "rel_error": pt.gate_error, "ok": pt.gate_ok,
                  # float.hex, so runs in other processes compare bitwise
                  "residual_history": None if pt.history is None
                  else [float(x).hex() for x in pt.history]}
                 for pt in points],
        "warmup_passes": len(warm),
        "host_ref_s": statistics.median(host.samples),
        "host_ref_samples": host.samples,
    })
    return Measurement(failed == 0 and attempted > 0, attempted, failed,
                       values, facts,
                       tracer.spans if tracer is not None else [])
