import dataclasses
import statistics
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import measure, spec
from perfbench.workloads import Workload
from sembench import bakeoff
from sembench.bakeoff import RunConfig
from sembench.operators import StiffnessOperator
from sembench.verify import inject_geom_fault


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = list(range(100, 0, -1))          # 1..100, unsorted
    value, pct = measure.tail_percentile(samples)
    assert value == 90 and pct == 90.0
    assert sum(1 for s in samples if s > value) == 10
    value, pct = measure.tail_percentile(range(11))
    assert value == 0 and pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        measure.tail_percentile(range(10))


def _outcome(iterations, trial_seconds, ref, wall):
    result = SimpleNamespace(config=SimpleNamespace(iterations=iterations),
                             trial_seconds=trial_seconds)
    return measure.Outcome(0, result, wall, 0.0, True, refs=((0.0, ref),))


def test_samples_are_divided_by_the_host_reference_of_their_call():
    ps = measure.Pass([_outcome(2, (4.0, 6.0), 0.5, 11.0),
                       _outcome(1, (1.0, 3.0), 2.0, 5.0)], False)
    assert ps.samples(relative=False) == [2.0 + 1.0, 3.0 + 3.0]
    assert ps.samples() == [4.0 + 0.5, 6.0 + 1.5]
    assert ps.point(relative=False) == 8.0
    assert ps.point() == statistics.mean([22.0, 2.5])


def test_reference_is_interpolated_to_the_middle_of_each_trial():
    o = _outcome(1, (1.0, 1.0), None, 3.0)
    o.end = 4.0
    o.refs = ((0.0, 1.0), (4.0, 3.0))       # trials run 2..3 and 3..4
    assert o.per_iter(relative=True) == [1 / 2.25, 1 / 2.75]
    assert o.point(relative=True) == 3.0 / 2.25
    assert o.ref_at(-1.0) == 1.0 and o.ref_at(9.0) == 3.0


class _Host:
    """Host reference stand-in whose samples read 1, 2, 3, ... at times
    10, 20, 30, ..."""

    def __init__(self):
        self.samples, self.times = [], []

    def sample(self):
        self.samples.append(len(self.samples) + 1.0)
        self.times.append(10.0 * len(self.samples))
        return self.samples[-1]


def test_each_call_sits_between_the_samples_before_and_after_it():
    cfg = RunConfig(bp=3, p=2, k=3, threads=1, iterations=2, trials=2)
    point = measure.gate(bakeoff.build_problem(cfg))
    ps = measure.run_pass([point, point], [1, 0], _Host())
    assert [o.index for o in ps.outcomes] == [1, 0]
    assert [o.refs for o in ps.outcomes] == [((10.0, 1.0),),
                                             ((10.0, 1.0), (20.0, 2.0))]


def _corrupt(problem):
    geom = inject_geom_fault(problem.geom, element=1, slot=0,
                             point=(1, 1, 1), scale=2.0)
    op = StiffnessOperator(problem.basis, geom,
                           strategy=problem.config.strategy)
    return dataclasses.replace(problem, geom=geom, op=op)


def test_gate_fails_on_injected_geometry_fault():
    cfg = RunConfig(bp=3, p=3, k=3, threads=1, iterations=2, trials=2)
    problem = bakeoff.build_problem(cfg)
    good = measure.gate(problem)
    assert good.gate_ok and good.gate_error < 1e-13
    bad = measure.gate(_corrupt(problem))
    assert not bad.gate_ok
    outcome = measure.run_point(0, bad)
    assert outcome.result is not None and not outcome.ok


def test_history_check_is_bitwise():
    cfg = RunConfig(bp=3, p=2, k=3, threads=1, iterations=3, trials=1)
    point = measure.gate(bakeoff.build_problem(cfg))
    result = bakeoff.run(cfg, point.problem)
    assert point.check_history(result) and point.check_history(result)
    h = result.solver.residual_history
    h[-1] = np.nextafter(h[-1], np.inf)
    assert not point.check_history(result)
    h[-1] = np.nan
    assert not point.check_history(result)


TINY = (
    Workload("tiny-bp", "test", (RunConfig(bp=3, p=2, k=3, threads=1,
                                           iterations=2, trials=4),)),
    Workload("tiny-ranks", "test", (RunConfig(bp=5, p=2, k=3, ranks=2,
                                              threads=2, iterations=2,
                                              trials=4),)),
    Workload("tiny-bk", "test", (RunConfig(bp=2, p=2, k=3, mode="bk",
                                           threads=1, iterations=2,
                                           trials=4),)),
    Workload("tiny-sweep", "test", tuple(
        RunConfig(bp=1, p=2, k=k, threads=1, iterations=3, trials=4)
        for k in (1, 2, 3))),
)


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
def test_every_specified_metric_is_emitted(workload, trace):
    m = measure.measure(workload, seed=3, seconds=0.0, trace=trace)
    assert m.correct and m.failed == 0
    assert m.attempted == measure.MIN_PASSES * len(workload.configs) * (
        2 if trace else 1)
    assert set(m.values) == set(spec.units(trace))
    assert all(np.isfinite(v) for v in m.values.values())
    if not trace:
        assert all(v > 0 for v in m.values.values())
        return
    v = m.values
    assert v["trace.self_sum_ratio"] == pytest.approx(1.0, abs=0.02)
    assert 0.0 < v["operators.share"] <= 1.0
    bp = workload.configs[0].mode == "bp"
    assert (v["assembly.gs_calls_per_iter"] == 1.0) == bp
    assert (v["krylov.iterations"] > 0) == bp


def test_exact_counts_repeat_bitwise():
    w = TINY[0]
    a = measure.measure(w, seed=1, seconds=0.0, trace=True).values
    b = measure.measure(w, seed=2, seconds=0.0, trace=True).values
    for name in spec.EXACT:
        assert a[name] == b[name], name


def test_bk_input_field_follows_the_seed():
    cfg = TINY[2].configs[0]
    problem = bakeoff.build_problem(cfg)
    a = measure.gate(problem, seed=1).problem.b
    b = measure.gate(problem, seed=1).problem.b
    c = measure.gate(problem, seed=2).problem.b
    assert np.array_equal(a, b) and not np.array_equal(a, c)
