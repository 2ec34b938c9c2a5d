"""Acceptance gate: one test per shipping criterion, one verdict line each.

Every test records a single `ACCEPTANCE <n> <PASS|WARN|FAIL>` line; the
conftest terminal-summary hook echoes all of them after the run, so the
verdicts stay visible under pytest's output capture.  Criterion 10 is a
soft, hardware-dependent shape check: it warns instead of failing when time
per iteration does not collapse onto points per rank, and its warning states
what was measured (worst spread, cores, worker threads, largest rank count)
rather than a presumed cause.
"""

import os
import time
import warnings

import numpy as np
import pytest

from sembench.bakeoff import RunConfig, build_problem, sweep
from sembench.basis import make_basis
from sembench.krylov import SystemApplier, pcg
from sembench.metrics import extract_metrics, latency_floor
from sembench.operators import MassOperator, StiffnessOperator, flop_model
from sembench.tensors import OpCounters, eo_contract_dir
from sembench.verify import (check_csr_equivalence, check_even_odd,
                             check_qtq_multiplicity,
                             check_quadrature_exactness,
                             check_strategy_equivalence)

from conftest import VERDICTS


def announce(number: int, status: str, detail: str) -> None:
    line = f"ACCEPTANCE {number:>2} {status:4s} {detail}"
    VERDICTS.append(line)
    print(line)


def verdict(number: int, passed: bool, detail: str) -> None:
    announce(number, "PASS" if passed else "FAIL", detail)


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    result = check_csr_equivalence(
        pairs=((2, 3), (2, 4), (3, 4), (3, 5), (4, 5), (4, 6)),
        ks=(3, 6), rtol=1e-12)
    elapsed = time.perf_counter() - t0
    ok = result.passed and elapsed < 60.0
    verdict(1, ok, f"matrix-free vs assembled CSR, E in {{8,64}}: "
                   f"{result.detail}; {elapsed:.1f}s")
    assert result.passed, result.detail
    assert elapsed < 60.0


def test_criterion_02_strategy_equivalence():
    t0 = time.perf_counter()
    result = check_strategy_equivalence(p_list=range(1, 11),
                                        kinds=("GL", "GLL"), n_inputs=20,
                                        rtol=1e-12)
    elapsed = time.perf_counter() - t0
    ok = result.passed and elapsed < 60.0
    verdict(2, ok, f"sumfact/interpfirst/evenodd/blocked, p in [1,10], "
                   f"20 inputs: {result.detail}; {elapsed:.1f}s")
    assert result.passed, result.detail
    assert elapsed < 60.0


def test_criterion_03_flop_models():
    worst = 0.0
    for p in range(3, 11):
        basis = make_basis(p, "GL")
        problem = build_problem(RunConfig(bp=3, p=p, k=1))
        for strategy in ("sumfact", "interpfirst"):
            op = StiffnessOperator(basis, problem.geom, strategy=strategy,
                                   instrument=True)
            op.apply_local(np.ones(op.n_local))
            measured = op.counters.total_flops / problem.mesh.E
            model = flop_model(strategy, p, basis.q)
            worst = max(worst, abs(measured - model) / model)
    r_coll = flop_model("interpfirst", 7, 8) / flop_model("sumfact", 7, 8)
    r_over = flop_model("interpfirst", 7, 12) / flop_model("sumfact", 7, 12)
    ok = (worst <= 0.05 and abs(r_coll - 0.764) <= 0.001
          and abs(r_over - 1.12) <= 0.01)
    verdict(3, ok, f"measured vs model max dev {worst:.2%} (tol 5%); "
                   f"work ratios {r_coll:.5f} (0.764±0.001), "
                   f"{r_over:.4f} (1.12±0.01)")
    assert worst <= 0.05
    assert abs(r_coll - 0.764) <= 0.001
    assert abs(r_over - 1.12) <= 0.01


def test_criterion_04_even_odd():
    result = check_even_odd(p_list=range(1, 11), tol=1e-12)
    # FMA halving: (p+1) q / 2 multiply-adds per 1D kernel point for even
    # q, with the decompose/recombine adds counted separately.
    fma_ok = True
    add_ok = True
    for p, kind in ((2, "GL"), (4, "GL"), (6, "GL"), (3, "GLL"), (7, "GLL")):
        basis = make_basis(p, kind)
        q, p1 = basis.q, p + 1
        assert q % 2 == 0
        for factor in (basis.J_even_odd, basis.D_even_odd):
            ct = OpCounters()
            eo_contract_dir(factor, np.zeros((1, 1, p1)), 0, ct)
            fma_ok &= ct.fma == (p + 1) * q // 2
            add_ok &= ct.add == 2 * (p1 // 2) + 2 * (q // 2)
    ok = result.passed and fma_ok and add_ok
    verdict(4, ok, f"reconstruction/apply {result.detail}; per-point FMAs "
                   f"= (p+1)q/2 exactly: {fma_ok}; add/sub terms exact: "
                   f"{add_ok}")
    assert result.passed, result.detail
    assert fma_ok and add_ok


def test_criterion_05_problem_size_identities():
    n14 = RunConfig(bp=1, p=7, k=14).n
    n16 = RunConfig(bp=1, p=7, k=16).n
    ok = (n14, n16) == (5_619_712, 22_478_848)
    verdict(5, ok, f"n = p^3 E: p=7 k=14 -> {n14:,}; k=16 -> {n16:,}")
    assert n14 == 5_619_712
    assert n16 == 22_478_848


def test_criterion_06_quadrature_exactness():
    result = check_quadrature_exactness(tol=1e-12)
    verdict(6, result.passed, result.detail)
    assert result.passed, result.detail


def test_criterion_07_assembly_oracle():
    result = check_qtq_multiplicity(cases=((0, 1), (1, 2), (3, 3), (6, 3)),
                                    tol=1e-13)
    verdict(7, result.passed, f"QtQ/QQt/weighted dots up to E=64 p=3: "
                              f"{result.detail}")
    assert result.passed, result.detail


def test_criterion_08_pcg_invariants():
    problem = build_problem(RunConfig(bp=5, p=4, k=6, iterations=100))
    _, run = pcg(SystemApplier(problem.op, problem.gs), problem.gs,
                 problem.b, max_iters=100, minv=problem.minv,
                 record_energy=True, diagnostics=True)
    rises = float(np.diff(run.quadratic_history).max())
    monotone = rises <= 1e-14
    gap_ok = run.residual_gap <= 1e-8 * run.b_norm
    reductions_ok = run.reductions == 2 * 100 + 1
    ok = monotone and gap_ok and reductions_ok
    verdict(8, ok, f"BP5 E=64 p=4, 100 iters: max energy rise {rises:.1e}; "
                   f"residual gap {run.residual_gap:.1e} <= 1e-8*|b|="
                   f"{1e-8 * run.b_norm:.1e}; reductions {run.reductions} "
                   f"(2/iter + initial)")
    assert monotone
    assert gap_ok
    assert reductions_ok


def test_criterion_09_metrics():
    xs = [125.0 * 2.0 ** i for i in range(14)]
    pts = [(x, 100.0 * x / (x + 1000.0)) for x in xs]
    m = extract_metrics(pts)
    knee_dev = abs(m.n_08 - 4000.0) / 4000.0
    identity = m.t_08 == 1.25 * m.n_08 / m.r_max
    low, high = latency_floor(3.8e-6)
    floors = (round(low * 1e3, 2), round(high * 1e3, 2)) == (0.13, 0.23)
    ok = knee_dev <= 0.02 and identity and floors
    verdict(9, ok, f"synthetic knee dev {knee_dev:.2%} (tol 2%); "
                   f"t_08 identity exact: {identity}; latency floor "
                   f"{low * 1e3:.2f}/{high * 1e3:.2f} ms from 3.8 us")
    assert knee_dev <= 0.02
    assert identity
    assert floors


def test_criterion_10_scaling_shape_soft():
    rows = []
    for ranks in (1, 2, 4, 8):
        results, failures = sweep(5, [7], range(3, 10), ranks=ranks,
                                  mode="bp", iterations=6, trials=1)
        assert not failures, failures
        rows.extend(results)

    # Saturated operating points, grouped by identical points-per-rank.
    groups: dict = {}
    for r in rows:
        if r.n_per_rank >= 20000.0:
            groups.setdefault(r.n_per_rank, []).append(r.seconds_per_iter)
    spreads = {x: max(ts) / min(ts) for x, ts in groups.items()
               if len(ts) >= 2}
    assert spreads, "sweep produced no comparable saturated groups"
    worst = max(spreads.values())
    collapsed = worst <= 1.25

    if collapsed:
        announce(10, "PASS", f"BP5 p=7 seconds/iter collapses on n/ranks: "
                             f"worst spread {worst:.2f}x <= 1.25x over "
                             f"{len(spreads)} group(s)")
    else:
        detail = (f"BP5 p=7 data collapse not observed: worst "
                  f"seconds/iter spread {worst:.2f}x > 1.25x over "
                  f"{len(spreads)} group(s), measured with "
                  f"{os.cpu_count()} core(s), "
                  f"{max(r.threads for r in rows)} worker thread(s) and "
                  f"up to {max(r.config.ranks for r in rows)} simulated "
                  f"ranks; this soft criterion downgrades to a warning")
        announce(10, "WARN", detail)
        warnings.warn(detail)


def test_criterion_11_vector_components():
    reads_ok = True
    bitwise_ok = True
    detail_q = []
    for bp in (2, 4, 6):
        problem = build_problem(RunConfig(bp=bp, p=3, k=2))
        op, gs = problem.op, problem.gs
        rng = np.random.default_rng(bp)
        u3 = rng.standard_normal((3, op.n_local))
        w3 = op.apply_local(u3)
        for c in range(3):
            bitwise_ok &= bool(np.array_equal(w3[c], op.apply_local(u3[c])))
        # Assembled pipeline: still bitwise.
        g3 = gs.apply_mask(gs.gather_scatter(w3, count=False))
        for c in range(3):
            ref = gs.apply_mask(
                gs.gather_scatter(op.apply_local(u3[c]), count=False))
            bitwise_ok &= bool(np.array_equal(g3[c], ref))

        spec = problem.config.spec
        cls = StiffnessOperator if spec.system == "stiffness" else MassOperator
        probe = cls(problem.basis, problem.geom, instrument=True)
        probe.apply_local(u3)
        scalar_probe = cls(problem.basis, problem.geom, instrument=True)
        scalar_probe.apply_local(u3[0])
        q, E = problem.basis.q, problem.mesh.E
        if spec.system == "stiffness":
            reads_ok &= probe.counters.g_read_words == 6 * q ** 3 * E
            reads_ok &= scalar_probe.counters.g_read_words == 6 * q ** 3 * E
            detail_q.append(f"bp{bp}: 6q^3={6 * q ** 3}/elem")
    ok = bitwise_ok and reads_ok
    verdict(11, ok, f"BP2/4/6 components bitwise-equal scalar applies: "
                    f"{bitwise_ok}; metric reads per element independent of "
                    f"components ({', '.join(detail_q)}): {reads_ok}")
    assert bitwise_ok
    assert reads_ok
