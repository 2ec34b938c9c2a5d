"""Benchmark definitions, run configurations, and the measurement loop."""

import gc
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sembench import bakeoff
from sembench.bakeoff import (BLOCK_SIZES, BP_TABLE, MODES, ConfigError,
                              RunConfig, build_problem, default_threads,
                              measure_apply_flops, run, sweep)
from sembench.assembly import build_gather_scatter
from sembench.basis import make_basis
from sembench.krylov import SystemApplier, pcg
from sembench.mesh import build_box_mesh, compute_geometric_factors
from sembench.operators import STRATEGIES
from sembench.tensors import LINE_BYTES, batch_size


class TestBpTable:
    def test_frozen_rows(self):
        rows = {i: (s.system, s.components, s.bc, s.quad)
                for i, s in BP_TABLE.items()}
        assert rows == {
            1: ("mass", 1, "neumann", "GL"),
            2: ("mass", 3, "neumann", "GL"),
            3: ("stiffness", 1, "dirichlet", "GL"),
            4: ("stiffness", 3, "dirichlet", "GL"),
            5: ("stiffness", 1, "dirichlet", "GLL"),
            6: ("stiffness", 3, "dirichlet", "GLL"),
        }

    def test_quadrature_point_counts(self):
        assert BP_TABLE[1].q_for(7) == 9
        assert BP_TABLE[3].q_for(7) == 9
        assert BP_TABLE[5].q_for(7) == 8

    def test_even_ids_are_vector_variants(self):
        for i in (1, 3, 5):
            assert BP_TABLE[i].components == 1
            assert BP_TABLE[i + 1].components == 3
            assert BP_TABLE[i + 1].system == BP_TABLE[i].system
            assert BP_TABLE[i + 1].bc == BP_TABLE[i].bc
            assert BP_TABLE[i + 1].quad == BP_TABLE[i].quad


class TestRunConfig:
    def test_derived_quantities(self):
        cfg = RunConfig(bp=3, p=4, k=5)
        assert cfg.E == 32
        assert cfg.q == 6
        assert cfg.n == 64 * 32
        assert cfg.spec.system == "stiffness"

    @pytest.mark.parametrize("kwargs,fragment", [
        (dict(bp=0, p=3, k=1), "bp"),
        (dict(bp=7, p=3, k=1), "bp"),
        (dict(bp=1, p=0, k=1), "p must"),
        (dict(bp=1, p=16, k=1), "p must"),
        (dict(bp=1, p=3, k=-1), "k must"),
        (dict(bp=1, p=3, k=22), "k must"),
        (dict(bp=1, p=3, k=1, mode="solve"), "mode"),
        (dict(bp=1, p=3, k=1, strategy="magic"), "strategy"),
        (dict(bp=1, p=3, k=1, strategy="blocked", block=5), "block"),
        (dict(bp=1, p=3, k=1, ranks=0), "ranks"),
        (dict(bp=1, p=3, k=1, ranks=4), "at least one element per rank"),
        (dict(bp=1, p=3, k=1, iterations=0), "iterations"),
        (dict(bp=1, p=3, k=1, trials=0), "trials"),
        (dict(bp=1, p=3, k=1, threads=0), "threads"),
    ])
    def test_validation(self, kwargs, fragment):
        with pytest.raises(ConfigError, match=fragment):
            RunConfig(**kwargs)

    def test_threads_resolution(self, monkeypatch):
        monkeypatch.setenv("SEMBENCH_THREADS", "5")
        assert RunConfig(bp=1, p=2, k=1).resolved_threads() == 5
        assert RunConfig(bp=1, p=2, k=1, threads=2).resolved_threads() == 2

    def test_default_threads_env(self, monkeypatch):
        monkeypatch.setenv("SEMBENCH_THREADS", "3")
        assert default_threads() == 3
        monkeypatch.setenv("SEMBENCH_THREADS", "zero")
        with pytest.raises(ConfigError):
            default_threads()
        monkeypatch.setenv("SEMBENCH_THREADS", "0")
        with pytest.raises(ConfigError):
            default_threads()
        monkeypatch.delenv("SEMBENCH_THREADS")
        assert default_threads() >= 1


class TestProblem:
    def test_rhs_is_continuous_and_masked(self):
        problem = build_problem(RunConfig(bp=3, p=3, k=2))
        gs, b = problem.gs, problem.b
        # Continuity: QQ^T(weight * b) reproduces b.
        back = gs.gather_scatter(gs.weight * b, count=False)
        assert np.allclose(back, b, atol=1e-14, rtol=0)
        assert np.array_equal(b[gs.mask == 0.0],
                              np.zeros(int(np.sum(gs.mask == 0.0))))

    @pytest.mark.parametrize("components", [1, 3])
    @pytest.mark.parametrize("kind", ["GL", "GLL"])
    def test_rhs_holds_b_and_a_fixed_scratch(self, kind, components):
        # f is sampled into b block by block and applied in place, so the
        # build holds b, the gather-scatter's sums (one per global node)
        # and a few batch fields: the mass workspace and one scratch.
        basis = make_basis(3, kind)
        mesh = build_box_mesh(8, 3)               # 256 elements
        geom = compute_geometric_factors(mesh, basis, 8)
        gs = build_gather_scatter(mesh, bc="dirichlet", block=8)
        field = 8 * basis.q ** 3 * geom.block
        tracemalloc.start()
        try:
            b = bakeoff.build_rhs(mesh, basis, geom, gs, components)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sums = 8 * (gs.numbering.n_global + 1)
        assert b.nbytes > 16 * field
        assert peak <= b.nbytes + sums + 3 * field + 16384

    def test_vector_rhs_repeats_component(self):
        problem = build_problem(RunConfig(bp=4, p=2, k=1))
        assert problem.b.shape[0] == 3
        assert np.array_equal(problem.b[0], problem.b[1])
        assert np.array_equal(problem.b[0], problem.b[2])

    @pytest.mark.parametrize("bp", [1, 4])
    def test_solve_arrays_start_on_a_line(self, bp):
        problem = build_problem(RunConfig(bp=bp, p=3, k=3))
        x, _ = pcg(SystemApplier(problem.op, problem.gs), problem.gs,
                   problem.b, max_iters=2, minv=problem.minv)
        for a in (problem.b, problem.minv, x):
            assert a.ctypes.data % LINE_BYTES == 0

    def test_no_free_dof_rejected_in_bp_mode(self):
        # p = 1, k = 2: every node of the 2x1x2 mesh is on the boundary.
        with pytest.raises(ConfigError, match="no free degree of freedom"):
            build_problem(RunConfig(bp=3, p=1, k=2))
        assert build_problem(RunConfig(bp=3, p=1, k=2, mode="bk")).minv is None

    def test_leaves_numpy_ma_and_scipy_unimported(self):
        # Plain np.unique imports numpy.ma, about 1 MiB of resident memory,
        # and scipy.sparse, which only the oracles use, about 20 MiB; a
        # fresh interpreter shows whether the package or setup pulls them.
        code = ("import sys\n"
                "import sembench\n"
                "from sembench.bakeoff import RunConfig, build_problem\n"
                "build_problem(RunConfig(bp=5, p=2, k=3, ranks=3))\n"
                "build_problem(RunConfig(bp=2, p=2, k=3, ranks=2))\n"
                "sys.exit('numpy.ma' in sys.modules\n"
                "         or 'scipy' in sys.modules)\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(bakeoff.__file__).parents[1]))
        assert subprocess.run([sys.executable, "-c", code],
                              env=env).returncode == 0

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_blocked_stores_its_own_block(self, block):
        # blocked's geometry, plan and operator share the config's block;
        # every other strategy keeps the default storage block.
        problem = build_problem(RunConfig(bp=3, p=3, k=5, strategy="blocked",
                                          block=block))
        assert problem.geom.block == problem.gs.block == block
        assert problem.op.geom is problem.geom
        other = build_problem(RunConfig(bp=3, p=3, k=5, block=block))
        # batch_size(5) = 256, capped at E = 32.
        assert batch_size(5) == 256
        assert other.geom.block == other.gs.block == 32

    def test_blocked_block_is_capped_at_e(self):
        # At E = 4 a block of 8 is stored as one block of 4, and
        # make_operator accepts it as blocked's block of 8.
        problem = build_problem(RunConfig(bp=3, p=2, k=2, strategy="blocked",
                                          block=8))
        assert problem.geom.block == problem.gs.block == 4
        op = bakeoff.make_operator(problem.config.spec, problem.basis,
                                   problem.geom, "blocked", 8)
        assert op.geom is problem.geom

    def test_blocked_operator_needs_its_block(self):
        # The geometry is stored in blocks of batch_size(5) = 256, capped
        # at E = 32, not 8.
        problem = build_problem(RunConfig(bp=3, p=3, k=5))
        with pytest.raises(ValueError, match="blocks of 8"):
            bakeoff.make_operator(problem.config.spec, problem.basis,
                                  problem.geom, "blocked", 8)
        geom = compute_geometric_factors(problem.mesh, problem.basis, 4)
        with pytest.raises(ValueError, match="blocks of 8"):
            bakeoff.make_operator(problem.config.spec, problem.basis, geom,
                                  "blocked", 8)
        op = bakeoff.make_operator(problem.config.spec, problem.basis, geom,
                                   "blocked", 4)
        assert op.geom.block == 4

    def test_bk_mode_skips_preconditioner(self):
        assert build_problem(RunConfig(bp=3, p=2, k=1, mode="bk")).minv is None
        assert build_problem(RunConfig(bp=3, p=2, k=1)).minv is not None


class TestMemoryCheck:
    def test_estimate_covers_what_setup_keeps(self):
        for cfg in (RunConfig(bp=3, p=3, k=3), RunConfig(bp=4, p=2, k=2),
                    RunConfig(bp=1, p=4, k=3)):
            pr = build_problem(cfg)
            kept = (pr.geom.G.nbytes + pr.geom.mass_diag.nbytes
                    + pr.geom.jac_det.nbytes + pr.mesh.elem_coords.nbytes
                    + pr.b.nbytes)
            assert kept < bakeoff.estimate_bytes(cfg)

    @staticmethod
    def traced_peak(cfg):
        # Peak bytes numpy allocates while building cfg's problem and
        # running it with two timed trials.
        tracemalloc.start()
        try:
            run(cfg, build_problem(cfg))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("kwargs", [
        dict(bp=5, p=3, k=10, ranks=2, threads=2), dict(bp=4, p=3, k=7),
        dict(bp=1, p=3, k=8)])
    def test_estimate_covers_setup_and_solve(self, kwargs):
        cfg = RunConfig(iterations=2, trials=2, **kwargs)
        assert self.traced_peak(cfg) <= bakeoff.estimate_bytes(cfg)

    def test_estimate_stays_near_a_large_peak(self):
        # An estimate far above what a point holds would refuse points
        # that fit.
        cfg = RunConfig(bp=3, p=7, k=9, iterations=1, trials=2)
        assert bakeoff.estimate_bytes(cfg) < 1.5 * self.traced_peak(cfg)

    def test_too_large_fails_before_any_allocation(self, monkeypatch):
        cfg = RunConfig(bp=3, p=2, k=1)
        need = bakeoff.estimate_bytes(cfg)

        def no_mesh(*args, **kwargs):
            raise AssertionError("setup started")

        monkeypatch.setattr(bakeoff, "mem_available_bytes", lambda: need - 1)
        monkeypatch.setattr(bakeoff, "build_box_mesh", no_mesh)
        with pytest.raises(ConfigError, match="GiB available"):
            build_problem(cfg)

    def test_fits_or_unknown_builds(self, monkeypatch):
        cfg = RunConfig(bp=3, p=2, k=1)
        need = bakeoff.estimate_bytes(cfg)
        for available in (need, None):
            monkeypatch.setattr(bakeoff, "mem_available_bytes",
                                lambda: available)
            assert build_problem(cfg).geom.E == 2

    def test_meminfo_is_read(self):
        available = bakeoff.mem_available_bytes()
        assert available is None or available > 0


class TestPartitionedApplier:
    """A BK-mode run: the local-only apply, with no exchange or dot."""

    def test_local_only_output(self, monkeypatch):
        cfg = RunConfig(bp=1, p=3, k=2, mode="bk", iterations=2, trials=1)
        problem = build_problem(cfg)
        apply_local, outs = problem.op.apply_local, []

        def spy(u, out=None):
            outs.append(out)
            return apply_local(u, out=out)

        monkeypatch.setattr(problem.op, "apply_local", spy)
        run(cfg, problem)
        assert len(outs) == 2 * cfg.iterations       # warm-up and one trial
        assert all(out is outs[0] for out in outs)
        assert np.array_equal(outs[0], apply_local(problem.b))

    def test_local_only_counts_nothing(self):
        cfg = RunConfig(bp=3, p=2, k=3, mode="bk", ranks=2, iterations=2,
                        trials=1)
        problem = build_problem(cfg)
        result = run(cfg, problem)
        assert result.messages == result.reductions == 0
        assert problem.gs.counters.messages == 0
        assert problem.gs.counters.reductions == 0


class TestMeasureApplyFlops:
    def test_deterministic_and_scales_with_components(self):
        prob1 = build_problem(RunConfig(bp=3, p=3, k=2))
        f1 = measure_apply_flops(prob1)
        assert f1 == measure_apply_flops(prob1)
        prob3 = build_problem(RunConfig(bp=4, p=3, k=2))
        assert measure_apply_flops(prob3) == 3 * f1

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("bp", sorted(BP_TABLE))
    def test_one_element_count_equals_full_apply(self, bp, strategy):
        problem = build_problem(RunConfig(bp=bp, p=2, k=3, mode="bk",
                                          strategy=strategy))
        cfg = problem.config
        probe = bakeoff.make_operator(cfg.spec, problem.basis, problem.geom,
                                      strategy, cfg.block, instrument=True)
        probe.apply_local(problem.b)
        assert measure_apply_flops(problem) == probe.counters.total_flops

    # Counts at p = 3, k = 3 for (sumfact, interpfirst, evenodd); blocked
    # runs the sumfact dataflow, so it counts as sumfact at either block.
    PINNED = {1: (40040, 40040, 28328), 3: (123032, 116040, 90968),
              5: (33280, 33280, 27136)}

    @pytest.mark.parametrize("bp", sorted(PINNED))
    def test_counts_are_pinned_for_every_strategy(self, bp):
        sumfact, interpfirst, evenodd = self.PINNED[bp]
        want = dict(sumfact=sumfact, interpfirst=interpfirst,
                    evenodd=evenodd, blocked=sumfact)
        for strategy in STRATEGIES:
            for block in BLOCK_SIZES:
                problem = build_problem(RunConfig(
                    bp=bp, p=3, k=3, mode="bk", strategy=strategy,
                    block=block))
                assert measure_apply_flops(problem) == want[strategy]

    def test_close_to_model(self):
        problem = build_problem(RunConfig(bp=3, p=5, k=2))
        measured = measure_apply_flops(problem)
        model = problem.op.model_flops() * problem.mesh.E
        assert abs(measured - model) / model <= 0.05


class TestRun:
    def test_bp_run_record(self):
        cfg = RunConfig(bp=3, p=3, k=2, iterations=8, trials=2)
        result = run(cfg)
        assert result.n == cfg.n
        assert result.n_per_rank == cfg.n
        assert result.seconds_total > 0
        assert result.seconds_per_iter == result.seconds_total / 8
        assert len(result.trial_seconds) == 2
        assert (min(result.trial_seconds) <= result.seconds_total
                <= max(result.trial_seconds))
        # One rank exchanges nothing; PCG counts 2 reductions per
        # iteration plus the initial one.
        assert result.messages == 0
        assert result.reductions == 17
        assert result.solver.iterations == 8

    def test_rate_is_recomputable(self):
        cfg = RunConfig(bp=1, p=4, k=2, iterations=5, trials=1)
        result = run(cfg)
        assert result.dofs_rate == pytest.approx(
            cfg.iterations * cfg.n / (cfg.ranks * result.seconds_total))

    def test_bk_run_has_no_solver_or_traffic(self):
        cfg = RunConfig(bp=5, p=4, k=2, mode="bk", iterations=4, trials=1)
        result = run(cfg)
        assert result.solver is None
        assert result.messages == 0
        assert result.reductions == 0
        assert result.flops_measured > 0

    def test_partitioned_run_counts_messages(self):
        cfg = RunConfig(bp=3, p=2, k=3, ranks=2, iterations=4, trials=1)
        result = run(cfg)
        # Two adjacent partitions: one message per gather_scatter, one
        # gather_scatter per counted matvec.
        assert result.messages == cfg.iterations
        assert result.reductions == 2 * cfg.iterations + 1

    def test_solver_timings_cover_the_last_trial_only(self):
        # The applier outlives the warm-up and every trial; the reported
        # phase times must still belong to the solve that produced them.
        cfg = RunConfig(bp=5, p=3, k=6, ranks=2, threads=2, iterations=5,
                        trials=2)
        result = run(cfg)
        assert sum(result.solver.timings.values()) <= result.trial_seconds[-1]

    # k = 10 is two storage blocks (512 elements each at q = 4), as on the
    # bp5-p3-r2 benchmark workload; k = 6 is one.
    @pytest.mark.parametrize("fields", [
        dict(k=6), dict(k=10, iterations=5, trials=1)])
    def test_threads_start_no_thread(self, fields, monkeypatch):
        # threads is recorded only: the apply is serial, so the setting
        # changes neither the thread count nor a bit.
        counts = []
        solve = bakeoff.pcg

        def spy(*args, **kwargs):
            out = solve(*args, **kwargs)
            counts.append(threading.active_count())
            return out

        monkeypatch.setattr(bakeoff, "pcg", spy)
        before = threading.active_count()
        histories = {}
        for threads in (1, 2):
            cfg = RunConfig(bp=5, p=3, ranks=2, threads=threads, **fields)
            result = run(cfg)
            assert result.threads == threads
            histories[threads] = result.solver.residual_history
        # The warm-up and every trial, once per thread count.
        assert counts == [before] * 2 * (1 + cfg.trials)
        assert threading.active_count() == before
        assert histories[1].tobytes() == histories[2].tobytes()

    def test_collector_is_paused_over_the_trials(self, monkeypatch):
        # A collection of the caller's heap must not stall a trial or the
        # gap between two; the collector's state is restored afterwards.
        enabled = []
        solve = bakeoff.pcg

        def spy(*args, **kwargs):
            enabled.append(gc.isenabled())
            return solve(*args, **kwargs)

        monkeypatch.setattr(bakeoff, "pcg", spy)
        cfg = RunConfig(bp=3, p=2, k=2, iterations=2, trials=2)
        was_enabled = gc.isenabled()
        gc.enable()
        try:
            run(cfg)
            assert enabled == [False] * 3       # warm-up and two trials
            assert gc.isenabled()
            gc.disable()
            run(cfg)
            assert not gc.isenabled()
        finally:
            if was_enabled:
                gc.enable()

    @pytest.mark.parametrize("kwargs,iterations", [
        (dict(bp=5, p=2, k=0), 1),     # one free node: exact in one step
        (dict(bp=3, p=2, k=2), 72),    # residual underflows to 0.0
    ])
    def test_exact_solve_stops_early(self, kwargs, iterations):
        result = run(RunConfig(iterations=100, trials=1, **kwargs))
        history = result.solver.residual_history
        assert result.solver.iterations == iterations
        assert history[-1] == 0.0
        assert np.all(np.diff(history) <= 0.0)
        assert result.seconds_per_iter == result.seconds_total / iterations
        assert result.dofs_rate == pytest.approx(
            iterations * result.n / result.seconds_total)

    def test_instrumented_counting_is_repeatable(self):
        # flops_measured comes from an instrumented probe operator.
        cfg = RunConfig(bp=3, p=3, k=1, iterations=3, trials=1)
        a = run(cfg)
        b = run(cfg)
        assert (a.n, a.flops_measured, a.messages, a.reductions) == \
               (b.n, b.flops_measured, b.messages, b.reductions)


class TestSweep:
    def test_invalid_points_become_failures(self):
        results, failures = sweep(3, [2], [1, 2], ranks=4, iterations=2,
                                  trials=1)
        # k=1 gives E=2 < 4 ranks: skipped, not fatal.
        assert len(results) == 1
        assert len(failures) == 1
        assert failures[0].p == 2 and failures[0].k == 1
        assert "rank" in failures[0].error

    def test_no_free_dof_point_becomes_failure(self):
        results, failures = sweep(3, [1], [2, 3], iterations=2, trials=1)
        assert [r.config.k for r in results] == [3]
        assert [(f.p, f.k) for f in failures] == [(1, 2)]
        assert "no free degree of freedom" in failures[0].error

    def test_results_sorted_by_size(self):
        results, failures = sweep(1, [2, 3], [1, 2], iterations=2, trials=1)
        assert not failures
        sizes = [r.n_per_rank for r in results]
        assert sizes == sorted(sizes)
        assert len(results) == 4

    def test_progress_callback(self):
        seen = []
        sweep(1, [2], [1], iterations=2, trials=1, progress=seen.append)
        assert len(seen) == 1
        assert seen[0].n == 2 ** 3 * 2

    def test_fields_reach_every_config(self):
        fields = dict(mode="bk", strategy="blocked", block=4, iterations=2,
                      trials=1)
        results, failures = sweep(1, [2], [1], **fields)
        assert not failures
        assert results[0].config == RunConfig(1, 2, 1, **fields)

    def test_unknown_field_raises(self):
        with pytest.raises(TypeError):
            sweep(1, [2], [1], iteration=2, trials=1)


class TestConfigSpace:
    """Every config that validates either runs or is refused up front."""

    @settings(max_examples=300, deadline=None)
    @given(bp=st.integers(1, 6), p=st.integers(1, 4), k=st.integers(0, 4),
           mode=st.sampled_from(MODES), ranks=st.integers(1, 4),
           strategy=st.sampled_from(STRATEGIES),
           block=st.sampled_from(BLOCK_SIZES), iterations=st.integers(1, 6),
           threads=st.integers(1, 2))
    def test_runs_or_raises_config_error(self, **fields):
        # A DivergenceError, or any other exception, fails the example.
        # The residual may rise between steps: PCG does not promise a
        # monotone preconditioned residual.
        try:
            config = RunConfig(trials=1, **fields)
            result = run(config)
        except ConfigError:
            return
        if config.mode == "bp":
            history = result.solver.residual_history
            assert history.size == result.solver.iterations + 1
            assert np.all(np.isfinite(history))
        assert np.isfinite(result.seconds_per_iter)
