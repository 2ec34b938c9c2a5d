"""Operator diagonals, Jacobi preconditioning, and the PCG loop."""

import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from sembench import tensors
from sembench.assembly import build_gather_scatter
from sembench.bakeoff import RunConfig, build_problem, build_rhs
from sembench.krylov import (DivergenceError, SystemApplier, compute_diagonal,
                             make_preconditioner, pcg)
from sembench.mesh import compute_geometric_factors, from_blocks
from sembench.operators import MassOperator, StiffnessOperator
from sembench.verify import assemble_reference_csr, inject_geom_fault

from conftest import rel_err


def make_op(kind, s, geom=None, **kw):
    cls = StiffnessOperator if kind == "stiffness" else MassOperator
    return cls(s.basis, s.geom if geom is None else geom, **kw)


class TestDiagonal:
    @pytest.mark.parametrize("system,kind", [("stiffness", "GL"),
                                             ("stiffness", "GLL"),
                                             ("mass", "GL")])
    def test_matches_csr_diagonal(self, system, kind, stack):
        s = stack(3, kind, 2)
        op = make_op(system, s)
        csr = assemble_reference_csr(op, s.gs, mask=False)
        got = s.gs.gather_scatter(compute_diagonal(op), count=False)
        ref = csr.diagonal()[s.gs.numbering.local_to_global]
        assert rel_err(got, ref) <= 1e-13

    def test_collocated_mass_diagonal_is_exact(self, stack):
        s = stack(4, "GLL", 2)
        op = make_op("mass", s)
        got = compute_diagonal(op)
        # At GLL the nodes are the quadrature points, so the local layout
        # is the layout of mass_diag itself.
        assert np.array_equal(got, s.geom.mass_diag)

    def test_diagonal_is_positive(self, stack):
        s = stack(4, "GL", 3)
        for system in ("stiffness", "mass"):
            assert np.all(compute_diagonal(make_op(system, s)) > 0)


class TestBatchedDiagonal:
    @pytest.mark.parametrize("system,kind", [("stiffness", "GL"),
                                             ("stiffness", "GLL"),
                                             ("mass", "GL")])
    def test_batch_size_does_not_change_a_bit(self, system, kind, stack,
                                              monkeypatch):
        s = stack(3, kind, 6)                     # 64 elements, one batch
        # Each diagonal is in its geometry's layout; compared element-major.
        ref = from_blocks(compute_diagonal(make_op(system, s)),
                          s.geom.block, 4)
        q = s.basis.q
        for per_batch in (15, 1):                 # 5 and 64 batches
            monkeypatch.setattr(tensors, "WORKING_SET_WORDS",
                                per_batch * q ** 3)
            assert tensors.batch_size(q) == per_batch
            # The diagonal runs the geometry's storage blocks, so the
            # geometry is rebuilt under the patched batch size.
            geom = compute_geometric_factors(s.mesh, s.basis)
            assert geom.block == per_batch
            op = make_op(system, s, geom)
            assert np.array_equal(
                from_blocks(compute_diagonal(op), per_batch, 4), ref)

    @pytest.mark.parametrize("system", ["stiffness", "mass"])
    def test_peak_memory_is_output_plus_one_batch(self, system, stack):
        s = stack(7, "GL", 9)                     # 512 elements, 12 batches
        assert s.mesh.E >= 8 * tensors.batch_size(s.basis.q)
        op = make_op(system, s)
        tracemalloc.start()
        try:
            d = compute_diagonal(op)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * d.nbytes


class TestPreconditioner:
    def test_inverse_of_assembled_diagonal(self, stack):
        s = stack(3, "GL", 2, bc="dirichlet")
        op = make_op("stiffness", s)
        minv = make_preconditioner(op, s.gs)
        d = s.gs.apply_mask(
            s.gs.gather_scatter(compute_diagonal(op), count=False))
        live = s.gs.mask > 0
        assert np.allclose(minv[live] * d[live], 1.0, atol=1e-15, rtol=0)
        assert np.array_equal(minv[~live], np.ones(np.sum(~live)))

    def test_negative_diagonal_raises(self, stack):
        s = stack(2, "GL", 1, bc="neumann")
        broken = inject_geom_fault(s.geom, element=0, slot=0, point=(1, 1, 1),
                                   scale=-50.0)
        op = StiffnessOperator(s.basis, broken)
        with pytest.raises(DivergenceError):
            make_preconditioner(op, s.gs)


def poisson_setup(stack, p=3, k=2):
    s = stack(p, "GL", k, bc="dirichlet")
    op = make_op("stiffness", s)
    b = build_rhs(s.mesh, s.basis, s.geom, s.gs, components=1)
    minv = make_preconditioner(op, s.gs)
    return s, SystemApplier(op, s.gs), b, minv


class TestPcg:
    def test_solves_against_direct_factorization(self, stack):
        s, A, b, minv = poisson_setup(stack)
        x, run = pcg(A, s.gs, b, max_iters=500, tol=1e-12, minv=minv)
        assert run.converged

        num = s.gs.numbering
        csr = assemble_reference_csr(A.op, s.gs)
        gmask = s.gs.global_mask()
        free = np.nonzero(gmask)[0]
        bg = np.zeros(num.n_global)
        bg[num.local_to_global] = b          # continuous field, coincident ok
        xg = np.zeros(num.n_global)
        xg[free] = spla.spsolve(csr[np.ix_(free, free)].tocsc(), bg[free])
        assert rel_err(x, xg[num.local_to_global]) <= 1e-8

    def test_fixed_iteration_protocol(self, stack):
        s, A, b, minv = poisson_setup(stack)
        x, run = pcg(A, s.gs, b, max_iters=25, minv=minv)
        assert run.iterations == 25
        assert not run.converged
        assert run.residual_history.shape == (26,)

    def test_reduction_count_is_two_per_iteration_plus_one(self, stack):
        s, A, b, minv = poisson_setup(stack)
        _, run = pcg(A, s.gs, b, max_iters=30, minv=minv,
                     record_energy=True, diagnostics=True)
        assert run.reductions == 2 * 30 + 1

    def test_energy_is_monotone_nonincreasing(self, stack):
        s, A, b, minv = poisson_setup(stack)
        _, run = pcg(A, s.gs, b, max_iters=40, minv=minv, record_energy=True)
        assert run.quadratic_history.shape == (41,)
        assert np.all(np.diff(run.quadratic_history) <= 1e-15)

    def test_diagnostics_residual_gap_is_tiny(self, stack):
        s, A, b, minv = poisson_setup(stack)
        _, run = pcg(A, s.gs, b, max_iters=50, minv=minv, diagnostics=True)
        assert run.residual_gap <= 1e-12 * run.b_norm
        # Unpreconditioned history norm equals the true residual norm.
        _, run2 = pcg(A, s.gs, b, max_iters=50, diagnostics=True)
        assert run2.true_residual_norm == pytest.approx(
            run2.residual_history[-1], rel=1e-6)

    def test_early_exit_on_tolerance(self, stack):
        s, A, b, minv = poisson_setup(stack)
        _, run = pcg(A, s.gs, b, max_iters=500, tol=1e-6, minv=minv)
        assert run.converged
        assert run.iterations < 500
        assert run.residual_history[-1] <= 1e-6 * run.residual_history[0]

    def test_perfect_preconditioner_converges_in_one_iteration(self, stack):
        # Collocated mass on a single element is diagonal, so Jacobi is
        # exact and CG needs one step.
        s = stack(3, "GLL", 0)
        op = make_op("mass", s)
        b = build_rhs(s.mesh, s.basis, s.geom, s.gs, components=1)
        minv = make_preconditioner(op, s.gs)
        x, run = pcg(SystemApplier(op, s.gs), s.gs, b, max_iters=10,
                     tol=1e-12, minv=minv)
        assert run.converged
        assert run.iterations == 1

    def test_three_component_solve(self, stack):
        s = stack(2, "GL", 2, bc="dirichlet")
        op = make_op("stiffness", s)
        b = build_rhs(s.mesh, s.basis, s.geom, s.gs, components=3)
        minv = make_preconditioner(op, s.gs)
        x, run = pcg(SystemApplier(op, s.gs), s.gs, b, max_iters=20,
                     minv=minv)
        assert x.shape == b.shape
        # Identical component loads produce bitwise identical solutions.
        assert np.array_equal(x[0], x[1])
        assert np.array_equal(x[0], x[2])

    def test_zero_rhs_is_solved_without_iterating(self, stack):
        s, A, b, minv = poisson_setup(stack)
        x, run = pcg(A, s.gs, np.zeros_like(b), max_iters=5, minv=minv)
        assert run.converged and run.iterations == 0
        assert not x.any()

    def test_nan_rhs_raises(self, stack):
        s, A, b, minv = poisson_setup(stack)
        bad = b.copy()
        bad[0] = np.nan
        with pytest.raises(DivergenceError):
            pcg(A, s.gs, bad, max_iters=5)

    def test_zero_operator_raises_curvature_error(self, stack):
        # p'Ap = 0 with a residual far from underflow is a breakdown.
        s, A, b, minv = poisson_setup(stack)

        def zero(u, count=True, out=None):
            out = A(u, count=count, out=out)
            return np.multiply(out, 0.0, out=out)

        with pytest.raises(DivergenceError, match="curvature"):
            pcg(zero, s.gs, b, max_iters=5)

    def test_underflowed_curvature_ends_converged(self):
        # This solve's residual underflows without reaching 0.0 (at
        # iteration 103 p'Ap is 0.0 and rho subnormal).  It stops there.
        pr = build_problem(RunConfig(bp=3, p=2, k=3))
        A = SystemApplier(pr.op, pr.gs)
        x, run = pcg(A, pr.gs, pr.b, max_iters=200, minv=pr.minv)
        assert run.converged and run.iterations < 200
        assert run.residual_history.size == run.iterations + 1
        assert 0.0 < run.residual_history[-1] ** 2 < np.finfo(float).tiny
        assert np.all(np.isfinite(x))

    def test_negated_operator_raises_curvature_error(self, stack):
        s, A, b, minv = poisson_setup(stack)

        def negated(u, count=True, out=None):
            out = A(u, count=count, out=out)
            return np.negative(out, out=out)

        with pytest.raises(DivergenceError, match="curvature"):
            pcg(negated, s.gs, b, max_iters=5)

    def test_timing_keys(self, stack):
        s, A, b, minv = poisson_setup(stack)
        _, run = pcg(A, s.gs, b, max_iters=5, minv=minv)
        assert set(run.timings) == {"dots", "axpy", "operator",
                                    "gather_scatter"}
        assert all(v >= 0.0 for v in run.timings.values())

    def test_timings_cover_only_their_own_solve(self, stack):
        # One applier reused across solves: each run reports the phase
        # time of its own solve, not the applier's running totals.
        s, A, b, minv = poisson_setup(stack, k=4)
        for _ in range(2):
            t0 = time.perf_counter()
            _, run = pcg(A, s.gs, b, max_iters=20, minv=minv)
            wall = time.perf_counter() - t0
            assert sum(run.timings.values()) <= wall

    def test_identity_preconditioner_default(self, stack):
        s, A, b, _ = poisson_setup(stack)
        x1, _ = pcg(A, s.gs, b, max_iters=10)
        x2, _ = pcg(A, s.gs, b, max_iters=10, minv=np.ones(b.shape[-1]))
        assert np.array_equal(x1, x2)


def reference_pcg(apply_a, gs, b, iters, minv):
    """PCG with out-of-place vector updates, as written before pcg reused
    its vectors; the in-place loop must match it bit for bit."""
    x = np.zeros_like(b)
    r = b.copy()
    z = minv * r
    p = z.copy()
    rho = gs.local_dot(r, z)
    history = [np.sqrt(rho)]
    for _ in range(iters):
        w = apply_a(p)
        alpha = rho / gs.local_dot(p, w)
        x = x + alpha * p
        r = r - alpha * w
        z = minv * r
        rho_new = gs.local_dot(r, z)
        history.append(np.sqrt(max(rho_new, 0.0)))
        p = z + (rho_new / rho) * p
        rho = rho_new
    return x, np.asarray(history)


def bits(*arrays):
    """int64 views of float arrays, so signed zeros and NaNs compare too."""
    return [np.asarray(a, dtype=np.float64).view(np.int64) for a in arrays]


class TestInPlacePcg:
    @pytest.mark.parametrize("bp,p,k", [(3, 3, 3), (4, 2, 3), (5, 3, 3)])
    @pytest.mark.parametrize("ranks", [1, 3])
    def test_matches_out_of_place_reference(self, bp, p, k, ranks):
        # Also with -0.0 in b (at its masked zeros), where the first step's
        # alpha p is -0.0 and a zeroed x0 makes x +0.0.
        pr = build_problem(RunConfig(bp=bp, p=p, k=k, ranks=ranks))
        A = SystemApplier(pr.op, pr.gs)
        signed = np.where(pr.b == 0.0, -0.0, pr.b)
        assert np.signbit(signed[signed == 0.0]).any()
        for b in (pr.b, signed):
            x_ref, hist_ref = reference_pcg(A, pr.gs, b, 20, pr.minv)
            x, run = pcg(A, pr.gs, b, max_iters=20, minv=pr.minv)
            assert run.iterations == 20
            for got, ref in zip(bits(x, run.residual_history),
                                bits(x_ref, hist_ref)):
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("ranks", [1, 3])
    @pytest.mark.parametrize("comps", [1, 3])
    def test_iterations_allocate_no_vector(self, stack, ranks, comps):
        # A stub operator, 2 u written into out, starts a tracemalloc
        # window at the start of iteration 3 and reads its peak at the
        # start of iteration 9.  numpy buffers a broadcast over rows
        # shorter than its 8192-element buffer (a fixed 64 KiB, not a
        # vector), so every partition here is longer than that.
        s = stack(3, "GL", 9, ranks=ranks)
        rng = np.random.default_rng(7)
        shape = (s.gs.n_local,) if comps == 1 else (comps, s.gs.n_local)
        b = rng.standard_normal(shape)
        minv = rng.uniform(0.5, 1.5, s.gs.n_local)
        window = {}

        def stub(u, count=True, out=None):
            window["calls"] = window.get("calls", 0) + 1
            if window["calls"] == 3:
                tracemalloc.reset_peak()
                window["base"] = tracemalloc.get_traced_memory()[0]
            elif window["calls"] == 9:
                window["rise"] = (tracemalloc.get_traced_memory()[1]
                                  - window["base"])
            return np.multiply(u, 2.0, out=out)

        tracemalloc.start()
        try:
            _, run = pcg(stub, s.gs, b, max_iters=10, minv=minv)
        finally:
            tracemalloc.stop()
        assert run.iterations == 10
        assert window["rise"] < 0.25 * b.nbytes

    def test_zero_rhs_on_dirty_vectors(self, stack, monkeypatch):
        # No step runs, so the solve itself sets x = 0 and r = b, whatever
        # its unfilled vectors held.
        s, A, b, minv = poisson_setup(stack)
        empty = np.empty

        def dirty(*args, **kwargs):
            out = empty(*args, **kwargs)
            if out.dtype.kind == "f":
                out.fill(-np.inf)
            return out

        monkeypatch.setattr(np, "empty", dirty)
        zero = np.zeros_like(b)
        x, run = pcg(A, s.gs, zero, max_iters=5, minv=minv, diagnostics=True)
        assert run.converged and run.iterations == 0
        got, ref = bits(x, zero)
        assert np.array_equal(got, ref)
        assert run.residual_gap == 0.0 and run.true_residual_norm == 0.0

    def test_b_norm_only_with_diagnostics(self, stack):
        s, A, b, minv = poisson_setup(stack)
        _, run = pcg(A, s.gs, b, max_iters=7, minv=minv)
        assert run.b_norm is None
        assert run.reductions == 2 * 7 + 1
        _, run = pcg(A, s.gs, b, max_iters=7, minv=minv, diagnostics=True)
        assert run.b_norm == np.sqrt(s.gs.local_dot(b, b, count=False))
        assert run.reductions == 2 * 7 + 1

    def test_solve_ends_with_the_residual_dot(self, stack, monkeypatch):
        # A timed solve's last gather-scatter call is the final r.z dot,
        # so a trace of the solve ends where its work ends.
        s, A, b, minv = poisson_setup(stack)
        calls = []
        for name in ("gather_scatter", "apply_mask", "local_dot"):
            method = getattr(s.gs, name)
            monkeypatch.setattr(s.gs, name, lambda *a, _m=method, _n=name,
                                **k: calls.append(_n) or _m(*a, **k))
        pcg(A, s.gs, b, max_iters=3, minv=minv)
        assert calls == (["local_dot"]
                         + ["gather_scatter", "local_dot", "local_dot"] * 3)


class TestSystemApplierLayout:
    def test_rejects_a_plan_in_another_layout(self, stack):
        s = stack(3, "GL", 3, bc="dirichlet")
        op = make_op("stiffness", s)
        element_major = build_gather_scatter(s.mesh, bc="dirichlet")
        assert element_major.block == 1 != s.geom.block
        with pytest.raises(ValueError, match="layout"):
            SystemApplier(op, element_major)
        assert SystemApplier(op, s.gs).gs is s.gs


class TestSystemApplierOut:
    @pytest.mark.parametrize("comps", [1, 3])
    def test_out_matches_allocating_call(self, comps):
        pr = build_problem(RunConfig(bp=3, p=3, k=3, ranks=3))
        A = SystemApplier(pr.op, pr.gs)
        rng = np.random.default_rng(3)
        shape = (pr.gs.n_local,) if comps == 1 else (comps, pr.gs.n_local)
        u = rng.standard_normal(shape)
        ref = A(u, count=False)
        w = np.full(shape, np.nan)
        assert A(u, count=False, out=w) is w
        assert np.array_equal(w, ref)
        # The owned buffers are reused: a second call gives the same bits.
        assert np.array_equal(A(u, count=False, out=w), ref)

    def test_work_buffers_are_made_once(self, monkeypatch):
        pr = build_problem(RunConfig(bp=3, p=2, k=3))
        A = SystemApplier(pr.op, pr.gs)
        seen = {"local": [], "out": []}
        apply_local, gather = pr.op.apply_local, pr.gs.gather_scatter

        def spy_apply(u, out=None, elements=None):
            seen["local"].append(out)
            return apply_local(u, out=out, elements=elements)

        def spy_gather(u, count=True, out=None):
            seen["out"].append(out)
            return gather(u, count=count, out=out)

        monkeypatch.setattr(pr.op, "apply_local", spy_apply)
        monkeypatch.setattr(pr.gs, "gather_scatter", spy_gather)
        w = np.empty_like(pr.b)
        for _ in range(3):
            A(pr.b, out=w)
        for bufs in seen.values():
            assert bufs[0] is not None
            assert all(b is bufs[0] for b in bufs)

    def test_thread_pool_is_bitwise_serial(self):
        # At q = 9 a storage block is 44 elements, and the partitions of
        # 128 elements start at 42 and 85, inside blocks.
        pr = build_problem(RunConfig(bp=3, p=7, k=7, ranks=3, mode="bk"))
        assert pr.geom.block == 44
        assert [e0 for e0, _ in pr.gs.partitions] == [0, 42, 85]
        u = np.random.default_rng(4).standard_normal(pr.gs.n_local)
        serial = SystemApplier(pr.op, pr.gs)
        with ThreadPoolExecutor(max_workers=2) as pool:
            pooled = SystemApplier(pr.op, pr.gs, pool)
            assert np.array_equal(pooled.apply_local(u), serial.apply_local(u))
            assert np.array_equal(pooled(u, count=False),
                                  serial(u, count=False))

    @pytest.mark.parametrize("comps", [1, 3])
    def test_system_apply_keeps_no_vector(self, comps):
        # A_L u goes into out and is summed and masked there, so the first
        # call leaves nothing vector-sized behind in the applier.
        pr = build_problem(RunConfig(bp=2 + comps, p=3, k=3, ranks=3))
        A = SystemApplier(pr.op, pr.gs)
        w = np.empty_like(pr.b)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            A(pr.b, out=w)
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert kept < 8 * pr.gs.n_local
