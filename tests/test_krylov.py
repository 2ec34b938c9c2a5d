"""Operator diagonals, Jacobi preconditioning, and the PCG loop."""

import time

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from sembench.assembly import build_gather_scatter
from sembench.bakeoff import build_rhs
from sembench.krylov import (DivergenceError, SystemApplier, compute_diagonal,
                             make_preconditioner, pcg)
from sembench.operators import (MassOperator, StiffnessOperator,
                                assemble_reference_csr)
from sembench.verify import inject_geom_fault

from conftest import rel_err


def make_op(kind, s, **kw):
    cls = StiffnessOperator if kind == "stiffness" else MassOperator
    return cls(s.basis, s.geom, **kw)


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
        op = make_op("mass", s, beta=2.0)
        got = compute_diagonal(op)
        assert np.array_equal(got, 2.0 * s.geom.mass_diag.reshape(-1))

    def test_diagonal_is_positive(self, stack):
        s = stack(4, "GL", 3)
        for system in ("stiffness", "mass"):
            assert np.all(compute_diagonal(make_op(system, s)) > 0)


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

    def test_nan_rhs_raises(self, stack):
        s, A, b, minv = poisson_setup(stack)
        bad = b.copy()
        bad[0] = np.nan
        with pytest.raises(DivergenceError):
            pcg(A, s.gs, bad, max_iters=5)

    def test_negated_operator_raises_curvature_error(self, stack):
        s, A, b, minv = poisson_setup(stack)

        def negated(u, count=True):
            return -A(u, count=count)

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
