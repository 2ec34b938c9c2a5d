"""Matrix-free operators: equivalence, cost models, algebraic structure."""

import gc
import weakref

import numpy as np
import pytest

from sembench.basis import make_basis
from sembench.mesh import (build_box_mesh, compute_geometric_factors,
                           from_blocks)
from sembench.assembly import build_gather_scatter, build_numbering
from sembench.operators import (MassOperator, STRATEGIES, STRATEGY_RTOL,
                                StiffnessOperator, batch_size, bytes_model,
                                collocated_flop_model, flop_model,
                                mass_flop_model, single_contraction_flops)
from sembench.verify import assemble_reference_csr, per_element_apply

from conftest import rel_err


def make_op(kind, stackobj, **kw):
    cls = StiffnessOperator if kind == "stiffness" else MassOperator
    return cls(stackobj.basis, stackobj.geom, **kw)


class TestFlopModels:
    def test_single_contraction_pin(self):
        # p = 3, q = 5: 2 (5*64 + 25*16 + 125*4) = 2440.
        assert single_contraction_flops(3, 5) == 2440

    def test_sumfact_pin_gamma_one(self):
        # p1 = 8, q = 8: 4*8^4*(3+3+2) + 15*8^3 = 138752.
        assert flop_model("sumfact", 7, 8) == 138752.0
        assert flop_model("blocked", 7, 8) == 138752.0

    def test_interpfirst_pin_gamma_one(self):
        # Same sizes with the interpolate-then-differentiate ordering.
        assert flop_model("interpfirst", 7, 8) == 105984.0

    def test_collocated_ratio_favors_interpfirst(self):
        ratio = flop_model("interpfirst", 7, 8) / flop_model("sumfact", 7, 8)
        assert abs(ratio - 0.764) <= 0.001

    def test_oversampled_ratio_favors_sumfact(self):
        # q/p1 = 3/2 flips the comparison.
        ratio = flop_model("interpfirst", 7, 12) / flop_model("sumfact", 7, 12)
        assert abs(ratio - 1.12) <= 0.01

    @pytest.mark.parametrize("p", [5, 7, 9])
    def test_evenodd_model_beats_sumfact(self, p):
        q = p + 2
        assert flop_model("evenodd", p, q) < flop_model("sumfact", p, q)

    def test_mass_models(self):
        assert mass_flop_model(7, 8, collocated=True) == 512.0
        assert mass_flop_model(3, 5, collocated=False) == 2 * 2440 + 125

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            flop_model("magic", 3, 5)
        with pytest.raises(ValueError):
            collocated_flop_model("magic", 3)

    @pytest.mark.parametrize("p", range(1, 8))
    def test_collocated_dense_pin(self, p):
        p1 = p + 1
        for strategy in ("sumfact", "interpfirst", "blocked"):
            assert collocated_flop_model(strategy, p) == (12 * p1 ** 4
                                                          + 17 * p1 ** 3)

    def test_collocated_evenodd_pin(self):
        # p1 = 4: six stages of 8 FMAs and 8 adds per point over 16 points,
        # plus 17 * 64 pointwise and accumulation flops.
        assert collocated_flop_model("evenodd", 3) == 3392.0


class TestBytesModel:
    def test_stiffness_scalar_pin(self):
        # p = 7, q = 8: metric reads 6 q^3 = 3072 plus the field.
        assert bytes_model(7, 8) == (3584, 512)

    def test_stiffness_metric_amortized_over_components(self):
        reads, writes = bytes_model(7, 8, components=3)
        assert reads == 6 * 512 + 3 * 512
        assert writes == 3 * 512

    def test_mass_collocated_pin(self):
        # Diagonal + field in, field out: 3 p1^3 words total.
        reads, writes = bytes_model(7, 8, 1, "mass", collocated=True)
        assert (reads, writes) == (1024, 512)

    def test_mass_quadrature_diagonal(self):
        reads, writes = bytes_model(3, 5, 1, "mass", collocated=False)
        assert reads == 125 + 64
        assert writes == 64

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            bytes_model(3, 5, 1, "helmholtz")


class TestCsrEquivalence:
    @pytest.mark.parametrize("system,bc", [("stiffness", "dirichlet"),
                                           ("stiffness", "neumann"),
                                           ("mass", "neumann")])
    def test_matrix_free_matches_assembled(self, system, bc, stack, rng):
        s = stack(3, "GL", 3, bc=bc)
        op = make_op(system, s)
        csr = assemble_reference_csr(op, s.gs)
        num = s.gs.numbering
        for _ in range(3):
            ug = rng.standard_normal(num.n_global)
            u = s.gs.apply_mask(ug[num.local_to_global])
            w = s.gs.apply_mask(s.gs.gather_scatter(op.apply_local(u)))
            ref = (csr @ (ug * s.gs.global_mask()))[num.local_to_global]
            assert rel_err(w, ref) <= 1e-12

    def test_collocated_stiffness_matches_assembled(self, stack, rng):
        s = stack(4, "GLL", 2, bc="dirichlet")
        op = make_op("stiffness", s)
        csr = assemble_reference_csr(op, s.gs)
        num = s.gs.numbering
        ug = rng.standard_normal(num.n_global) * s.gs.global_mask()
        u = ug[num.local_to_global]
        w = s.gs.apply_mask(s.gs.gather_scatter(op.apply_local(u)))
        assert rel_err(w, (csr @ ug)[num.local_to_global]) <= 1e-12

    def test_csr_is_symmetric(self, stack):
        s = stack(2, "GL", 2, bc="dirichlet")
        csr = assemble_reference_csr(make_op("stiffness", s), s.gs)
        assert abs(csr - csr.T).max() <= 1e-13

    def test_csr_is_positive_semidefinite(self, stack):
        s = stack(2, "GL", 1, bc="dirichlet")
        csr = assemble_reference_csr(make_op("stiffness", s), s.gs)
        evals = np.linalg.eigvalsh(csr.toarray())
        assert evals.min() >= -1e-12

    def test_p1_interior_rows_have_27_point_stencil(self, stack):
        # Trilinear elements couple each interior node to its 3x3x3
        # lattice neighborhood in the unmasked assembled matrix.
        s = stack(1, "GL", 6, bc="dirichlet")
        csr = assemble_reference_csr(make_op("stiffness", s), s.gs,
                                     mask=False)
        interior = np.nonzero(s.gs.global_mask())[0]
        assert interior.size == 27
        csr.eliminate_zeros()
        nnz = np.diff(csr.indptr)
        assert np.all(nnz[interior] == 27)

    def test_size_guard(self):
        mesh = build_box_mesh(7, 8, deformation="none")
        num = build_numbering(mesh)
        assert num.n_global > 50_000
        basis = make_basis(8, "GL")
        geom = compute_geometric_factors(mesh, basis)
        op = StiffnessOperator(basis, geom)
        gs = build_gather_scatter(mesh, num)
        with pytest.raises(ValueError, match="50,000"):
            assemble_reference_csr(op, gs)


class TestAlgebraicStructure:
    def test_stiffness_annihilates_constants(self, stack):
        # Gradient of a constant is zero, so A_L 1 = 0 to rounding.
        s = stack(5, "GL", 3)
        op = make_op("stiffness", s)
        w = op.apply_local(np.ones(op.n_local))
        assert np.max(np.abs(w)) <= 1e-11

    def test_neumann_assembled_null_space(self, stack, rng):
        s = stack(3, "GL", 2, bc="neumann")
        op = make_op("stiffness", s)
        one = np.ones(op.n_local)
        w = s.gs.gather_scatter(op.apply_local(one))
        assert np.max(np.abs(w)) <= 1e-11

    def test_local_operator_is_symmetric(self, stack, rng):
        s = stack(3, "GL", 2)
        op = make_op("stiffness", s)
        u = rng.standard_normal(op.n_local)
        v = rng.standard_normal(op.n_local)
        left = float(v @ op.apply_local(u))
        right = float(u @ op.apply_local(v))
        assert left == pytest.approx(right, rel=1e-12)

    def test_mass_volume_identity(self, stack):
        # 1^T B_L 1 integrates 1 over the unit box.
        s = stack(4, "GL", 3)
        op = make_op("mass", s)
        one = np.ones(op.n_local)
        assert float(one @ op.apply_local(one)) == pytest.approx(1.0, abs=1e-13)

    def test_mass_is_positive(self, stack, rng):
        s = stack(3, "GL", 2)
        op = make_op("mass", s)
        for _ in range(5):
            u = rng.standard_normal(op.n_local)
            assert float(u @ op.apply_local(u)) > 0


class TestStrategies:
    @pytest.mark.parametrize("p", range(1, 11))
    @pytest.mark.parametrize("kind", ["GL", "GLL"])
    def test_all_strategies_agree(self, p, kind, stack, rng):
        s = stack(p, kind, 1)
        ref_op = make_op("stiffness", s, strategy="sumfact")
        others = [make_op("stiffness", s, strategy="interpfirst"),
                  make_op("stiffness", s, strategy="evenodd"),
                  make_op("stiffness", s, strategy="blocked", block=4),
                  make_op("stiffness", s, strategy="blocked", block=8)]
        for _ in range(3):
            u = rng.standard_normal(ref_op.n_local)
            ref = ref_op.apply_local(u)
            for op in others:
                assert rel_err(op.apply_local(u), ref) <= STRATEGY_RTOL

    def test_blocked_is_bitwise_per_element(self, stack, rng):
        s = stack(4, "GL", 3)
        ref_op = make_op("stiffness", s, strategy="sumfact")
        u = rng.standard_normal(ref_op.n_local)
        ref = ref_op.apply_local(u)
        for block in (4, 8):
            op = make_op("stiffness", s, strategy="blocked", block=block)
            assert np.array_equal(op.apply_local(u), ref)
        # Every strategy at its default batch on E = 64 elements, more than
        # and not a multiple of batch_size(9) = 44, and on an element range
        # that starts and ends inside a batch.
        s = stack(7, "GL", 6)
        assert batch_size(s.basis.q) == 44
        for system in ("stiffness", "mass"):
            for strategy in STRATEGIES:
                op = make_op(system, s, strategy=strategy)
                u = rng.standard_normal(op.n_local)
                ref = per_element_apply(op, u)
                assert np.array_equal(op.apply_local(u), ref)
                part = from_blocks(op.apply_local(u, elements=(5, 50)), 44, 8)
                ref = from_blocks(ref, 44, 8)
                assert np.array_equal(part[5:50], ref[5:50])
                assert not part[:5].any() and not part[50:].any()

    def test_mass_strategies_agree(self, stack, rng):
        s = stack(3, "GL", 2)
        ref_op = make_op("mass", s)
        u = rng.standard_normal(ref_op.n_local)
        ref = ref_op.apply_local(u)
        for strategy in ("interpfirst", "evenodd", "blocked"):
            op = make_op("mass", s, strategy=strategy)
            assert rel_err(op.apply_local(u), ref) <= STRATEGY_RTOL

    def test_block_size_validation(self, stack):
        s = stack(2, "GL", 1)
        with pytest.raises(ValueError):
            make_op("stiffness", s, strategy="blocked", block=3)

    def test_unknown_strategy(self, stack):
        s = stack(2, "GL", 1)
        with pytest.raises(ValueError):
            make_op("stiffness", s, strategy="fused")

    def test_quadrature_mismatch_rejected(self):
        basis = make_basis(3, "GL")          # q = 5
        mesh = build_box_mesh(1, 3)
        geom = compute_geometric_factors(mesh, make_basis(3, "GLL", q=6))
        with pytest.raises(ValueError):
            StiffnessOperator(basis, geom)


class TestCollocatedStiffness:
    @pytest.mark.parametrize("p", range(1, 8))
    def test_dense_dataflow_bitwise_equals_interpfirst(self, p, stack, rng):
        # The collocated dataflow must add the transposed terms in the
        # interpfirst order; its identity contractions are exact.
        s = stack(p, "GLL", 2)
        op = make_op("stiffness", s)
        U = rng.standard_normal((p + 1, p + 1, p + 1, s.mesh.E))
        g = s.geom.slab(s.geom.G, 0, s.mesh.E)
        grads = op._grad_colloc(U, None)
        ref_grads = op._grad_interpfirst(U, None)
        for got, ref in zip(grads, ref_grads):
            assert np.array_equal(got, ref)
        wr, ws, wt = op._apply_g(*grads, g, None)
        assert np.array_equal(op._grad_t_colloc(wr, ws, wt, None),
                              op._grad_t_interpfirst(wr, ws, wt, None))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_strategy_runs_six_contractions(self, strategy, stack,
                                                  monkeypatch):
        s = stack(3, "GLL", 1)
        calls = []
        op = make_op("stiffness", s, strategy=strategy)
        contract = op._contract
        monkeypatch.setattr(op, "_contract",
                            lambda *a: calls.append(a[2]) or contract(*a))
        op.apply_local(np.ones(op.n_local))
        assert sorted(calls) == [0, 0, 1, 1, 2, 2]

    @pytest.mark.parametrize("p", range(1, 8))
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_measured_flops_equal_model(self, p, strategy, stack, rng):
        s = stack(p, "GLL", 1)
        op = make_op("stiffness", s, strategy=strategy, instrument=True)
        op.apply_local(rng.standard_normal(op.n_local))
        assert op.counters.total_flops == s.mesh.E * op.model_flops()


class TestPointwiseMetric:
    @pytest.mark.parametrize("kind", ["GL", "GLL"])
    def test_bitwise_equals_inline_expression(self, kind, stack, rng):
        s = stack(3, kind, 3)
        op = make_op("stiffness", s)
        q = s.basis.q
        ur, us, ut = rng.standard_normal((3, q, q, q, s.mesh.E))
        g = s.geom.slab(s.geom.G, 0, s.mesh.E)
        g11, g12, g13, g22, g23, g33 = g
        wr, ws, wt = op._apply_g(ur, us, ut, g, None)
        assert np.array_equal(wr, g11 * ur + g12 * us + g13 * ut)
        assert np.array_equal(ws, g12 * ur + g22 * us + g23 * ut)
        assert np.array_equal(wt, g13 * ur + g23 * us + g33 * ut)


class TestCollocatedMass:
    def test_apply_is_exact_diagonal_scaling(self, stack, rng):
        s = stack(4, "GLL", 2)
        op = make_op("mass", s)
        assert op.collocated
        u = rng.standard_normal(op.n_local)
        w = op.apply_local(u)
        # At GLL the local layout is the layout of mass_diag itself.
        assert np.array_equal(w, u * s.geom.mass_diag)


class TestLifetime:
    @pytest.mark.parametrize("kind", ["GL", "GLL"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_freed_without_the_cycle_collector(self, kind, strategy, stack):
        # Setup is repeated with one problem alive at a time; an operator in
        # a reference cycle would keep its geometric factors resident.
        s = stack(2, kind, 1)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for cls in (StiffnessOperator, MassOperator):
                op = cls(s.basis, s.geom, strategy=strategy)
                ref = weakref.ref(op)
                del op
                assert ref() is None
        finally:
            if was_enabled:
                gc.enable()


class TestApplyMechanics:
    def test_element_range_writes_only_that_slice(self, stack, rng):
        s = stack(3, "GL", 2)
        op = make_op("stiffness", s)
        u = rng.standard_normal(op.n_local)
        block = s.geom.block
        full = from_blocks(op.apply_local(u), block, 4)
        part = from_blocks(op.apply_local(u, elements=(1, 3)), block, 4)
        assert np.array_equal(part[1:3], full[1:3])
        assert not part[0].any() and not part[3].any()

    @pytest.mark.parametrize("system", ["stiffness", "mass"])
    def test_whole_block_batches_are_views(self, system, stack, rng,
                                           monkeypatch):
        # E = 64 at q = 9: a block of 44 elements and one of 20.  A batch
        # that is a whole block reads u and writes w in place; a part of
        # one is copied in and out.
        s = stack(7, "GL", 6)
        op = make_op(system, s)
        u = rng.standard_normal((3, op.n_local))
        w = np.zeros_like(u)
        seen = []
        apply_block = op._apply_block

        def spy(U, data, ct, out=None):
            seen.append((U.shape[-1], np.shares_memory(U, u),
                         out is not None and np.shares_memory(out, w)))
            return apply_block(U, data, ct, out)

        monkeypatch.setattr(op, "_apply_block", spy)
        op.apply_local(u, out=w)
        assert seen == [(44, True, True)] * 3 + [(20, True, True)] * 3
        seen.clear()
        op.apply_local(u, out=w, elements=(5, 50))
        assert seen == [(39, False, False)] * 3 + [(6, False, False)] * 3

    @pytest.mark.parametrize("ranks", [3, 8])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_partitions_inside_one_block(self, ranks, strategy, stack, rng):
        # E = 8 in one block: every partition is a strided column range
        # of it.  Its apply writes exactly its elements' locals, with the
        # bits of the per-element apply.
        s = stack(3, "GL", 3, ranks=ranks)
        assert s.geom.block > s.mesh.E
        op = make_op("stiffness", s, strategy=strategy)
        u = rng.standard_normal((3, op.n_local))
        ref = from_blocks(per_element_apply(op, u), s.geom.block, 4)
        for e0, e1 in s.gs.partitions:
            out = np.full_like(u, np.nan)
            op.apply_local(u, out=out, elements=(e0, e1))
            got = from_blocks(out, s.geom.block, 4)
            assert np.array_equal(got[:, e0:e1], ref[:, e0:e1])
            assert np.isnan(got[:, :e0]).all() and np.isnan(got[:, e1:]).all()

    def test_ranges_tile_the_full_apply(self, stack, rng):
        s = stack(3, "GL", 2)
        op = make_op("stiffness", s)
        u = rng.standard_normal(op.n_local)
        out = np.zeros_like(u)
        op.apply_local(u, out=out, elements=(0, 2))
        op.apply_local(u, out=out, elements=(2, 4))
        assert np.array_equal(out, op.apply_local(u))

    def test_vector_apply_components_bitwise_equal_scalar(self, stack, rng):
        s = stack(3, "GL", 2)
        for system in ("stiffness", "mass"):
            op = make_op(system, s)
            u3 = rng.standard_normal((3, op.n_local))
            w3 = op.apply_local(u3)
            for c in range(3):
                assert np.array_equal(w3[c], op.apply_local(u3[c]))

    def test_vector_apply_shape_validation(self, stack):
        s = stack(2, "GL", 1)
        op = make_op("stiffness", s)
        with pytest.raises(ValueError):
            op.apply_local(np.zeros(op.n_local + 1))


class TestInstrumentation:
    def test_stiffness_word_counts(self, stack, rng):
        s = stack(3, "GL", 2)
        op = make_op("stiffness", s, instrument=True)
        q, p1, E = s.basis.q, s.basis.p1, s.mesh.E
        op.apply_local(rng.standard_normal(op.n_local))
        assert op.counters.g_read_words == 6 * q ** 3 * E
        assert op.counters.read_words == p1 ** 3 * E
        assert op.counters.write_words == p1 ** 3 * E

    def test_metric_reads_amortized_across_components(self, stack, rng):
        s = stack(3, "GL", 2)
        op = make_op("stiffness", s, instrument=True)
        q, p1, E = s.basis.q, s.basis.p1, s.mesh.E
        op.apply_local(rng.standard_normal((3, op.n_local)))
        assert op.counters.g_read_words == 6 * q ** 3 * E
        assert op.counters.read_words == 3 * p1 ** 3 * E

    @pytest.mark.parametrize("p", [3, 5, 8])
    def test_measured_flops_within_model_band(self, p, stack, rng):
        s = stack(p, "GL", 1)
        op = make_op("stiffness", s, instrument=True)
        op.apply_local(rng.standard_normal(op.n_local))
        measured = op.counters.total_flops / s.mesh.E
        model = op.model_flops()
        assert abs(measured - model) / model <= 0.05

    @pytest.mark.parametrize("p", [5, 8])
    def test_evenodd_halves_multiplies(self, p, stack, rng):
        s = stack(p, "GL", 1)
        base = make_op("stiffness", s, strategy="sumfact", instrument=True)
        eo = make_op("stiffness", s, strategy="evenodd", instrument=True)
        u = rng.standard_normal(base.n_local)
        base.apply_local(u)
        eo.apply_local(u)
        assert eo.counters.fma / base.counters.fma <= 0.55

    def test_collocated_mass_counts(self, stack, rng):
        s = stack(3, "GLL", 1)
        op = make_op("mass", s, instrument=True)
        n = op.n_local
        op.apply_local(rng.standard_normal(n))
        assert op.counters.mul == n
        assert op.counters.read_words == 2 * n
        assert op.counters.write_words == n

    def test_uninstrumented_apply_leaves_counters_zero(self, stack, rng):
        s = stack(3, "GL", 1)
        op = make_op("stiffness", s)
        op.apply_local(rng.standard_normal(op.n_local))
        assert op.counters.total_flops == 0
