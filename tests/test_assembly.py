"""Global numbering, gather-scatter summation, masks, weighted dots."""

import numpy as np
import pytest
import scipy.sparse as sp

from sembench.assembly import (GatherScatter, build_gather_scatter,
                               build_numbering)
from sembench.mesh import build_box_mesh


def q_matrix(numbering):
    n_local = numbering.n_local
    return sp.csr_matrix(
        (np.ones(n_local), (np.arange(n_local), numbering.local_to_global)),
        shape=(n_local, numbering.n_global))


class TestNumbering:
    def test_two_element_p1_counts(self):
        # Two unit cubes sharing a face: 12 global nodes, 4 shared.
        mesh = build_box_mesh(1, 1)
        num = build_numbering(mesh)
        assert num.n_global == 12
        assert num.n_local == 16
        assert np.sum(num.multiplicity == 2) == 4
        assert np.sum(num.multiplicity == 1) == 8

    def test_multiplicity_sums_to_n_local(self):
        mesh = build_box_mesh(3, 3)
        num = build_numbering(mesh)
        assert num.multiplicity.sum() == num.n_local

    def test_qtq_is_multiplicity_diagonal(self):
        mesh = build_box_mesh(2, 2)
        num = build_numbering(mesh)
        q = q_matrix(num)
        qtq = (q.T @ q).toarray()
        assert np.array_equal(qtq, np.diag(num.multiplicity))

    def test_interior_vertex_multiplicity_eight(self):
        mesh = build_box_mesh(3, 2)
        num = build_numbering(mesh)
        assert num.multiplicity.max() == 8

    def test_coincident_nodes_have_identical_coordinates(self):
        mesh = build_box_mesh(2, 3)
        num = build_numbering(mesh)
        coords = mesh.elem_coords.transpose(0, 2, 3, 4, 1).reshape(-1, 3)
        for gid in np.nonzero(num.multiplicity > 1)[0][:50]:
            rows = coords[num.local_to_global == gid]
            assert np.array_equal(rows, np.broadcast_to(rows[0], rows.shape))


class TestGatherScatter:
    def test_matches_qqt(self, rng):
        mesh = build_box_mesh(3, 3)
        num = build_numbering(mesh)
        gs = build_gather_scatter(mesh, num)
        q = q_matrix(num)
        u = rng.standard_normal(num.n_local)
        got = gs.gather_scatter(u)
        ref = q @ (q.T @ u)
        assert np.allclose(got, ref, atol=1e-13, rtol=0)

    def test_identity_on_continuous_field(self, rng):
        mesh = build_box_mesh(2, 4)
        gs = build_gather_scatter(mesh)
        g = rng.standard_normal(gs.numbering.n_global)
        u = g[gs.numbering.local_to_global]
        v = gs.gather_scatter(gs.weight * u)
        assert np.allclose(v, u, atol=1e-14, rtol=0)

    def test_constant_scales_by_multiplicity(self):
        mesh = build_box_mesh(1, 2)
        gs = build_gather_scatter(mesh)
        v = gs.gather_scatter(np.ones(gs.n_local))
        mult = gs.numbering.multiplicity[gs.numbering.local_to_global]
        assert np.array_equal(v, mult.astype(float))

    def test_linearity(self, rng):
        mesh = build_box_mesh(2, 3)
        gs = build_gather_scatter(mesh)
        u = rng.standard_normal(gs.n_local)
        v = rng.standard_normal(gs.n_local)
        lhs = gs.gather_scatter(2.0 * u - 3.0 * v)
        rhs = 2.0 * gs.gather_scatter(u) - 3.0 * gs.gather_scatter(v)
        assert np.allclose(lhs, rhs, atol=1e-12, rtol=0)

    def test_two_component_rows(self, rng):
        mesh = build_box_mesh(1, 3)
        gs = build_gather_scatter(mesh)
        u = rng.standard_normal((2, gs.n_local))
        got = gs.gather_scatter(u)
        assert got.shape == u.shape
        for c in range(2):
            assert np.array_equal(got[c], gs.gather_scatter(u[c]))

    def test_wrong_length_rejected(self):
        mesh = build_box_mesh(1, 2)
        gs = build_gather_scatter(mesh)
        with pytest.raises(ValueError):
            gs.gather_scatter(np.zeros(7))

    def test_idempotent_after_weighting(self, rng):
        # QQ^T W QQ^T = QQ^T with W = diag(1/multiplicity).
        mesh = build_box_mesh(2, 3)
        gs = build_gather_scatter(mesh)
        u = rng.standard_normal(gs.n_local)
        once = gs.gather_scatter(u)
        twice = gs.gather_scatter(gs.weight * once)
        assert np.allclose(twice, once, atol=1e-13, rtol=0)


class TestPartitioned:
    @pytest.mark.parametrize("ranks", [2, 4, 8])
    def test_matches_single_partition(self, ranks, rng):
        mesh = build_box_mesh(3, 3)
        num = build_numbering(mesh)
        ref_gs = build_gather_scatter(mesh, num, ranks=1)
        par_gs = build_gather_scatter(mesh, num, ranks=ranks)
        u = rng.standard_normal(num.n_local)
        a = ref_gs.gather_scatter(u)
        b = par_gs.gather_scatter(u)
        assert np.max(np.abs(a - b)) <= 1e-13 * (np.max(np.abs(a)) + 1.0)

    def test_fast_mode_close_to_deterministic(self, rng):
        mesh = build_box_mesh(3, 3)
        det = build_gather_scatter(mesh, deterministic=True)
        fast = build_gather_scatter(mesh, deterministic=False)
        u = rng.standard_normal(det.n_local)
        a = det.gather_scatter(u)
        b = fast.gather_scatter(u)
        assert np.allclose(a, b, atol=1e-12, rtol=1e-12)

    def test_message_counting(self, rng):
        # k=3 split into 2 partitions: one adjacent pair, one message
        # per gather_scatter call.
        mesh = build_box_mesh(3, 2)
        gs = build_gather_scatter(mesh, ranks=2)
        u = rng.standard_normal(gs.n_local)
        gs.gather_scatter(u)
        assert gs.counters.messages == 1
        gs.gather_scatter(u)
        assert gs.counters.messages == 2
        gs.gather_scatter(u, count=False)
        assert gs.counters.messages == 2

    def test_component_rows_count_once(self, rng):
        mesh = build_box_mesh(3, 2)
        gs = build_gather_scatter(mesh, ranks=2)
        gs.gather_scatter(rng.standard_normal((3, gs.n_local)))
        assert gs.counters.messages == 1

    def test_ranks_validation(self):
        mesh = build_box_mesh(1, 2)
        with pytest.raises(ValueError):
            build_gather_scatter(mesh, ranks=0)
        with pytest.raises(ValueError):
            build_gather_scatter(mesh, ranks=3)


class TestMask:
    def test_neumann_mask_is_identity(self):
        mesh = build_box_mesh(2, 3)
        gs = build_gather_scatter(mesh, bc="neumann")
        assert np.array_equal(gs.mask, np.ones(gs.n_local))

    def test_dirichlet_zeroes_exactly_the_boundary(self):
        mesh = build_box_mesh(0, 3)
        gs = build_gather_scatter(mesh, bc="dirichlet")
        # Single element: interior nodes form the (p-1)^3 inner block.
        mask = gs.mask.reshape(4, 4, 4)
        assert np.array_equal(mask[1:3, 1:3, 1:3], np.ones((2, 2, 2)))
        outer = mask.copy()
        outer[1:3, 1:3, 1:3] = 2.0
        assert np.array_equal(outer != 2.0, mask == 0.0)
        assert gs.mask.sum() == 8

    def test_global_mask_counts_interior(self):
        mesh = build_box_mesh(3, 2)
        gs = build_gather_scatter(mesh, bc="dirichlet")
        g = gs.global_mask()
        ex, ey, ez = mesh.dims
        interior = (2 * ex - 1) * (2 * ey - 1) * (2 * ez - 1)
        assert g.sum() == interior

    def test_unknown_bc_rejected(self):
        mesh = build_box_mesh(1, 2)
        with pytest.raises(ValueError):
            build_gather_scatter(mesh, bc="robin")


class TestLocalDot:
    def test_matches_global_dot(self, rng):
        mesh = build_box_mesh(2, 3)
        num = build_numbering(mesh)
        gs = build_gather_scatter(mesh, num)
        ug = rng.standard_normal(num.n_global)
        vg = rng.standard_normal(num.n_global)
        u = ug[num.local_to_global]
        v = vg[num.local_to_global]
        got = gs.local_dot(u, v)
        assert got == pytest.approx(float(ug @ vg), rel=1e-13)

    def test_counts_one_reduction(self, rng):
        mesh = build_box_mesh(1, 2)
        gs = build_gather_scatter(mesh)
        u = rng.standard_normal(gs.n_local)
        gs.local_dot(u, u)
        gs.local_dot(u, u)
        assert gs.counters.reductions == 2
        gs.local_dot(u, u, count=False)
        assert gs.counters.reductions == 2

    def test_component_rows_sum(self, rng):
        mesh = build_box_mesh(1, 2)
        num = build_numbering(mesh)
        gs = build_gather_scatter(mesh, num)
        ug = rng.standard_normal((2, num.n_global))
        u = ug[:, num.local_to_global]
        got = gs.local_dot(u, u)
        assert got == pytest.approx(float(np.sum(ug * ug)), rel=1e-13)

    def test_shape_mismatch_rejected(self):
        mesh = build_box_mesh(1, 2)
        gs = build_gather_scatter(mesh)
        with pytest.raises(ValueError):
            gs.local_dot(np.zeros(gs.n_local), np.zeros(gs.n_local + 1))
