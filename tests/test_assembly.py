"""Global numbering, gather-scatter summation, masks, weighted dots."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sembench.assembly import (GatherScatter, build_gather_scatter,
                               build_numbering)
from sembench.mesh import MeshError, build_box_mesh, to_blocks
from sembench.verify import build_q_matrix


def local_partition(mesh, gs):
    """Partition of every local of gs, read off its layout: each element's
    index put through to_blocks and looked up in the partition ranges."""
    elem = np.broadcast_to(np.arange(mesh.E)[:, None, None, None],
                           (mesh.E,) + (mesh.p1,) * 3)
    starts = [e0 for e0, _ in gs.partitions]
    return np.searchsorted(starts, to_blocks(elem, gs.block),
                           side="right") - 1


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
        q = build_q_matrix(num)
        qtq = (q.T @ q).toarray()
        assert np.array_equal(qtq, np.diag(num.multiplicity))

    def test_interior_vertex_multiplicity_eight(self):
        mesh = build_box_mesh(3, 2)
        num = build_numbering(mesh)
        assert num.multiplicity.max() == 8

    def test_block_is_capped_at_e(self):
        num = build_numbering(build_box_mesh(3, 2), 16)
        assert num.block == 8
        assert np.array_equal(num.local_to_global,
                              build_numbering(build_box_mesh(3, 2),
                                              8).local_to_global)

    def test_block_that_does_not_divide_e_is_rejected(self):
        with pytest.raises(MeshError, match="block of 3 .*E = 8"):
            build_numbering(build_box_mesh(3, 2), 3)

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
        q = build_q_matrix(num)
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

    @pytest.mark.parametrize("ranks", [1, 3])
    @pytest.mark.parametrize("comps", [1, 3])
    def test_out_and_work_change_no_bit(self, ranks, comps, rng):
        mesh = build_box_mesh(4, 2)
        gs = build_gather_scatter(mesh, ranks=ranks)
        shape = (gs.n_local,) if comps == 1 else (comps, gs.n_local)
        u = rng.standard_normal(shape)
        ref = gs.gather_scatter(u)
        got = gs.gather_scatter(u.copy(), out=np.empty(shape))
        assert np.array_equal(got, ref)
        v = u.copy()
        assert gs.gather_scatter(v, out=v) is v
        assert np.array_equal(v, ref)
        masked = u.copy()
        assert gs.apply_mask(masked, out=masked) is masked
        assert np.array_equal(masked, gs.apply_mask(u))

    @pytest.mark.parametrize("ranks", [1, 3])
    def test_out_call_does_not_copy_the_index(self, ranks, rng):
        # np.take copies a read-only index on every call; beyond its one
        # bincount output, a sum per global id and per extra (shared)
        # slot, a gather into out allocates next to nothing.  A Neumann
        # plan at one rank sums and reads back through the numbering's
        # own map.
        mesh = build_box_mesh(4, 7)
        for bc in ("neumann", "dirichlet"):
            gs = build_gather_scatter(mesh, bc=bc, ranks=ranks)
            assert np.shares_memory(gs._slot,
                                    gs.numbering.local_to_global) == (
                bc == "neumann" and ranks == 1)
            assert not gs.numbering.local_to_global.flags.writeable
            u = rng.standard_normal(gs.n_local)
            w = np.empty_like(u)
            sums = 8 * (gs.numbering.n_global + 1
                        + gs._extra_gid.size)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                gs.gather_scatter(u, out=w)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (peak - base - sums
                    < gs.numbering.local_to_global.nbytes // 8)

    @pytest.mark.parametrize("ranks", [1, 3])
    @pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
    def test_plan_holds_one_local_index(self, ranks, bc):
        # Besides the numbering's map the plan keeps at most one index of
        # local length (none at one rank under Neumann conditions), and
        # building it sorts no full-length array: a key per local sorted
        # with its inverse, as np.unique(..., return_inverse=True) makes
        # it, would take the peak past 8 words per local.
        mesh = build_box_mesh(8, 3)
        num = build_numbering(mesh)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            gs = GatherScatter(mesh, num, bc=bc, ranks=ranks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        index = [a for a in vars(gs).values()
                 if isinstance(a, np.ndarray) and a.dtype.kind in "iu"
                 and a.size == num.n_local
                 and not np.shares_memory(a, num.local_to_global)]
        assert len(index) == int(bc == "dirichlet" or ranks > 1)
        # Kept: the weights and the slot index, 2 words per local.
        assert peak - base < 4 * num.local_to_global.nbytes

    def test_out_shape_checked(self):
        gs = build_gather_scatter(build_box_mesh(1, 1))
        with pytest.raises(ValueError):
            gs.gather_scatter(np.zeros(gs.n_local), out=np.zeros(3))

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

    def test_single_partition_sums_left_to_right(self, rng):
        mesh = build_box_mesh(3, 3)
        gs = build_gather_scatter(mesh)
        l2g = gs.numbering.local_to_global
        u = rng.standard_normal(gs.n_local)
        ref = np.bincount(l2g, weights=u, minlength=gs.numbering.n_global)
        assert np.array_equal(gs.gather_scatter(u), ref[l2g])

    @pytest.mark.parametrize("ranks", [2, 3, 8])
    def test_partials_merge_in_ascending_partition_order(self, ranks, rng):
        mesh = build_box_mesh(3, 3)
        gs = build_gather_scatter(mesh, ranks=ranks)
        l2g, n_global = gs.numbering.local_to_global, gs.numbering.n_global
        part = local_partition(mesh, gs)
        u = rng.standard_normal(gs.n_local)
        total = np.zeros(n_global)
        for r in range(ranks):
            mine = part == r
            total = total + np.bincount(l2g[mine], weights=u[mine],
                                        minlength=n_global)
        assert np.array_equal(gs.gather_scatter(u), total[l2g])

    @pytest.mark.parametrize("ranks", [1, 2, 3, 8])
    @pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
    @pytest.mark.parametrize("comps", [1, 3])
    def test_owner_slots_match_two_stage_sum(self, ranks, bc, comps, rng):
        # The reference is the plan as it was before owner slots: every
        # partition condenses into its own slot per global id, and a
        # second bincount adds a global id's slots in partition order.
        self.check_two_stage_sum(build_box_mesh(4, 2), 1, ranks, bc, comps,
                                 rng)

    @pytest.mark.parametrize("ranks", [3, 8])
    @pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
    @pytest.mark.parametrize("comps", [1, 3])
    def test_partitions_inside_one_block_match_two_stage_sum(
            self, ranks, bc, comps, rng):
        # All 16 elements in one block: every partition boundary falls
        # inside it, so each partition is a strided column range.
        self.check_two_stage_sum(build_box_mesh(4, 2), 16, ranks, bc, comps,
                                 rng)

    @staticmethod
    def check_two_stage_sum(mesh, block, ranks, bc, comps, rng):
        gs = build_gather_scatter(mesh, bc=bc, ranks=ranks, block=block)
        assert gs.block == block
        l2g, n_global = gs.numbering.local_to_global, gs.numbering.n_global
        part = local_partition(mesh, gs)
        key, slot = np.unique(part * n_global + l2g, return_inverse=True)
        read_back = np.where(gs.mask == 0.0, n_global, l2g)
        copies = np.zeros(n_global, dtype=int)
        for p in range(ranks):
            copies[np.unique(l2g[part == p])] += 1
        # From 3 ranks on some id has copies in 3 or more partitions, so
        # the order of its adds shows.
        assert copies.max() == ranks
        pairs = sum(1 for a in range(ranks) for b in range(a + 1, ranks)
                    if np.intersect1d(l2g[part == a], l2g[part == b]).size)

        shape = (gs.n_local,) if comps == 1 else (comps, gs.n_local)
        u = rng.standard_normal(shape)
        u[..., ::7] = -0.0
        ref = np.empty(shape)
        for r, c in zip(ref.reshape(-1, gs.n_local),
                        u.reshape(-1, gs.n_local)):
            partials = np.bincount(slot, weights=c, minlength=key.size)
            sums = np.bincount(key % n_global, weights=partials,
                               minlength=n_global + 1)
            r[:] = sums[read_back]
        got = gs.gather_scatter(u)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        assert gs.counters.messages == pairs

    @pytest.mark.parametrize("ranks", [1, 3])
    def test_deterministic_flag_changes_nothing(self, ranks, rng):
        mesh = build_box_mesh(3, 3)
        u = rng.standard_normal(mesh.E * mesh.p1 ** 3)
        a = build_gather_scatter(mesh, ranks=ranks).gather_scatter(u)
        b = build_gather_scatter(mesh, ranks=ranks,
                                 deterministic=False).gather_scatter(u)
        assert a.tobytes() == b.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_property_against_q_matrix(self, data):
        k = data.draw(st.integers(0, 5), label="k")
        p = data.draw(st.integers(1, 4), label="p")
        mesh = build_box_mesh(k, p)
        ranks = data.draw(st.integers(1, min(mesh.E, 16)), label="ranks")
        bc = data.draw(st.sampled_from(["neumann", "dirichlet"]), label="bc")
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        # A power of two, which divides E or is capped at it.
        block = 2 ** data.draw(st.integers(0, k + 1), label="log2 block")
        num = build_numbering(mesh, block)
        gs = build_gather_scatter(mesh, num, bc=bc, ranks=ranks)
        l2g = num.local_to_global
        u = np.random.default_rng(seed).standard_normal(num.n_local)
        got = gs.gather_scatter(u)

        q = build_q_matrix(num)
        ref = gs.mask * (q @ (q.T @ u))
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(q.T @ u))
        one_copy = np.empty(num.n_global)
        one_copy[l2g] = got
        assert np.array_equal(got, one_copy[l2g])

        part = local_partition(mesh, gs)
        held = [set(l2g[part == r].tolist()) for r in range(ranks)]
        pairs = sum(1 for a in range(ranks) for b in range(a + 1, ranks)
                    if held[a] & held[b])
        assert gs.counters.messages == pairs

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

    @pytest.mark.parametrize("ranks", [1, 3])
    @pytest.mark.parametrize("comps", [1, 3])
    def test_dirichlet_sum_is_masked_neumann_sum(self, ranks, comps, rng):
        mesh = build_box_mesh(3, 3)
        dirichlet = build_gather_scatter(mesh, bc="dirichlet", ranks=ranks)
        neumann = build_gather_scatter(mesh, bc="neumann", ranks=ranks)
        shape = (mesh.E * 64,) if comps == 1 else (comps, mesh.E * 64)
        u = rng.standard_normal(shape)
        got = dirichlet.gather_scatter(u)
        ref = dirichlet.apply_mask(neumann.gather_scatter(u))
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
        assert np.count_nonzero(got) < got.size

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

    @pytest.mark.parametrize("ranks", [1, 3, 8])
    @pytest.mark.parametrize("comps", [1, 3])
    def test_equals_per_partition_products(self, ranks, comps, rng):
        # Element-major: each component's weighted products are summed in
        # local order by one read-only einsum, so the partitions only split
        # that sum, to rounding.
        gs = build_gather_scatter(build_box_mesh(4, 7), ranks=ranks)
        shape = (gs.n_local,) if comps == 1 else (comps, gs.n_local)
        u, v = rng.standard_normal(shape), rng.standard_normal(shape)
        slab = 8 ** 3
        ref = 0.0
        for uc, vc in zip(u.reshape(comps, -1), v.reshape(comps, -1)):
            ref += np.einsum("i,i,i->", uc, vc, gs.weight)
        assert gs.local_dot(u, v) == float(ref)
        per_part = 0.0
        for (e0, e1) in gs.partitions:
            lo, hi = e0 * slab, e1 * slab
            for uc, vc in zip(u.reshape(comps, -1), v.reshape(comps, -1)):
                per_part += float(np.sum(uc[lo:hi] * vc[lo:hi]
                                         * gs.weight[lo:hi]))
        assert gs.local_dot(u, v) == pytest.approx(per_part, rel=1e-12)

    @pytest.mark.parametrize("ranks", [3, 8])
    @pytest.mark.parametrize("comps", [1, 3])
    def test_partitions_inside_one_block(self, ranks, comps, rng):
        # One block of 16 elements: partitions split the columns of the
        # (p1^3, 16) slab, yet the dot is the one-rank plan's, bit for bit,
        # and still the assembled global dot.
        mesh = build_box_mesh(4, 7)
        gs = build_gather_scatter(mesh, ranks=ranks, block=16)
        one = build_gather_scatter(mesh, gs.numbering)
        shape = (gs.n_local,) if comps == 1 else (comps, gs.n_local)
        u, v = rng.standard_normal(shape), rng.standard_normal(shape)
        ref = 0.0
        for uc, vc in zip(u.reshape(comps, -1), v.reshape(comps, -1)):
            ref += np.einsum("i,i,i->", uc, vc, gs.weight)
        assert gs.local_dot(u, v) == one.local_dot(u, v) == float(ref)
        ug = rng.standard_normal(gs.numbering.n_global)
        ul = ug[gs.numbering.local_to_global]
        assert gs.local_dot(ul, ul) == pytest.approx(float(ug @ ug),
                                                     rel=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_property_one_sum_per_component(self, data):
        # The dot is each component's weighted products summed in local
        # order, the component sums added in order: the same bits at every
        # rank count.
        k = data.draw(st.integers(0, 5), label="k")
        p = data.draw(st.integers(1, 4), label="p")
        mesh = build_box_mesh(k, p)
        # A power of two, which divides E or is capped at it.
        block = 2 ** data.draw(st.integers(0, k + 1), label="log2 block")
        ranks = data.draw(st.integers(1, min(mesh.E, 16)), label="ranks")
        comps = data.draw(st.sampled_from([1, 3]), label="comps")
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        num = build_numbering(mesh, block)
        gs = build_gather_scatter(mesh, num, ranks=ranks)
        one = build_gather_scatter(mesh, num)
        shape = (gs.n_local,) if comps == 1 else (comps, gs.n_local)
        rng = np.random.default_rng(seed)
        u, v = rng.standard_normal(shape), rng.standard_normal(shape)
        ref = 0.0
        for uc, vc in zip(u.reshape(comps, -1), v.reshape(comps, -1)):
            ref += np.einsum("i,i,i->", uc, vc, gs.weight)
        got = gs.local_dot(u, v)
        assert got == one.local_dot(u, v)
        assert got == float(ref)

    @pytest.mark.parametrize("comps", [1, 3])
    def test_negative_zero_sum_reads_positive_zero(self, comps):
        # Every weighted product is -0.0, yet the dot reads +0.0: ==
        # cannot tell the two zeros apart.
        gs = build_gather_scatter(build_box_mesh(2, 3))
        shape = (gs.n_local,) if comps == 1 else (comps, gs.n_local)
        u, v = -np.zeros(shape), np.ones(shape)
        assert np.signbit(u * v * gs.weight).all()
        got = gs.local_dot(u, v)
        assert got == 0.0 and not np.signbit(got)

    @pytest.fixture(scope="class")
    def long_gs(self):
        # 2^9 elements of order 7: 2^18 locals.
        return build_gather_scatter(build_box_mesh(9, 7))

    def test_operand_offsets_keep_the_bits(self, long_gs, rng):
        # The same values at 8 different 8-byte offsets, u and v shifted
        # opposite ways, sum to the same bits: a residual history does not
        # depend on where the solve's vectors were allocated.
        gs = long_gs
        n = gs.n_local
        u, v = rng.standard_normal(n), rng.standard_normal(n)
        ref = gs.local_dot(u, v)
        bu, bv = np.empty(n + 7), np.empty(n + 7)
        for off in range(8):
            bu[off:off + n] = u
            bv[7 - off:n + 7 - off] = v
            assert gs.local_dot(bu[off:off + n], bv[7 - off:n + 7 - off]) \
                == ref

    @pytest.mark.parametrize("comps", [2, 3])
    def test_stack_is_its_rows_in_order(self, comps, rng):
        gs = build_gather_scatter(build_box_mesh(4, 7), ranks=3)
        u = rng.standard_normal((comps, gs.n_local))
        v = rng.standard_normal((comps, gs.n_local))
        total = 0.0
        for uc, vc in zip(u, v):
            total += gs.local_dot(uc, vc)
        assert gs.local_dot(u, v) == total

    def test_writes_no_vector(self, long_gs, rng):
        # A read-only pass: a 2^18-long dot (2 MiB operands) allocates
        # less than 64 KiB.
        u, v = rng.standard_normal((2, long_gs.n_local))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            long_gs.local_dot(u, v)
            rise = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert rise < 64 * 1024

    def test_shape_mismatch_rejected(self):
        mesh = build_box_mesh(1, 2)
        gs = build_gather_scatter(mesh)
        with pytest.raises(ValueError):
            gs.local_dot(np.zeros(gs.n_local), np.zeros(gs.n_local + 1))
