"""Box meshes, deformations, and geometric factors."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sembench import tensors
from sembench.bakeoff import RunConfig
from sembench.basis import make_basis
from sembench.mesh import (FACTORS_PER_POINT, G_INDEX, GEOM_FIELDS, BoxMesh,
                           GeomFactors, MeshError, box_dims, from_blocks,
                           storage_block, to_blocks, build_box_mesh,
                           compute_geometric_factors)
from sembench.tensors import contract_dir

from conftest import element_major


class TestBoxDims:
    @pytest.mark.parametrize("k,dims", [
        (0, (1, 1, 1)),
        (1, (2, 1, 1)),
        (2, (2, 1, 2)),
        (3, (2, 2, 2)),
        (5, (4, 2, 4)),
        (6, (4, 4, 4)),
        (14, (32, 16, 32)),
    ])
    def test_frozen_splits(self, k, dims):
        assert box_dims(k) == dims

    @pytest.mark.parametrize("k", range(0, 22))
    def test_product_and_aspect(self, k):
        dims = box_dims(k)
        assert dims[0] * dims[1] * dims[2] == 2 ** k
        assert max(dims) <= 2 * min(dims)


class TestBuildBoxMesh:
    def test_shapes_and_counts(self):
        mesh = build_box_mesh(3, 4)
        assert mesh.E == 8
        assert mesh.p1 == 5
        assert mesh.elem_coords.shape == (8, 3, 5, 5, 5)
        assert RunConfig(bp=1, p=4, k=3).n == 4 ** 3 * mesh.E
        assert mesh.n_true == 9 ** 3

    def test_n_true_anisotropic(self):
        mesh = build_box_mesh(2, 3)  # dims (2, 1, 2)
        assert mesh.n_true == 7 * 4 * 7

    def test_boundary_stays_on_box(self):
        # The sine displacement vanishes on all six faces.
        mesh = build_box_mesh(3, 3, deformation="sine", amplitude=0.2)
        c = mesh.elem_coords
        lo = np.minimum.reduce([c[:, d].min() for d in range(3)])
        hi = np.maximum.reduce([c[:, d].max() for d in range(3)])
        assert lo >= 0.0 and hi <= 1.0
        # Element 0's x=0 face: x-coordinates all exactly 0.
        assert np.array_equal(c[0, 0, :, :, 0], np.zeros((4, 4)))

    def test_interior_is_deformed(self):
        ref = build_box_mesh(3, 3, deformation="none")
        bent = build_box_mesh(3, 3, deformation="sine")
        assert np.max(np.abs(ref.elem_coords - bent.elem_coords)) > 1e-3

    def test_shared_faces_bitwise_identical(self):
        mesh = build_box_mesh(3, 4)
        ex = mesh.dims[0]
        # Elements 0 and 1 are x-neighbors: right face of 0 == left face of 1.
        assert ex >= 2
        right = mesh.elem_coords[0, :, :, :, -1]
        left = mesh.elem_coords[1, :, :, :, 0]
        assert np.array_equal(right, left)
        # y-neighbors share an xz face.
        ey_stride = ex
        top = mesh.elem_coords[0, :, :, -1, :]
        bottom = mesh.elem_coords[ey_stride, :, :, 0, :]
        assert np.array_equal(top, bottom)

    def test_affine_mesh_nodes_are_scaled_gll(self):
        mesh = build_box_mesh(0, 5, deformation="none")
        nodes = mesh.nodes_1d
        expect = 0.5 * (nodes + 1.0)
        assert np.allclose(mesh.elem_coords[0, 0, 0, 0, :], expect,
                           atol=1e-15, rtol=0)

    def test_argument_validation(self):
        with pytest.raises(MeshError):
            build_box_mesh(-1, 3)
        with pytest.raises(MeshError):
            build_box_mesh(22, 3)
        with pytest.raises(MeshError):
            build_box_mesh(3, 0)
        with pytest.raises(MeshError):
            build_box_mesh(3, 16)
        with pytest.raises(MeshError):
            build_box_mesh(3, 3, deformation="twist")

    def test_coords_frozen(self):
        mesh = build_box_mesh(1, 2)
        with pytest.raises(ValueError):
            mesh.elem_coords[0, 0, 0, 0, 0] = 9.9


class TestLocalLayout:
    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(0, 5), b=st.integers(0, 6),
           comps=st.sampled_from([(), (1,), (3,)]), n=st.integers(2, 4))
    def test_round_trip(self, k, b, comps, n):
        # E = 2^k and a block of 2^b: blocks that divide E and blocks
        # larger than E, which are capped at E, both occur.
        E, block = 2 ** k, min(2 ** b, 2 ** k)
        a = np.random.default_rng(E * 100 + block).standard_normal(
            comps + (E, n, n, n))
        u = to_blocks(a, 2 ** b)
        assert u.shape == comps + (E * n ** 3,) and u.flags.c_contiguous
        assert not np.shares_memory(u, a)
        assert np.array_equal(from_blocks(u, 2 ** b, n), a)
        # Block i is [i] of the (E/B, n, n, n, B) view, element innermost.
        blocks = u.reshape(comps + (E // block, n, n, n, block))
        for i in range(E // block):
            assert np.array_equal(
                np.moveaxis(blocks[..., i, :, :, :, :], -1, -4),
                a[..., i * block:(i + 1) * block, :, :, :])

    @pytest.mark.parametrize("E,block", [(8, 3), (16, 6), (32, 12), (8, 0)])
    def test_block_that_does_not_divide_e_is_rejected(self, E, block):
        a = np.zeros((E, 2, 2, 2))
        for convert in (lambda: to_blocks(a, block),
                        lambda: from_blocks(a.reshape(-1), block, 2)):
            with pytest.raises(ValueError, match=f"block of {block} .*"
                                                 f"E = {E}"):
                convert()

    def test_block_of_one_is_element_major(self, rng):
        a = rng.standard_normal((3, 5, 2, 2, 2))
        assert np.array_equal(to_blocks(a, 1), a.reshape(3, -1))


class TestGeomFactors:
    def test_affine_factors_are_analytic(self):
        # Unit cube, one element, no deformation: dx/dr = h/2 * I with
        # h = 1, so G = diag(w3) * (2, 2, 2) scaling and J = 1/8.
        p, q = 3, 5
        basis = make_basis(p, "GL")
        mesh = build_box_mesh(0, p, deformation="none")
        geom = compute_geometric_factors(mesh, basis)
        w = basis.quad.weights
        w3 = w[:, None, None] * w[None, :, None] * w[None, None, :]
        det = 0.125
        g = element_major(geom, geom.G)
        assert np.allclose(geom.jac_det, det, atol=1e-15, rtol=0)
        assert np.allclose(element_major(geom, geom.mass_diag)[0], w3 * det,
                           atol=1e-16, rtol=0)
        diag_val = 4.0 * w3 * det
        for slot in (0, 3, 5):
            assert np.allclose(g[0, slot], diag_val, atol=1e-15, rtol=0)
        for slot in (1, 2, 4):
            assert np.max(np.abs(g[0, slot])) <= 1e-15

    def test_affine_volume_is_exact(self):
        basis = make_basis(4, "GL")
        mesh = build_box_mesh(3, 4, deformation="none")
        geom = compute_geometric_factors(mesh, basis)
        assert geom.mass_diag.sum() == pytest.approx(1.0, abs=1e-14)

    def test_deformed_volume_is_preserved(self):
        # The sine map is a diffeomorphism of the box, so the volume
        # integral of 1 is still exactly the box volume.
        basis = make_basis(4, "GL")
        mesh = build_box_mesh(3, 4, deformation="sine")
        geom = compute_geometric_factors(mesh, basis)
        assert geom.mass_diag.sum() == pytest.approx(1.0, abs=4e-14)

    def test_words_per_element(self):
        basis = make_basis(3, "GL")
        mesh = build_box_mesh(1, 3)
        geom = compute_geometric_factors(mesh, basis)
        stored = (geom.G, geom.mass_diag, geom.jac_det)
        assert FACTORS_PER_POINT == 8
        assert sum(a.size for a in stored) == 8 * 5 ** 3 * mesh.E
        assert geom.G.shape == (1, 6, 5, 5, 5, 2)
        assert geom.mass_diag.shape == geom.jac_det.shape == (1, 5, 5, 5, 2)
        assert (geom.q, geom.block, geom.E) == (5, 2, 2)

    def test_inverted_element_rejected(self):
        basis = make_basis(2, "GL")
        mesh = build_box_mesh(0, 2, deformation="sine", amplitude=2.0)
        with pytest.raises(MeshError, match="inverted element"):
            compute_geometric_factors(mesh, basis)

    def test_order_mismatch_rejected(self):
        basis = make_basis(3, "GL")
        mesh = build_box_mesh(1, 4)
        with pytest.raises(MeshError):
            compute_geometric_factors(mesh, basis)

    def test_factors_frozen(self):
        basis = make_basis(2, "GL")
        mesh = build_box_mesh(1, 2)
        geom = compute_geometric_factors(mesh, basis)
        for a in (geom.G, geom.mass_diag, geom.jac_det):
            with pytest.raises(ValueError):
                a[0, 0, 0, 0, 0] = 1.0

    def test_g_symmetry_slots_consistent(self, stack):
        # G is built from a symmetric product, so slot values match the
        # transposed index pair by construction; spot-check positivity of
        # the diagonal slots on a deformed mesh.
        s = stack(3, "GL", 3)
        g = element_major(s.geom, s.geom.G)
        for slot in (0, 3, 5):
            assert np.all(g[:, slot] > 0)


class TestBatchedGeomFactors:
    @pytest.mark.parametrize("block", [1, 4, 32])
    def test_element_is_that_element_alone(self, block, stack):
        s = stack(7, "GL", 6)                     # 64 elements, q = 9
        geom = compute_geometric_factors(s.mesh, s.basis, block)
        for name in ("G", "mass_diag", "jac_det"):
            ref = element_major(geom, getattr(geom, name))
            for e in (0, 3, 31, 32, 45, 63):
                one = geom.element(e)
                assert one.E == 1 and one.block == 1
                got = element_major(one, getattr(one, name))
                assert np.array_equal(got[0], ref[e])

    @pytest.mark.parametrize("block", [1, 4, 32])
    def test_factors_start_on_a_line(self, block, stack):
        s = stack(7, "GL", 6)
        geom = compute_geometric_factors(s.mesh, s.basis, block)
        for a in (geom.G, geom.mass_diag, geom.jac_det):
            assert a.ctypes.data % tensors.LINE_BYTES == 0

    @pytest.mark.parametrize("q", range(1, 18))
    def test_batch_size_is_a_power_of_two_within_the_working_set(self, q):
        # So it divides E = 2^k or covers it, and one batch field of q^3
        # points per element stays within WORKING_SET_WORDS.
        b = tensors.batch_size(q)
        assert b & (b - 1) == 0
        assert b * q ** 3 <= tensors.WORKING_SET_WORDS
        assert 2 * b * q ** 3 > tensors.WORKING_SET_WORDS

    def test_block_is_capped_at_e(self):
        basis = make_basis(3, "GL")               # batch_size(5) = 256
        geom = compute_geometric_factors(build_box_mesh(5, 3), basis)
        assert tensors.batch_size(5) == 256
        assert geom.block == geom.E == 32
        assert geom.G.shape == (1, 6, 5, 5, 5, 32)

    def test_block_that_does_not_divide_e_is_rejected(self):
        basis = make_basis(3, "GL")
        mesh = build_box_mesh(5, 3)               # 32 elements
        with pytest.raises(MeshError, match="block of 12 .*E = 32"):
            compute_geometric_factors(mesh, basis, 12)

    def test_batch_size_does_not_change_a_bit(self, monkeypatch):
        basis = make_basis(3, "GL")               # q = 5
        mesh = build_box_mesh(6, 3)               # 64 elements, one batch
        ref = compute_geometric_factors(mesh, basis)
        for per_batch in (16, 1):                 # 4 and 64 batches
            monkeypatch.setattr(tensors, "WORKING_SET_WORDS",
                                per_batch * 5 ** 3)
            assert tensors.batch_size(5) == per_batch
            got = compute_geometric_factors(mesh, basis)
            for name in ("G", "mass_diag", "jac_det"):
                assert np.array_equal(
                    element_major(got, getattr(got, name)),
                    element_major(ref, getattr(ref, name)))

    def test_peak_memory_is_output_plus_one_batch(self, stack):
        s = stack(7, "GL", 9)                     # 512 elements, 16 batches
        assert s.mesh.E >= 8 * tensors.batch_size(s.basis.q)
        tracemalloc.start()
        try:
            geom = compute_geometric_factors(s.mesh, s.basis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out = geom.G.nbytes + geom.mass_diag.nbytes + geom.jac_det.nbytes
        assert peak <= 1.5 * out

    @pytest.mark.parametrize("kind", ["GL", "GLL"])
    def test_every_batch_slot_is_contiguous(self, kind, monkeypatch):
        # G is stored in element blocks, slot-major within a block, so the
        # pointwise stage of a batch reads each metric slot as one
        # contiguous block.
        monkeypatch.setattr(tensors, "WORKING_SET_WORDS", 3 * 5 ** 3)
        basis = make_basis(3, kind)
        geom = compute_geometric_factors(build_box_mesh(4, 3), basis)
        assert 1 < geom.block == tensors.batch_size(basis.q) < geom.E
        for g in geom.G:
            for slot in range(6):
                assert g[slot].flags.c_contiguous

    def test_inverted_element_in_later_batch_names_global_index(
            self, monkeypatch):
        basis = make_basis(2, "GL")               # q = 4
        mesh = build_box_mesh(5, 2)               # 32 elements
        coords = mesh.elem_coords.copy()
        coords[27] = coords[27, :, :, :, ::-1]    # mirrored in x: det < 0
        mesh = dataclasses.replace(mesh, elem_coords=coords)
        monkeypatch.setattr(tensors, "WORKING_SET_WORDS", 4 * 4 ** 3)
        with pytest.raises(MeshError, match="inverted element 27 "):
            compute_geometric_factors(mesh, basis)


def direct_geometric_factors(mesh, basis, block):
    """The factors by the direct formulation, as (G, mass_diag, jac_det).

    Per block: nine separate three-contraction chains for the Jacobian,
    the determinant expanded along its first row, the adjugate entries
    written out, and every intermediate a new array.
    """
    q, E = basis.q, mesh.E
    w = basis.quad.weights
    w3 = (w[:, None, None] * w[None, :, None] * w[None, None, :])[..., None]
    block = storage_block(block, E)
    G = np.empty((E // block, 6) + (q,) * 3 + (block,))
    mass_diag = np.empty((E // block,) + (q,) * 3 + (block,))
    jac_det = np.empty_like(mass_diag)
    for i in range(E // block):
        coords = np.ascontiguousarray(
            mesh.elem_coords[i * block:(i + 1) * block]
            .transpose(1, 2, 3, 4, 0))
        dxdr = [[None] * 3 for _ in range(3)]
        for m in range(3):
            ops = [basis.J_hat] * 3
            ops[m] = basis.D_hat
            for l in range(3):
                t = contract_dir(ops[0], coords[l], 0)
                t = contract_dir(ops[1], t, 1)
                dxdr[m][l] = contract_dir(ops[2], t, 2)
        (xr, yr, zr), (xs, ys, zs), (xt, yt, zt) = dxdr
        det = (xr * (ys * zt - yt * zs)
               - xs * (yr * zt - yt * zr)
               + xt * (yr * zs - ys * zr))
        inv_det = 1.0 / det
        drdx = [
            [(ys * zt - yt * zs) * inv_det, (xt * zs - xs * zt) * inv_det,
             (xs * yt - xt * ys) * inv_det],
            [(yt * zr - yr * zt) * inv_det, (xr * zt - xt * zr) * inv_det,
             (xt * yr - xr * yt) * inv_det],
            [(yr * zs - ys * zr) * inv_det, (xs * zr - xr * zs) * inv_det,
             (xr * ys - xs * yr) * inv_det],
        ]
        wj = w3 * det
        mass_diag[i], jac_det[i] = wj, det
        for (m, mp), slot in G_INDEX.items():
            acc = drdx[m][0] * drdx[mp][0]
            acc += drdx[m][1] * drdx[mp][1]
            acc += drdx[m][2] * drdx[mp][2]
            G[i, slot] = acc * wj
    return G, mass_diag, jac_det


class TestArenaGeomFactors:
    """The arena build against the direct formulation, and its footprint."""

    @pytest.mark.parametrize("kind", ["GL", "GLL"])
    @pytest.mark.parametrize("p", range(1, 9))
    def test_bytes_equal_the_direct_formulation(self, kind, p):
        basis = make_basis(p, kind)
        default = tensors.batch_size(basis.q)
        # The default block on a mesh of 4 blocks (the arena reused from
        # block to block), block 4, and block 1 (the one-element x path).
        cases = [((4 * default).bit_length() - 1, None), (3, 4), (3, 1)]
        for k, block in cases:
            mesh = build_box_mesh(k, p)
            geom = compute_geometric_factors(mesh, basis, block)
            if block is None:
                assert geom.E // geom.block == 4
            want = direct_geometric_factors(mesh, basis, block or default)
            got = (geom.G, geom.mass_diag, geom.jac_det)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()

    @staticmethod
    def extra_peak(mesh, basis, block):
        """Peak traced bytes of one build beyond its three outputs."""
        tracemalloc.start()
        try:
            geom = compute_geometric_factors(mesh, basis, block)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - (geom.G.nbytes + geom.mass_diag.nbytes
                       + geom.jac_det.nbytes)

    @pytest.mark.parametrize("kind", ["GL", "GLL"])
    def test_allocation_does_not_grow_with_the_blocks(self, kind):
        basis = make_basis(3, kind)
        field = 8 * basis.q ** 3 * 64
        one, sixteen = (self.extra_peak(build_box_mesh(k, 3), basis, 64)
                        for k in (6, 10))
        # Nothing a block allocates outlives it or piles up: the same
        # peak on 1 block as on 16, within a small fraction of a field.
        assert abs(sixteen - one) < field // 16
        # The arena and less than two fields of numpy's buffers besides.
        assert GEOM_FIELDS * field <= one < (GEOM_FIELDS + 2) * field
