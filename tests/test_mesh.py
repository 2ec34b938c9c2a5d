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
from sembench.mesh import (FACTORS_PER_POINT, BoxMesh, GeomFactors,
                           MeshError, block_view, box_dims, from_blocks,
                           to_blocks, build_box_mesh,
                           compute_geometric_factors)

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
    @given(E=st.integers(1, 40), block=st.integers(1, 48),
           comps=st.sampled_from([(), (1,), (3,)]), n=st.integers(2, 4))
    def test_round_trip(self, E, block, comps, n):
        # Random E and block: a block larger than E, blocks that divide E,
        # and a ragged last block all occur.
        a = np.random.default_rng(E * 100 + block).standard_normal(
            comps + (E, n, n, n))
        u = to_blocks(a, block)
        assert u.shape == comps + (E * n ** 3,) and u.flags.c_contiguous
        assert np.array_equal(from_blocks(u, block, n), a)
        # Each block is one (n, n, n, B) slab, element index innermost.
        for b0 in range(0, E, block):
            b1 = min(b0 + block, E)
            slab = u[..., b0 * n ** 3:b1 * n ** 3].reshape(
                comps + (n, n, n, b1 - b0))
            assert np.array_equal(np.moveaxis(slab, -1, -4), a[..., b0:b1,
                                                              :, :, :])
            e = (b0 + b1) // 2
            assert np.array_equal(block_view(u, block, e, e + 1,
                                             (n, n, n))[..., 0],
                                  a[..., e, :, :, :])

    def test_block_of_one_is_element_major(self, rng):
        a = rng.standard_normal((3, 5, 2, 2, 2))
        assert np.array_equal(to_blocks(a, 1), a.reshape(3, -1))

    def test_view_must_stay_inside_one_block(self):
        with pytest.raises(ValueError, match="inside one block"):
            block_view(np.zeros(10 * 8), 4, 3, 5, (2, 2, 2))


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
        assert geom.slab(geom.G, 0, 2).shape == (6, 5, 5, 5, 2)

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
        with pytest.raises(ValueError):
            geom.slab(geom.G, 0, 1)[0, 0, 0, 0, 0] = 1.0

    def test_g_symmetry_slots_consistent(self, stack):
        # G is built from a symmetric product, so slot values match the
        # transposed index pair by construction; spot-check positivity of
        # the diagonal slots on a deformed mesh.
        s = stack(3, "GL", 3)
        g = element_major(s.geom, s.geom.G)
        for slot in (0, 3, 5):
            assert np.all(g[:, slot] > 0)


class TestBatchedGeomFactors:
    def test_batch_size_does_not_change_a_bit(self, monkeypatch):
        basis = make_basis(3, "GL")               # q = 5
        mesh = build_box_mesh(6, 3)               # 64 elements, one batch
        ref = compute_geometric_factors(mesh, basis)
        for per_batch in (15, 1):                 # 5 and 64 batches
            monkeypatch.setattr(tensors, "WORKING_SET_WORDS",
                                per_batch * 5 ** 3)
            assert tensors.batch_size(5) == per_batch
            got = compute_geometric_factors(mesh, basis)
            for name in ("G", "mass_diag", "jac_det"):
                assert np.array_equal(
                    element_major(got, getattr(got, name)),
                    element_major(ref, getattr(ref, name)))

    def test_peak_memory_is_output_plus_one_batch(self, stack):
        s = stack(7, "GL", 9)                     # 512 elements, 12 batches
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
        step = tensors.batch_size(basis.q)
        assert step < geom.E
        for b0 in range(0, geom.E, step):
            g = geom.slab(geom.G, b0, min(b0 + step, geom.E))
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
