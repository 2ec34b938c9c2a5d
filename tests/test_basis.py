"""Lagrange operator matrices and the even-odd factorization."""

import numpy as np
import pytest

import sembench as sb
from sembench.basis import (Basis1D, BasisError, EvenOddFactor,
                            even_odd_split, lagrange_deriv_matrix,
                            lagrange_interp_matrix, make_basis)
from sembench.quadrature import gauss_legendre, gauss_lobatto_legendre
from sembench.tensors import OpCounters, eo_contract_dir


def random_poly(rng, degree):
    return np.polynomial.Polynomial(rng.standard_normal(degree + 1))


class TestInterpMatrix:
    @pytest.mark.parametrize("p", [1, 3, 6, 10])
    def test_reproduces_polynomials_exactly(self, p, rng):
        nodes = gauss_lobatto_legendre(p + 1).points
        targets = gauss_legendre(p + 2).points
        j = lagrange_interp_matrix(nodes, targets)
        for _ in range(5):
            poly = random_poly(rng, p)
            assert np.allclose(j @ poly(nodes), poly(targets),
                               atol=1e-12, rtol=0)

    def test_rows_sum_to_one(self):
        nodes = gauss_lobatto_legendre(7).points
        j = lagrange_interp_matrix(nodes, np.linspace(-1, 1, 11))
        assert np.allclose(j.sum(axis=1), 1.0, atol=1e-14, rtol=0)

    def test_node_hit_gives_unit_row(self):
        nodes = gauss_lobatto_legendre(5).points
        j = lagrange_interp_matrix(nodes, nodes[2:3])
        expect = np.zeros(5)
        expect[2] = 1.0
        assert np.array_equal(j[0], expect)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(BasisError):
            lagrange_interp_matrix(np.array([0.0, 0.0, 1.0]),
                                   np.array([0.5]))


class TestDerivMatrix:
    @pytest.mark.parametrize("p", [1, 3, 6, 10])
    def test_differentiates_polynomials_exactly(self, p, rng):
        nodes = gauss_lobatto_legendre(p + 1).points
        targets = gauss_legendre(p + 2).points
        d = lagrange_deriv_matrix(nodes, targets)
        for _ in range(5):
            poly = random_poly(rng, p)
            assert np.allclose(d @ poly(nodes), poly.deriv()(targets),
                               atol=1e-11, rtol=0)

    def test_rows_sum_to_zero(self):
        nodes = gauss_lobatto_legendre(6).points
        d = lagrange_deriv_matrix(nodes, np.linspace(-1, 1, 9))
        assert np.max(np.abs(d.sum(axis=1))) <= 1e-12

    def test_node_hit_matches_p2_differentiation_matrix(self):
        # Nodes {-1, 0, 1}: the classical 3-point differentiation matrix.
        nodes = np.array([-1.0, 0.0, 1.0])
        d = lagrange_deriv_matrix(nodes, nodes)
        expect = np.array([[-1.5, 2.0, -0.5],
                           [-0.5, 0.0, 0.5],
                           [0.5, -2.0, 1.5]])
        assert np.allclose(d, expect, atol=1e-14, rtol=0)


class TestEvenOdd:
    @pytest.mark.parametrize("p", range(1, 11))
    @pytest.mark.parametrize("kind", ["GL", "GLL"])
    def test_reconstruction_both_operators(self, p, kind):
        basis = make_basis(p, kind)
        for matrix, sign in ((basis.J_hat, +1), (basis.D_hat, -1)):
            factor = even_odd_split(matrix, sign)
            assert np.max(np.abs(factor.to_dense() - matrix)) <= 1e-12

    @pytest.mark.parametrize("p", range(1, 11))
    @pytest.mark.parametrize("kind", ["GL", "GLL"])
    def test_apply_equals_dense_matvec(self, p, kind, rng):
        basis = make_basis(p, kind)
        for matrix, factor in ((basis.J_hat, basis.J_even_odd),
                               (basis.D_hat, basis.D_even_odd)):
            for _ in range(5):
                u = rng.standard_normal(p + 1)
                ref = matrix @ u
                got = eo_contract_dir(factor, u, 0)
                assert np.linalg.norm(got - ref) <= 1e-12 * (
                    np.linalg.norm(ref) + 1.0)

    def test_storage_shapes_and_distinct_entries_5x4(self):
        # p = 3 with q = 5: ceil/floor halves are 3x2 and 2x2, ten entries.
        basis = make_basis(3, "GL")
        factor = basis.J_even_odd
        assert factor.source_shape == (5, 4)
        assert factor.S_plus.shape == (3, 2)
        assert factor.S_minus.shape == (2, 2)
        assert factor.distinct_entries == 10

    @pytest.mark.parametrize("p,q", [(2, 3), (2, 4), (3, 4), (3, 5), (4, 5),
                                     (4, 6), (5, 6), (7, 8), (7, 9)])
    def test_fma_count_formula(self, p, q):
        kind = "GLL" if q == p + 1 else "GL"
        basis = make_basis(p, kind, q=q)
        p1 = p + 1
        expect = (-(-q // 2)) * (-(-p1 // 2)) + (q // 2) * (p1 // 2)
        for factor in (basis.J_even_odd, basis.D_even_odd):
            assert factor.fma_count == expect
            ct = OpCounters()
            eo_contract_dir(factor, np.zeros(p1), 0, ct)
            assert ct.fma == expect
        if q % 2 == 0:
            # The headline halving: (p+1) q / 2 FMAs for even q.
            assert expect == (p + 1) * q // 2

    def test_interp_matrix_has_plus_symmetry(self):
        m = make_basis(4, "GL").J_hat
        assert np.max(np.abs(m - m[::-1, ::-1])) <= 1e-13

    def test_deriv_matrix_has_minus_symmetry(self):
        m = make_basis(4, "GL").D_hat
        assert np.max(np.abs(m + m[::-1, ::-1])) <= 1e-12

    def test_split_rejects_asymmetric_matrix(self):
        with pytest.raises(BasisError):
            even_odd_split(np.arange(12.0).reshape(4, 3), +1)

    def test_split_rejects_bad_sign(self):
        m = make_basis(2, "GL").J_hat
        with pytest.raises(ValueError):
            even_odd_split(m, 2)

    def test_apply_rejects_wrong_length(self):
        factor = make_basis(3, "GL").J_even_odd
        with pytest.raises(ValueError):
            eo_contract_dir(factor, np.zeros(7), 0)


class TestBasis1D:
    def test_gl_default_point_count(self):
        basis = make_basis(4, "GL")
        assert basis.q == 6
        assert not basis.collocated

    def test_gll_default_is_collocated_identity(self):
        basis = make_basis(4, "GLL")
        assert basis.q == 5
        assert basis.collocated
        assert np.array_equal(basis.J_hat, np.eye(5))

    def test_gll_oversampled_is_not_collocated(self):
        basis = make_basis(3, "GLL", q=6)
        assert not basis.collocated

    def test_deriv_at_quad_consistent_with_d_hat(self):
        # Differentiating after interpolating to the (finer) quadrature
        # grid equals direct nodal differentiation on degree-p data.
        for kind in ("GL", "GLL"):
            basis = make_basis(5, kind)
            got = basis.deriv_at_quad @ basis.J_hat
            assert np.allclose(got, basis.D_hat, atol=1e-10, rtol=0)

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            make_basis(0, "GL")
        with pytest.raises(ValueError):
            make_basis(16, "GL")

    def test_matrices_are_frozen(self):
        basis = make_basis(3, "GL")
        with pytest.raises(ValueError):
            basis.J_hat[0, 0] = 5.0

    def test_nodes_are_gll_points(self):
        basis = make_basis(6, "GL")
        assert np.array_equal(basis.nodes,
                              gauss_lobatto_legendre(7).points)
