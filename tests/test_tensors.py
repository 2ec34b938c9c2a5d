"""Directional contractions and operation counting."""

import numpy as np
import pytest

from sembench.basis import make_basis
from sembench.tensors import OpCounters, contract_dir, eo_contract_dir


class TestContractDir:
    @pytest.mark.parametrize("direction,spec", [
        (0, "qp,ezyp->ezyq"),
        (1, "qp,ezpx->ezqx"),
        (2, "qp,epyx->eqyx"),
    ])
    def test_matches_einsum(self, direction, spec, rng):
        a = rng.standard_normal((6, 4))
        u = rng.standard_normal((3, 4, 4, 4))
        got = contract_dir(a, u, direction)
        ref = np.einsum(spec, a, u)
        assert np.allclose(got, ref, atol=1e-13, rtol=0)

    def test_no_batch_axis(self, rng):
        a = rng.standard_normal((5, 3))
        u = rng.standard_normal((3, 3, 3))
        got = contract_dir(a, u, 2)
        ref = np.einsum("qp,pyx->qyx", a, u)
        assert got.shape == (5, 3, 3)
        assert np.allclose(got, ref, atol=1e-13, rtol=0)

    def test_multiple_batch_axes(self, rng):
        a = rng.standard_normal((4, 4))
        u = rng.standard_normal((2, 3, 4, 4, 4))
        got = contract_dir(a, u, 1)
        ref = np.einsum("qp,cezpx->cezqx", a, u)
        assert np.allclose(got, ref, atol=1e-13, rtol=0)

    @pytest.mark.parametrize("direction,spec", [
        (0, "qp,ezyp->ezyq"),
        (1, "qp,ezpx->ezqx"),
        (2, "qp,epyx->eqyx"),
    ])
    def test_non_contiguous_input(self, direction, spec, rng):
        # A metric slot G[:, slot], as compute_diagonal passes it, and a
        # transposed view whose merged axes cannot be reshaped in place.
        a = rng.standard_normal((6, 4))
        g = rng.standard_normal((3, 6, 4, 4, 4))
        for u in (g[:, 2], g[:, 1].transpose(0, 3, 2, 1)):
            got = contract_dir(a, u, direction)
            assert np.array_equal(got,
                                  contract_dir(a, np.ascontiguousarray(u),
                                               direction))
            assert np.allclose(got, np.einsum(spec, a, u), atol=1e-13, rtol=0)

    def test_fma_count_is_exact(self):
        # m*n FMAs per point of the remaining axes.
        a = np.ones((6, 4))
        u = np.ones((7, 4, 4, 4))
        ct = OpCounters()
        contract_dir(a, u, 0, ct)
        assert ct.fma == 6 * 4 * (7 * 4 * 4)
        assert ct.add == ct.mul == 0

    def test_counters_accumulate(self):
        a = np.ones((3, 3))
        u = np.ones((3, 3, 3))
        ct = OpCounters()
        contract_dir(a, u, 0, ct)
        contract_dir(a, u, 1, ct)
        assert ct.fma == 2 * 9 * 9


class TestEvenOddContract:
    @pytest.mark.parametrize("p", range(1, 9))
    @pytest.mark.parametrize("kind", ["GL", "GLL"])
    @pytest.mark.parametrize("direction", [0, 1, 2])
    def test_matches_dense_contraction(self, p, kind, direction, rng):
        basis = make_basis(p, kind)
        u = rng.standard_normal((2, p + 1, p + 1, p + 1))
        for matrix, factor in ((basis.J_hat, basis.J_even_odd),
                               (basis.D_hat, basis.D_even_odd)):
            ref = contract_dir(matrix, u, direction)
            got = eo_contract_dir(factor, u, direction)
            assert np.max(np.abs(got - ref)) <= 1e-12 * (
                np.max(np.abs(ref)) + 1.0)

    def test_counter_model(self):
        basis = make_basis(3, "GL")
        factor = basis.J_even_odd
        u = np.ones((2, 4, 4, 4))
        ct = OpCounters()
        eo_contract_dir(factor, u, 0, ct)
        rest = u.size // 4
        assert ct.fma == factor.distinct_entries * rest
        assert ct.add == (2 * 2 + 2 * 2) * rest

    def test_wrong_axis_length_rejected(self):
        factor = make_basis(3, "GL").J_even_odd
        with pytest.raises(ValueError):
            eo_contract_dir(factor, np.zeros((2, 4, 4, 5)), 0)


class TestOpCounters:
    def test_total_flops_weighting(self):
        ct = OpCounters(fma=10, add=3, mul=4)
        assert ct.total_flops == 2 * 10 + 3 + 4

    def test_reset(self):
        ct = OpCounters(fma=1, add=2, mul=3, g_read_words=4,
                        read_words=5, write_words=6)
        ct.reset()
        assert ct == OpCounters()

    def test_copy_is_independent(self):
        ct = OpCounters(fma=7)
        dup = ct.copy()
        ct.fma = 99
        assert dup.fma == 7
