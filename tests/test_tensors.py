"""Directional contractions and operation counting."""

import numpy as np
import pytest

from sembench.basis import even_odd_split, make_basis
from sembench.tensors import OpCounters, contract_dir, eo_contract_dir


def element_first_einsum(spec, a, u):
    """np.einsum of a spec that names the element axis first, on a field
    that carries it last, as contract_dir's fields do."""
    return np.moveaxis(np.einsum(spec, a, np.moveaxis(u, -1, 0)), 0, -1)


class TestContractDir:
    @pytest.mark.parametrize("direction,spec", [
        (0, "qp,ezyp->ezyq"),
        (1, "qp,ezpx->ezqx"),
        (2, "qp,epyx->eqyx"),
    ])
    def test_matches_einsum(self, direction, spec, rng):
        a = rng.standard_normal((6, 4))
        for batch in (1, 2, 7):
            u = rng.standard_normal((4, 4, 4, batch))
            got = contract_dir(a, u, direction)
            ref = element_first_einsum(spec, a, u)
            assert np.allclose(got, ref, atol=1e-13, rtol=0)
            # Each element of a batch is bitwise its own one-element call.
            for e in range(batch):
                one = np.ascontiguousarray(u[..., e:e + 1])
                assert np.array_equal(got[..., e:e + 1],
                                      contract_dir(a, one, direction))

    def test_no_batch_axis(self, rng):
        a = rng.standard_normal((5, 3))
        u = rng.standard_normal((3, 3, 3))
        for direction, spec in ((0, "qp,zyp->zyq"), (1, "qp,zpx->zqx"),
                                (2, "qp,pyx->qyx")):
            got = contract_dir(a, u, direction)
            ref = np.einsum(spec, a, u)
            assert got.shape == ref.shape
            assert np.allclose(got, ref, atol=1e-13, rtol=0)

    def test_multiple_batch_axes(self, rng):
        a = rng.standard_normal((4, 4))
        u = rng.standard_normal((4, 4, 4, 3, 2))
        got = contract_dir(a, u, 1)
        ref = np.einsum("qp,zpxec->zqxec", a, u)
        assert np.allclose(got, ref, atol=1e-13, rtol=0)

    @pytest.mark.parametrize("direction,spec", [
        (0, "qp,ezyp->ezyq"),
        (1, "qp,ezpx->ezqx"),
        (2, "qp,epyx->eqyx"),
    ])
    def test_non_contiguous_input(self, direction, spec, rng):
        # A metric slot of a sub-range of a stored block, as a blocked
        # batch reads it, and a transposed view whose merged axes cannot be
        # reshaped in place.
        a = rng.standard_normal((6, 4))
        g = rng.standard_normal((6, 4, 4, 4, 5))
        for u in (g[2, ..., 1:4], g[1].transpose(2, 1, 0, 3)):
            got = contract_dir(a, u, direction)
            assert np.array_equal(got,
                                  contract_dir(a, np.ascontiguousarray(u),
                                               direction))
            assert np.allclose(got, element_first_einsum(spec, a, u),
                               atol=1e-13, rtol=0)

    @pytest.mark.parametrize("direction", [0, 1, 2])
    def test_out_is_written_with_the_same_bits(self, direction, rng):
        # The operators write a batch's last contraction straight into
        # the output vector's slab.
        a = rng.standard_normal((6, 4))
        factor = even_odd_split(make_basis(3, "GL").J_hat, +1)
        for batch in (1, 7):
            u = rng.standard_normal((4, 4, 4, batch))
            for contract, m in ((contract_dir, a), (eo_contract_dir, factor)):
                ref = contract(m, u, direction)
                out = np.full(ref.shape, np.nan)
                assert contract(m, u, direction, out=out) is out
                assert np.array_equal(out, ref)

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
        u = rng.standard_normal((p + 1, p + 1, p + 1, 2))
        for matrix, factor in ((basis.J_hat, basis.J_even_odd),
                               (basis.D_hat, basis.D_even_odd)):
            ref = contract_dir(matrix, u, direction)
            got = eo_contract_dir(factor, u, direction)
            assert np.max(np.abs(got - ref)) <= 1e-12 * (
                np.max(np.abs(ref)) + 1.0)

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("batch", [2, 7, 500])
    def test_each_element_is_its_own_call(self, p, batch, rng):
        # The transposed factors of p = 1 and 2 have a one-row half, which
        # numpy would send to gemv, whose rounding moves with the batch.
        basis = make_basis(p, "GL")
        for matrix, sign in ((basis.J_hat, +1), (basis.D_hat, -1)):
            factor = even_odd_split(np.ascontiguousarray(matrix.T), sign)
            n = factor.source_shape[1]
            u = rng.standard_normal((n, n, n, batch))
            for direction in range(3):
                got = eo_contract_dir(factor, u, direction)
                for e in (0, batch // 2, batch - 1):
                    one = np.ascontiguousarray(u[..., e:e + 1])
                    assert np.array_equal(
                        got[..., e:e + 1],
                        eo_contract_dir(factor, one, direction))

    def test_counter_model(self):
        basis = make_basis(3, "GL")
        factor = basis.J_even_odd
        u = np.ones((4, 4, 4, 2))
        ct = OpCounters()
        eo_contract_dir(factor, u, 0, ct)
        rest = u.size // 4
        assert ct.fma == factor.fma_count * rest
        assert ct.add == (2 * 2 + 2 * 2) * rest

    def test_wrong_axis_length_rejected(self):
        factor = make_basis(3, "GL").J_even_odd
        with pytest.raises(ValueError):
            eo_contract_dir(factor, np.zeros((4, 4, 5, 2)), 0)


class TestOpCounters:
    def test_total_flops_weighting(self):
        ct = OpCounters(fma=10, add=3, mul=4)
        assert ct.total_flops == 2 * 10 + 3 + 4

    def test_copy_is_independent(self):
        ct = OpCounters(fma=7)
        dup = ct.copy()
        ct.fma = 99
        assert dup.fma == 7
