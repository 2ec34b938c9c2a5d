"""The verification suites themselves: they pass clean and catch faults."""

import functools

import numpy as np
import pytest

from sembench.operators import StiffnessOperator

from sembench.verify import (CHECKS, check_csr_equivalence, check_even_odd,
                             check_qtq_multiplicity,
                             check_quadrature_exactness,
                             check_strategy_equivalence, inject_geom_fault,
                             run_suites)

from conftest import element_major


class TestSuitesPassClean:
    def test_csr_equivalence(self):
        result = check_csr_equivalence(pairs=((2, 3), (3, 5)), ks=(2,))
        assert result.passed, result.detail

    def test_strategy_equivalence(self):
        result = check_strategy_equivalence(p_list=[2, 4], k=2, n_inputs=3)
        assert result.passed, result.detail

    def test_quadrature_exactness(self):
        result = check_quadrature_exactness()
        assert result.passed, result.detail

    def test_even_odd(self):
        result = check_even_odd(p_list=[1, 4, 9])
        assert result.passed, result.detail

    def test_qtq_multiplicity(self):
        result = check_qtq_multiplicity(cases=((1, 2), (3, 2)))
        assert result.passed, result.detail


class TestFaultSensitivity:
    def test_metric_fault_is_detected(self):
        # Scaling one G entry on the matrix-free side must break the CSR
        # comparison; the oracle sees the clean geometry.
        fault = functools.partial(inject_geom_fault, element=0, slot=0,
                                  point=(1, 1, 1), scale=1.5)
        result = check_csr_equivalence(pairs=((3, 5),), ks=(1,),
                                       geom_override=fault)
        assert not result.passed

    def test_tiny_fault_below_tolerance_still_detected(self):
        fault = functools.partial(inject_geom_fault, element=0, slot=0,
                                  point=(0, 0, 0), scale=1.0 + 1e-6)
        result = check_csr_equivalence(pairs=((3, 5),), ks=(1,),
                                       geom_override=fault)
        assert not result.passed

    def test_batch_dependent_kernel_is_detected(self, monkeypatch):
        # A relative change of 1e-15 on multi-element batches stays inside
        # the 1e-12 tolerance; only the per-element comparison sees it.
        apply_block = StiffnessOperator._apply_block

        def batch_dependent(self, U, g, ct, out=None):
            w = apply_block(self, U, g, ct, out)
            if U.shape[-1] > 1:
                w *= 1.0 + 1e-15
            return w

        monkeypatch.setattr(StiffnessOperator, "_apply_block",
                            batch_dependent)
        result = check_strategy_equivalence(p_list=[2], k=2, n_inputs=2)
        assert not result.passed
        assert "differs" in result.detail

    def test_collocated_dataflow_fault_is_detected(self, monkeypatch):
        # At GLL every strategy runs the collocated dataflow, so all of them
        # agree on a fault in it; only the generic sumfact dataflow sees it.
        grad_t = StiffnessOperator._grad_t_colloc

        def skewed(self, wr, ws, wt, ct, out=None):
            w = grad_t(self, wr, ws, wt, ct, out)
            w *= 1.0 + 1e-9
            return w

        monkeypatch.setattr(StiffnessOperator, "_grad_t_colloc", skewed)
        args = dict(p_list=[3], k=2, n_inputs=2)
        assert check_strategy_equivalence(kinds=("GL",), **args).passed
        result = check_strategy_equivalence(kinds=("GLL",), **args)
        assert not result.passed
        assert "vs generic sumfact" in result.detail

    def test_identity_override_passes(self):
        result = check_csr_equivalence(pairs=((3, 5),), ks=(1,),
                                       geom_override=lambda geom: geom)
        assert result.passed


class TestInjectGeomFault:
    def test_changes_exactly_one_entry(self, stack):
        s = stack(2, "GL", 1)
        broken = s.geom
        broken = inject_geom_fault(s.geom, element=1, slot=3, point=(0, 2, 1),
                                   scale=2.0)
        got = element_major(broken, broken.G)
        ref = element_major(s.geom, s.geom.G)
        diff = got != ref
        assert diff.sum() == 1
        assert diff[1, 3, 0, 2, 1]
        assert got[1, 3, 0, 2, 1] == 2.0 * ref[1, 3, 0, 2, 1]
        assert np.array_equal(broken.mass_diag, s.geom.mass_diag)

    def test_copy_keeps_the_layout(self, stack):
        s = stack(2, "GL", 2)
        broken = inject_geom_fault(s.geom, element=0, slot=1, point=(0, 0, 0),
                                   scale=3.0)
        assert broken.block == s.geom.block
        assert broken.G.shape == s.geom.G.shape
        assert broken.G.strides == s.geom.G.strides

    def test_original_untouched(self, stack):
        s = stack(2, "GL", 1)
        before = s.geom.G.copy()
        inject_geom_fault(s.geom, element=0, slot=0, point=(0, 0, 0),
                          scale=-1.0)
        assert np.array_equal(s.geom.G, before)


class TestRunSuites:
    def test_all_suites_by_default(self):
        results = run_suites(["quadrature-exactness", "even-odd"])
        assert [r.name for r in results] == ["quadrature-exactness",
                                             "even-odd"]
        assert all(r.passed for r in results)

    def test_overrides_reach_the_suite(self):
        results = run_suites(["even-odd"],
                             overrides={"even-odd": {"p_list": [3]}})
        assert results[0].passed

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown check"):
            run_suites(["spelling"])

    def test_checks_tuple_is_complete(self):
        assert set(CHECKS) == {"csr-equivalence", "strategy-equivalence",
                               "quadrature-exactness", "even-odd",
                               "qtq-multiplicity"}
