"""Shared fixtures: problem-stack builder and the acceptance verdict board."""

from types import SimpleNamespace

import numpy as np
import pytest

import sembench as sb

# Verdict lines appended by the acceptance tests; echoed after the run so
# they stay visible regardless of output capture.
VERDICTS: list = []


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.line(line)


@pytest.fixture(scope="session")
def stack():
    """Memoized problem stacks keyed by (p, kind, k, bc, ranks, deformation).

    Tests share meshes and geometric factors; everything returned is
    immutable (or treated as such), so sharing across tests is safe.
    """
    cache = {}

    def build(p, kind, k, bc="neumann", ranks=1, deformation="sine"):
        key = (p, kind, k, bc, ranks, deformation)
        if key not in cache:
            basis = sb.make_basis(p, kind)
            mesh = sb.build_box_mesh(k, p, deformation=deformation)
            geom = sb.compute_geometric_factors(mesh, basis)
            gs = sb.build_gather_scatter(mesh, bc=bc, ranks=ranks,
                                         block=geom.block)
            cache[key] = SimpleNamespace(p=p, kind=kind, k=k, basis=basis,
                                         mesh=mesh, geom=geom, gs=gs)
        return cache[key]

    return build


@pytest.fixture()
def rng():
    return np.random.default_rng(20260819)


def element_major(geom, factor):
    """(E, ...) copy of a stored geometric factor, read through geom.slab."""
    return np.concatenate([np.moveaxis(geom.slab(factor, b0, b1), -1, 0)
                           for b0, b1 in geom.batches(0, geom.E)])


def rel_err(got, ref):
    denom = np.linalg.norm(ref)
    return float(np.linalg.norm(np.asarray(got) - np.asarray(ref))
                 / (denom if denom else 1.0))
