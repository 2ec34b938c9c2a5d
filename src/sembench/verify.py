"""Self-contained correctness suites run by the `verify` subcommand.

Each suite builds its own small meshes and compares the fast paths against
independent references: explicit sparse matrices for the assembled operator
and the gather-scatter, analytic monomial integrals for quadrature, dense
reconstruction for the even-odd factors.  The explicit Q matrix lives here,
in the oracle, on purpose; the production code never forms it.  The two
sparse oracles import scipy when called, so importing the package does
not load it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .assembly import build_gather_scatter, build_numbering
from .basis import even_odd_split, make_basis
from .krylov import SystemApplier
from .mesh import (G_INDEX, GeomFactors, build_box_mesh,
                   compute_geometric_factors, from_blocks)
from .operators import STRATEGY_RTOL, MassOperator, StiffnessOperator
from .quadrature import MAX_POINTS, gauss_legendre, gauss_lobatto_legendre
from .tensors import eo_contract_dir

CHECKS = ("csr-equivalence", "strategy-equivalence", "quadrature-exactness",
          "even-odd", "qtq-multiplicity")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def build_q_matrix(numbering):
    """Explicit Boolean scatter Q (n_local x n_global, CSR): u_L = Q u."""
    from scipy import sparse

    l2g = numbering.local_to_global
    n_local = l2g.size
    return sparse.csr_matrix(
        (np.ones(n_local), (np.arange(n_local), l2g)),
        shape=(n_local, numbering.n_global))


def _kron3(a, b, c):
    return np.kron(a, np.kron(b, c))


def assemble_reference_csr(op, gs, mask: bool = True):
    """Assemble the global operator explicitly: A = Q^T A_L Q, then mask.

    Verification oracle only: the per-element matrices are built densely
    from Kronecker-product gradient matrices and the stored metric factors,
    with no shared code with the matrix-free apply.

    Args:
        op: StiffnessOperator or MassOperator.
        gs: GatherScatter providing numbering and Dirichlet mask.
        mask: zero out Dirichlet rows and columns (the default).

    Returns:
        scipy.sparse.csr_matrix of size n_global x n_global.
    """
    from scipy import sparse

    numbering = gs.numbering
    if numbering.n_global > 50_000:
        raise ValueError("reference CSR assembly limited to 50,000 global nodes")
    basis = op.basis
    p1, E = basis.p1, op.E
    J, D = basis.J_hat, basis.D_hat
    l2g = from_blocks(numbering.local_to_global, numbering.block,
                      p1).reshape(E, p1 ** 3)

    rows, cols, data = [], [], []
    if op.system == "stiffness":
        Dm = [_kron3(J, J, D), _kron3(J, D, J), _kron3(D, J, J)]
        for e in range(E):
            g_e = op.geom.slab(op.geom.G, e, e + 1)[..., 0]
            a_e = np.zeros((p1 ** 3, p1 ** 3))
            for m in range(3):
                inner = np.zeros_like(Dm[0])
                for mp in range(3):
                    gvals = g_e[G_INDEX[min(m, mp), max(m, mp)]].reshape(-1)
                    inner += gvals[:, None] * Dm[mp]
                a_e += Dm[m].T @ inner
            rows.append(np.repeat(l2g[e], p1 ** 3))
            cols.append(np.tile(l2g[e], p1 ** 3))
            data.append(a_e.reshape(-1))
    else:
        J3 = _kron3(J, J, J)
        for e in range(E):
            dvals = op.geom.slab(op.geom.mass_diag, e, e + 1).reshape(-1)
            b_e = J3.T @ (dvals[:, None] * J3)
            rows.append(np.repeat(l2g[e], p1 ** 3))
            cols.append(np.tile(l2g[e], p1 ** 3))
            data.append(b_e.reshape(-1))

    n = numbering.n_global
    a = sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()
    if mask:
        gmask = gs.global_mask()
        scal = sparse.diags(gmask)
        a = scal @ a @ scal
    return a


def inject_geom_fault(geom: GeomFactors, element: int, slot: int,
                      point: tuple, scale: float) -> GeomFactors:
    """Copy of geom with one G entry scaled (a fault the oracles must catch).

    The copy keeps the blocked layout of G, so the faulty operator runs the
    same memory access pattern as the original.
    """
    g = geom.G.copy()
    iz, iy, ix = point
    geom.slab(g, element, element + 1)[slot, iz, iy, ix] *= scale
    return GeomFactors(geom.q, geom.block, g, geom.mass_diag.copy(),
                       geom.jac_det.copy())


def _rel_err(got: np.ndarray, ref: np.ndarray) -> float:
    denom = np.linalg.norm(ref)
    return float(np.linalg.norm(got - ref) / (denom if denom else 1.0))


def check_csr_equivalence(pairs=((2, 3), (2, 4), (3, 4), (3, 5), (4, 5),
                                 (4, 6)),
                          ks=(3,), rtol: float = 1e-12,
                          geom_override=None) -> CheckResult:
    """Matrix-free mask.QQ^T.A_L against the assembled, masked CSR matrix.

    For every (p, q) pair the quadrature family follows the bake-off
    convention: q = p + 1 is collocated GLL, q = p + 2 is GL.  Both the
    stiffness (Dirichlet) and mass (Neumann) operators are compared.
    """
    worst = 0.0
    worst_case = ""
    rng = np.random.default_rng(1234)
    for (p, q) in pairs:
        kind = "GLL" if q == p + 1 else "GL"
        basis = make_basis(p, kind, q=q)
        for k in ks:
            mesh = build_box_mesh(k, p)
            geom = compute_geometric_factors(mesh, basis)
            # The override perturbs only the matrix-free side; the CSR
            # reference keeps the clean geometry, so a fault must surface.
            geom_mf = geom if geom_override is None else geom_override(geom)
            for system, bc in (("stiffness", "dirichlet"),
                               ("mass", "neumann")):
                gs = build_gather_scatter(mesh, bc=bc, block=geom.block)
                if system == "stiffness":
                    op = StiffnessOperator(basis, geom_mf)
                    op_ref = StiffnessOperator(basis, geom)
                else:
                    op = MassOperator(basis, geom_mf)
                    op_ref = MassOperator(basis, geom)
                a_ref = assemble_reference_csr(op_ref, gs, mask=True)
                u_g = rng.standard_normal(gs.numbering.n_global)
                u_l = u_g[gs.numbering.local_to_global]
                w_mf = SystemApplier(op, gs)(gs.apply_mask(u_l), count=False)
                w_ref = (a_ref @ u_g)[gs.numbering.local_to_global]
                err = _rel_err(w_mf, w_ref)
                if err > worst:
                    worst, worst_case = err, f"{system} p={p} q={q} k={k}"
    passed = worst <= rtol
    return CheckResult("csr-equivalence", passed,
                       f"max rel err {worst:.3e} ({worst_case}), tol {rtol:g}")


def per_element_apply(op, u: np.ndarray) -> np.ndarray:
    """op.apply_local(u) one element at a time, the batch-free reference."""
    out = np.zeros_like(u)
    for e in range(op.E):
        op.apply_local(u, out=out, elements=(e, e + 1))
    return out


class SumfactDataflow(StiffnessOperator):
    """The generic sumfact dataflow, J contractions included, at any q.

    At GLL collocation every strategy runs the six-contraction collocated
    dataflow, so this is the independent reference they are held to there.
    """

    def __init__(self, basis, geom):
        super().__init__(basis, geom, strategy="sumfact")
        self._grad = StiffnessOperator._grad_sumfact
        self._grad_t = StiffnessOperator._grad_t_sumfact


def check_strategy_equivalence(p_list=range(1, 11), kinds=("GL", "GLL"),
                               k: int = 3, n_inputs: int = 20,
                               rtol: float = STRATEGY_RTOL) -> CheckResult:
    """All evaluation strategies agree on random inputs.

    The sum-factorized kernel is the reference; interp-first, even-odd, and
    both blocked batch sizes must match it to rtol on every input.  At GLL
    collocation all five operators must also match the generic sumfact
    dataflow (SumfactDataflow) to rtol.  Each strategy's batched apply must
    also bitwise-equal its per-element apply.
    """
    worst = 0.0
    worst_case = ""
    batch_mismatch = ""
    rng = np.random.default_rng(42)
    for p in p_list:
        for kind in kinds:
            basis = make_basis(p, kind)
            mesh = build_box_mesh(k, p)
            geom = compute_geometric_factors(mesh, basis)
            ref_op = StiffnessOperator(basis, geom, strategy="sumfact")
            others = [StiffnessOperator(basis, geom, strategy="interpfirst"),
                      StiffnessOperator(basis, geom, strategy="evenodd"),
                      StiffnessOperator(basis, geom, strategy="blocked",
                                        block=4),
                      StiffnessOperator(basis, geom, strategy="blocked",
                                        block=8)]
            n = ref_op.n_local
            inputs = rng.standard_normal((n_inputs, n))
            refs = [ref_op.apply_local(u) for u in inputs]
            cases = [(op, refs, "") for op in others]
            if basis.collocated:
                generic = SumfactDataflow(basis, geom)
                grefs = [generic.apply_local(u) for u in inputs]
                cases += [(op, grefs, " vs generic sumfact")
                          for op in [ref_op] + others]
            for op, want, against in cases:
                for u, ref in zip(inputs, want):
                    err = _rel_err(op.apply_local(u), ref)
                    if err > worst:
                        worst = err
                        worst_case = f"{op.strategy} p={p} {kind}{against}"
            for op in [ref_op] + others:
                if not np.array_equal(op.apply_local(inputs),
                                      per_element_apply(op, inputs)):
                    batch_mismatch = f"{op.strategy} p={p} {kind}"
    passed = worst <= rtol and not batch_mismatch
    batch = (f"differs for {batch_mismatch}" if batch_mismatch
             else "bitwise equal")
    return CheckResult("strategy-equivalence", passed,
                       f"max rel err {worst:.3e} ({worst_case}), tol {rtol:g}; "
                       f"batched vs per-element {batch}")


def check_quadrature_exactness(tol: float = 1e-12) -> CheckResult:
    """GL integrates monomials through degree 2q-1 and GLL through 2q-3.

    Reference values are the analytic integrals of x^d over [-1, 1].
    Also pins the q=3 GLL weights {1/3, 4/3, 1/3} to 1e-14.
    """
    worst = 0.0
    worst_case = ""
    for q in range(1, MAX_POINTS + 1):
        for rule, max_deg in ((gauss_legendre(q), 2 * q - 1),
                              (gauss_lobatto_legendre(q) if q >= 2 else None,
                               2 * q - 3)):
            if rule is None:
                continue
            for d in range(max_deg + 1):
                exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
                got = rule.integrate(rule.points ** d)
                err = abs(got - exact)
                if err > worst:
                    worst, worst_case = err, f"{rule.kind} q={q} deg={d}"
    gll3 = gauss_lobatto_legendre(3)
    w_err = float(np.max(np.abs(gll3.weights
                                - np.array([1.0, 4.0, 1.0]) / 3.0)))
    passed = worst <= tol and w_err <= 1e-14
    return CheckResult(
        "quadrature-exactness", passed,
        f"max abs err {worst:.3e} ({worst_case}), tol {tol:g}; "
        f"GLL q=3 weight err {w_err:.3e}, tol 1e-14")


def check_even_odd(p_list=range(1, 11), kinds=("GL", "GLL"),
                   tol: float = 1e-12) -> CheckResult:
    """Even-odd factors reconstruct their matrices and reproduce matvecs."""
    worst = 0.0
    worst_case = ""
    rng = np.random.default_rng(7)
    for p in p_list:
        for kind in kinds:
            basis = make_basis(p, kind)
            for name, m, sign in (("J", basis.J_hat, +1),
                                  ("D", basis.D_hat, -1)):
                factor = even_odd_split(m, sign)
                err = float(np.max(np.abs(factor.to_dense() - m)))
                if err > worst:
                    worst, worst_case = err, f"{name} dense p={p} {kind}"
                for _ in range(3):
                    u = rng.standard_normal((1, 1, m.shape[1]))
                    err = _rel_err(eo_contract_dir(factor, u, 0)[0, 0],
                                   m @ u[0, 0])
                    if err > worst:
                        worst, worst_case = err, f"{name} apply p={p} {kind}"
    passed = worst <= tol
    return CheckResult("even-odd", passed,
                       f"max err {worst:.3e} ({worst_case}), tol {tol:g}")


def check_qtq_multiplicity(cases=((0, 1), (1, 2), (3, 3), (6, 3)),
                           ranks=(1, 4, 8), tol: float = 1e-13) -> CheckResult:
    """Q^T Q = diag(multiplicity), gather_scatter = QQ^T, weighted dots.

    The explicit sparse Q built here is the oracle; E up to 64, p up to 3.
    Every case runs in the local layouts of blocks of 1 element (the
    element-major order) and of 3, where partition boundaries fall inside
    blocks, and at each rank count in `ranks` (capped at E); at k = 6 and
    8 ranks, partitions that are not neighbours in rank order share nodes.
    Every local copy of a node must hold the bitwise-same sum.
    """
    worst = 0.0
    worst_case = ""
    split_case = ""
    rng = np.random.default_rng(99)
    for (k, p), block in itertools.product(cases, (1, 3)):
        mesh = build_box_mesh(k, p)
        numbering = build_numbering(mesh, block)
        l2g = numbering.local_to_global
        q_mat = build_q_matrix(numbering)
        qtq = (q_mat.T @ q_mat).toarray()
        mult_err = float(np.max(np.abs(qtq - np.diag(numbering.multiplicity))))
        if mult_err > worst:
            worst, worst_case = mult_err, f"QtQ k={k} p={p} block={block}"
        for n_ranks in sorted({min(r, mesh.E) for r in ranks}):
            gs = build_gather_scatter(mesh, numbering, ranks=n_ranks)
            u = rng.standard_normal(numbering.n_local)
            got = gs.gather_scatter(u, count=False)
            err = _rel_err(got, q_mat @ (q_mat.T @ u))
            if err > worst:
                worst, worst_case = err, (f"QQt k={k} p={p} block={block} "
                                          f"ranks={n_ranks}")
            one_copy = np.empty(numbering.n_global)
            one_copy[l2g] = got
            if not split_case and not np.array_equal(got, one_copy[l2g]):
                split_case = f"k={k} p={p} block={block} ranks={n_ranks}"
            ug = rng.standard_normal(numbering.n_global)
            vg = rng.standard_normal(numbering.n_global)
            got = gs.local_dot(q_mat @ ug, q_mat @ vg, count=False)
            ref = float(ug @ vg)
            err = abs(got - ref) / max(abs(ref), 1.0)
            if err > worst:
                worst, worst_case = err, (f"dot k={k} p={p} block={block} "
                                          f"ranks={n_ranks}")
    passed = worst <= tol and not split_case
    copies = (f"differ for {split_case}" if split_case
              else "bitwise equal")
    return CheckResult("qtq-multiplicity", passed,
                       f"max err {worst:.3e} ({worst_case}), tol {tol:g}; "
                       f"copies of each node {copies}")


_LIGHT_ARGS = {
    # verify defaults keep each suite under a few seconds
    "csr-equivalence": dict(pairs=((2, 3), (2, 4), (3, 4), (3, 5)), ks=(3,)),
    "strategy-equivalence": dict(p_list=range(1, 8), n_inputs=5),
    "quadrature-exactness": {},
    "even-odd": {},
    "qtq-multiplicity": {},
}

_SUITES = {
    "csr-equivalence": check_csr_equivalence,
    "strategy-equivalence": check_strategy_equivalence,
    "quadrature-exactness": check_quadrature_exactness,
    "even-odd": check_even_odd,
    "qtq-multiplicity": check_qtq_multiplicity,
}


def run_suites(names=None, overrides=None) -> list:
    """Run the named suites (all by default) with light default arguments."""
    if names is None:
        names = CHECKS
    results = []
    for name in names:
        if name not in _SUITES:
            raise ValueError(
                f"unknown check {name!r}; choose from {', '.join(CHECKS)}")
        kwargs = dict(_LIGHT_ARGS[name])
        if overrides:
            kwargs.update(overrides.get(name, {}))
        results.append(_SUITES[name](**kwargs))
    return results
