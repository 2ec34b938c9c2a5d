"""Matrix-free mass and stiffness operators in local (unassembled) form.

The stiffness apply is the three-phase kernel: gradient in reference
coordinates (three sum-factored contractions per direction), pointwise
application of the symmetric metric tensor G (9 multiplies and 6 adds per
quadrature point), and the transposed gradient accumulating the result.

Four interchangeable contraction strategies are provided:

* sumfact:     per-element dense 1D contractions, sharing the common
               interpolation subexpressions between directions.
* interpfirst: interpolate to the quadrature grid once, differentiate there
               with a q x q matrix, and interpolate back.
* evenodd:     sumfact dataflow with every 1D contraction in even-odd
               factored form (about half the multiplies).
* blocked:     sumfact arithmetic batched over blocks of 4 or 8 elements;
               bitwise-identical to per-element application.

Instrumented counters record FMAs, adds, multiplies, and modeled memory
words; closed-form flop/byte models are provided for comparison.
"""

from __future__ import annotations

import numpy as np

from .basis import Basis1D, even_odd_split
from .mesh import GeomFactors
from .tensors import OpCounters, contract_dir, eo_contract_dir

STRATEGIES = ("sumfact", "interpfirst", "evenodd", "blocked")

# Matvec-equivalence budget between any two strategies.
STRATEGY_RTOL = 1e-12


def _check_strategy(strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")


def single_contraction_flops(p: int, q: int) -> int:
    """Flops of one full 3D pass of a q x p1 operator: 2(qp1^3+q^2p1^2+q^3p1)."""
    p1 = p + 1
    return 2 * (q * p1 ** 3 + q ** 2 * p1 ** 2 + q ** 3 * p1)


def flop_model(strategy: str, p: int, q: int) -> float:
    """Per-element flop count of one scalar stiffness apply.

    sumfact/blocked: 4 p1^4 (3 g^3 + 3 g^2 + 2 g) + 15 g^3 p1^3 with
    g = q/p1 (the shared-subexpression form).  interpfirst:
    4 p1^4 (3 g^4 + g^3 + g^2 + g) + 15 g^3 p1^3.  evenodd: the sumfact
    stage structure with each contraction's multiply count halved to
    ceil/floor products, plus its decompose/recombine adds.
    """
    _check_strategy(strategy)
    p1 = p + 1
    g = q / p1
    pointwise = 15.0 * g ** 3 * p1 ** 3  # equals 15 q^3
    if strategy in ("sumfact", "blocked"):
        return 4.0 * p1 ** 4 * (3 * g ** 3 + 3 * g ** 2 + 2 * g) + pointwise
    if strategy == "interpfirst":
        return 4.0 * p1 ** 4 * (3 * g ** 4 + g ** 3 + g ** 2 + g) + pointwise
    # evenodd: count the ten sumfact-stage contractions with halved FMAs.
    def eo_fma(m, n, rest):
        return ((-(-m // 2)) * (-(-n // 2)) + (m // 2) * (n // 2)) * rest

    def eo_add(m, n, rest):
        return (2 * (n // 2) + 2 * (m // 2)) * rest

    fma = add = 0
    # Forward: Dx,Jy,Jz chain; Jx; Jy; Dy,Jz; Dz (see _grad_sumfact).
    stages = [(q, p1, p1 * p1), (q, p1, p1 * q), (q, p1, q * q),
              (q, p1, p1 * p1), (q, p1, p1 * q),
              (q, p1, p1 * q), (q, p1, q * q),
              (q, p1, q * q)]
    # Transpose: mirror images with (p1, q) shapes.
    stages += [(p1, q, q * q), (p1, q, p1 * q), (p1, q, p1 * p1),
               (p1, q, q * q), (p1, q, p1 * q),
               (p1, q, q * q), (p1, q, p1 * q),
               (p1, q, p1 * p1)]
    for (m, n, rest) in stages:
        fma += eo_fma(m, n, rest)
        add += eo_add(m, n, rest)
    add += q * p1 * p1 + p1 ** 3  # transpose-phase accumulations
    return 2.0 * fma + add + pointwise


def mass_flop_model(p: int, q: int, collocated: bool) -> float:
    """Per-element flops of one scalar mass apply (diagonal when collocated)."""
    p1 = p + 1
    if collocated:
        return float(p1 ** 3)  # one multiply per node
    return 2.0 * single_contraction_flops(p, q) + q ** 3


def bytes_model(p: int, q: int, components: int = 1,
                system: str = "stiffness", collocated: bool = False):
    """Modeled per-element memory words (8-byte) for one operator apply.

    Returns (read_words, write_words).  Operator matrices are shared across
    elements and discounted; the stiffness reads 6 q^3 metric words once per
    element regardless of component count.
    """
    p1 = p + 1
    if system == "stiffness":
        return 6 * q ** 3 + components * p1 ** 3, components * p1 ** 3
    if system == "mass":
        diag = p1 ** 3 if collocated else q ** 3
        return diag + components * p1 ** 3, components * p1 ** 3
    raise ValueError(f"unknown system {system!r}")


class StiffnessOperator:
    """Matrix-free local stiffness apply w^e = A^e u^e per element.

    Args:
        basis: 1D operator matrices.
        geom: geometric factors on the matching quadrature grid.
        strategy: one of sumfact, interpfirst, evenodd, blocked.
        block: elements per batch for the blocked strategy (4 or 8).
        instrument: when True, counters accumulate on every apply.
    """

    system = "stiffness"

    def __init__(self, basis: Basis1D, geom: GeomFactors,
                 strategy: str = "sumfact", block: int = 8,
                 instrument: bool = False):
        _check_strategy(strategy)
        if basis.q != geom.q:
            raise ValueError("basis and geometric factors disagree on q")
        if strategy == "blocked" and block not in (4, 8):
            raise ValueError("blocked strategy supports block sizes 4 and 8")
        self.basis = basis
        self.geom = geom
        self.strategy = strategy
        self.block = block if strategy == "blocked" else 1
        self.instrument = instrument
        self.counters = OpCounters()
        if strategy == "evenodd":
            self._jf = basis.J_even_odd
            self._df = basis.D_even_odd
            self._jft = even_odd_split(np.ascontiguousarray(basis.J_hat.T), +1)
            self._dft = even_odd_split(np.ascontiguousarray(basis.D_hat.T), -1)

    @property
    def E(self) -> int:
        return self.geom.E

    @property
    def n_local(self) -> int:
        return self.E * self.basis.p1 ** 3

    def model_flops(self, components: int = 1) -> float:
        return components * flop_model(self.strategy, self.basis.p, self.basis.q)

    def model_bytes(self, components: int = 1):
        return bytes_model(self.basis.p, self.basis.q, components, "stiffness")

    # Contraction kernels.  U is (B, n, n, n); c() threads the counters.

    def _grad_sumfact(self, U, ct):
        J, D = self.basis.J_hat, self.basis.D_hat
        a = contract_dir(D, U, 0, ct)
        a = contract_dir(J, a, 1, ct)
        ur = contract_dir(J, a, 2, ct)
        b = contract_dir(J, U, 0, ct)       # shared between us and ut
        by = contract_dir(J, b, 1, ct)
        us = contract_dir(J, contract_dir(D, b, 1, ct), 2, ct)
        ut = contract_dir(D, by, 2, ct)
        return ur, us, ut

    def _grad_t_sumfact(self, wr, ws, wt, ct):
        JT = self.basis.J_hat.T
        DT = self.basis.D_hat.T
        z1 = contract_dir(JT, wr, 2, ct)
        z1 = contract_dir(JT, z1, 1, ct)
        w = contract_dir(DT, z1, 0, ct)
        z2 = contract_dir(DT, contract_dir(JT, ws, 2, ct), 1, ct)
        z3 = contract_dir(JT, contract_dir(DT, wt, 2, ct), 1, ct)
        shared = z2 + z3                    # one Jx^T pass serves both
        w += contract_dir(JT, shared, 0, ct)
        if ct is not None:
            ct.add += shared.size + w.size
        return w

    def _grad_evenodd(self, U, ct):
        jf, df = self._jf, self._df
        a = eo_contract_dir(df, U, 0, ct)
        a = eo_contract_dir(jf, a, 1, ct)
        ur = eo_contract_dir(jf, a, 2, ct)
        b = eo_contract_dir(jf, U, 0, ct)
        by = eo_contract_dir(jf, b, 1, ct)
        us = eo_contract_dir(jf, eo_contract_dir(df, b, 1, ct), 2, ct)
        ut = eo_contract_dir(df, by, 2, ct)
        return ur, us, ut

    def _grad_t_evenodd(self, wr, ws, wt, ct):
        jft, dft = self._jft, self._dft
        z1 = eo_contract_dir(jft, wr, 2, ct)
        z1 = eo_contract_dir(jft, z1, 1, ct)
        w = eo_contract_dir(dft, z1, 0, ct)
        z2 = eo_contract_dir(dft, eo_contract_dir(jft, ws, 2, ct), 1, ct)
        z3 = eo_contract_dir(jft, eo_contract_dir(dft, wt, 2, ct), 1, ct)
        shared = z2 + z3
        w += eo_contract_dir(jft, shared, 0, ct)
        if ct is not None:
            ct.add += shared.size + w.size
        return w

    def _grad_interpfirst(self, U, ct):
        J = self.basis.J_hat
        Dq = self.basis.deriv_at_quad
        uq = contract_dir(J, U, 0, ct)
        uq = contract_dir(J, uq, 1, ct)
        uq = contract_dir(J, uq, 2, ct)
        ur = contract_dir(Dq, uq, 0, ct)
        us = contract_dir(Dq, uq, 1, ct)
        ut = contract_dir(Dq, uq, 2, ct)
        return ur, us, ut

    def _grad_t_interpfirst(self, wr, ws, wt, ct):
        JT = self.basis.J_hat.T
        DqT = self.basis.deriv_at_quad.T
        vq = contract_dir(DqT, wr, 0, ct)
        vq += contract_dir(DqT, ws, 1, ct)
        vq += contract_dir(DqT, wt, 2, ct)
        if ct is not None:
            ct.add += 2 * vq.size
        w = contract_dir(JT, vq, 2, ct)
        w = contract_dir(JT, w, 1, ct)
        return contract_dir(JT, w, 0, ct)

    def _apply_g(self, ur, us, ut, g, ct):
        g11, g12, g13, g22, g23, g33 = (g[:, i] for i in range(6))
        wr = g11 * ur + g12 * us + g13 * ut
        ws = g12 * ur + g22 * us + g23 * ut
        wt = g13 * ur + g23 * us + g33 * ut
        if ct is not None:
            ct.mul += 9 * ur.size
            ct.add += 6 * ur.size
        return wr, ws, wt

    def _apply_block(self, U, g, ct):
        if self.strategy == "interpfirst":
            ur, us, ut = self._grad_interpfirst(U, ct)
            wr, ws, wt = self._apply_g(ur, us, ut, g, ct)
            return self._grad_t_interpfirst(wr, ws, wt, ct)
        if self.strategy == "evenodd":
            ur, us, ut = self._grad_evenodd(U, ct)
            wr, ws, wt = self._apply_g(ur, us, ut, g, ct)
            return self._grad_t_evenodd(wr, ws, wt, ct)
        ur, us, ut = self._grad_sumfact(U, ct)
        wr, ws, wt = self._apply_g(ur, us, ut, g, ct)
        return self._grad_t_sumfact(wr, ws, wt, ct)

    def apply_local(self, u, out=None, elements=None):
        """Apply the unassembled operator element by element.

        Args:
            u: local vector, shape (n_local,) or (ncomp, n_local).
            out: optional output array of the same shape.
            elements: optional (start, stop) element range; only the
                corresponding slice of the output is written.

        Returns:
            w with w^e = A^e u^e; each row of a 2D input bitwise-equals
            the apply of that row alone.  Other elements' slots are zero
            when a range is given and out is None.
        """
        u = np.asarray(u)
        comps = u.shape[0] if u.ndim == 2 else 1
        if u.shape[-1] != self.n_local:
            raise ValueError(f"expected local vector of length {self.n_local}")
        if out is None:
            out = np.zeros_like(u)
        p1, q = self.basis.p1, self.basis.q
        e0, e1 = elements if elements is not None else (0, self.E)
        ct = self.counters if self.instrument else None
        uf = u.reshape(comps, self.E, p1, p1, p1)
        wf = out.reshape(comps, self.E, p1, p1, p1)
        for b0 in range(e0, e1, self.block):
            b1 = min(b0 + self.block, e1)
            g = self.geom.G[b0:b1]
            if ct is not None:
                # Metric reads are amortized across components of one block.
                ct.g_read_words += 6 * q ** 3 * (b1 - b0)
                ct.read_words += comps * (b1 - b0) * p1 ** 3
                ct.write_words += comps * (b1 - b0) * p1 ** 3
            for c in range(comps):
                wf[c, b0:b1] = self._apply_block(uf[c, b0:b1], g, ct)
        return out


class MassOperator:
    """Matrix-free local mass apply w^e = J3^T (beta B~) J3 u^e.

    With collocated GLL quadrature (q = p + 1) the interpolation J3 is the
    identity and the apply is a pure diagonal scaling by mass_diag.
    """

    system = "mass"

    def __init__(self, basis: Basis1D, geom: GeomFactors, beta: float = 1.0,
                 strategy: str = "sumfact", block: int = 8,
                 instrument: bool = False):
        _check_strategy(strategy)
        if basis.q != geom.q:
            raise ValueError("basis and geometric factors disagree on q")
        self.basis = basis
        self.geom = geom
        self.beta = beta
        self.strategy = strategy
        self.block = block if strategy == "blocked" else 1
        self.instrument = instrument
        self.counters = OpCounters()
        self.collocated = basis.collocated
        # beta is folded into the stored diagonal once; beta = 1 keeps the
        # exact mass_diag values so the collocated apply is exact scaling.
        self._diag = geom.mass_diag if beta == 1.0 else beta * geom.mass_diag
        if strategy == "evenodd":
            self._jf = basis.J_even_odd
            self._jft = even_odd_split(np.ascontiguousarray(basis.J_hat.T), +1)

    @property
    def E(self) -> int:
        return self.geom.E

    @property
    def n_local(self) -> int:
        return self.E * self.basis.p1 ** 3

    def model_flops(self, components: int = 1) -> float:
        return components * mass_flop_model(self.basis.p, self.basis.q,
                                            self.collocated)

    def model_bytes(self, components: int = 1):
        return bytes_model(self.basis.p, self.basis.q, components, "mass",
                           self.collocated)

    def _interp(self, U, ct, transpose=False):
        if self.strategy == "evenodd":
            f = self._jft if transpose else self._jf
            U = eo_contract_dir(f, U, 0, ct)
            U = eo_contract_dir(f, U, 1, ct)
            return eo_contract_dir(f, U, 2, ct)
        J = self.basis.J_hat.T if transpose else self.basis.J_hat
        U = contract_dir(J, U, 0, ct)
        U = contract_dir(J, U, 1, ct)
        return contract_dir(J, U, 2, ct)

    def apply_local(self, u, out=None, elements=None):
        """Apply the local mass operator; see StiffnessOperator.apply_local."""
        u = np.asarray(u)
        comps = u.shape[0] if u.ndim == 2 else 1
        if u.shape[-1] != self.n_local:
            raise ValueError(f"expected local vector of length {self.n_local}")
        if out is None:
            out = np.zeros_like(u)
        p1, q = self.basis.p1, self.basis.q
        e0, e1 = elements if elements is not None else (0, self.E)
        ct = self.counters if self.instrument else None

        if self.collocated:
            lo, hi = e0 * p1 ** 3, e1 * p1 ** 3
            d = self._diag.reshape(-1)[lo:hi]
            out[..., lo:hi] = u[..., lo:hi] * d
            if ct is not None:
                ct.mul += comps * (hi - lo)
                ct.read_words += (comps + 1) * (hi - lo)
                ct.write_words += comps * (hi - lo)
            return out

        uf = u.reshape(comps, self.E, p1, p1, p1)
        wf = out.reshape(comps, self.E, p1, p1, p1)
        for b0 in range(e0, e1, self.block):
            b1 = min(b0 + self.block, e1)
            d = self._diag[b0:b1]
            if ct is not None:
                ct.read_words += q ** 3 * (b1 - b0) + comps * (b1 - b0) * p1 ** 3
                ct.write_words += comps * (b1 - b0) * p1 ** 3
            for c in range(comps):
                uq = self._interp(uf[c, b0:b1], ct)
                uq *= d
                if ct is not None:
                    ct.mul += uq.size
                wf[c, b0:b1] = self._interp(uq, ct, transpose=True)
        return out


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
    p1, q, E = basis.p1, basis.q, op.E
    J, D = basis.J_hat, basis.D_hat
    l2g = numbering.local_to_global.reshape(E, p1 ** 3)

    rows, cols, data = [], [], []
    if op.system == "stiffness":
        Dm = [_kron3(J, J, D), _kron3(J, D, J), _kron3(D, J, J)]
        gi = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (1, 1): 3,
              (1, 2): 4, (2, 0): 2, (2, 1): 4, (2, 2): 5}
        for e in range(E):
            a_e = np.zeros((p1 ** 3, p1 ** 3))
            for m in range(3):
                inner = np.zeros_like(Dm[0])
                for mp in range(3):
                    gvals = op.geom.G[e, gi[(m, mp)]].reshape(-1)
                    inner += gvals[:, None] * Dm[mp]
                a_e += Dm[m].T @ inner
            rows.append(np.repeat(l2g[e], p1 ** 3))
            cols.append(np.tile(l2g[e], p1 ** 3))
            data.append(a_e.reshape(-1))
    else:
        J3 = _kron3(J, J, J)
        for e in range(E):
            dvals = op.beta * op.geom.mass_diag[e].reshape(-1)
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
