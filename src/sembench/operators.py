"""Matrix-free mass and stiffness operators in local (unassembled) form.

The stiffness apply is the three-phase kernel: gradient in reference
coordinates (three sum-factored contractions per direction), pointwise
application of the symmetric metric tensor G (9 multiplies and 6 adds per
quadrature point), and the transposed gradient accumulating the result.

Four interchangeable contraction strategies are provided:

* sumfact:     dense 1D contractions, sharing the common interpolation
               subexpressions between directions.
* interpfirst: interpolate to the quadrature grid once, differentiate there
               with a q x q matrix, and interpolate back.
* evenodd:     sumfact dataflow with every 1D contraction in even-odd
               factored form (about half the multiplies).
* blocked:     sumfact with a fixed batch of 4 or 8 elements.

With collocated GLL quadrature (q = p + 1) J_hat is the identity, and every
strategy runs the same six-contraction dataflow instead: ur, us, ut are the
three D contractions of u, and w = D_x^T wr + D_y^T ws + D_z^T wt.  evenodd
keeps its factored D and blocked its batch.  The dense output equals the
interpfirst dataflow's bitwise, since that adds the transposed terms in the
same order and its identity contractions are exact.

Every strategy applies a batch of elements per contraction, as one
(p1, p1, p1, B) field with the element index innermost, so every 1D
contraction is one GEMM with a long right-hand side (see tensors).  Local
vectors are stored in that form: in the blocked layout of mesh.to_blocks,
cut at the blocks in which the geometric factors are stored, batch_size(q)
elements each (a working set of about WORKING_SET_WORDS words per field).
The batches are the requested element range cut at those blocks, so a
batch that is a whole block reads its field as a view of u, writes its
result in place into out, and reads each factor slot as one contiguous
(q, q, q, B) slab.  A batch that covers part of a block (blocked cuts each
block into batches of 4 or 8; an element range may start or end inside
one) is a strided view, copied once.  The output is bitwise-identical to
per-element application, which the verify suite checks.

Instrumented counters record FMAs, adds, multiplies, and modeled memory
words; closed-form flop/byte models are provided for comparison.
"""

from __future__ import annotations

import numpy as np

from .basis import Basis1D, even_odd_split
from .mesh import GeomFactors, block_view
# WORKING_SET_WORDS and batch_size are re-exported: the batch rule lives in
# tensors, where setup shares it.
from .tensors import (WORKING_SET_WORDS, OpCounters,  # noqa: F401
                      batch_size, contract_dir, eo_contract_dir)

STRATEGIES = ("sumfact", "interpfirst", "evenodd", "blocked")

# Elements per batch that the blocked strategy accepts.
BLOCK_SIZES = (4, 8)

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
        fma += _eo_fma(m, n, rest)
        add += _eo_add(m, n, rest)
    add += q * p1 * p1 + p1 ** 3  # transpose-phase accumulations
    return 2.0 * fma + add + pointwise


def _eo_fma(m, n, rest):
    """FMAs of one even-odd contraction of an m x n matrix over rest points."""
    return ((-(-m // 2)) * (-(-n // 2)) + (m // 2) * (n // 2)) * rest


def _eo_add(m, n, rest):
    """Decompose/recombine adds of the same contraction."""
    return (2 * (n // 2) + 2 * (m // 2)) * rest


def collocated_flop_model(strategy: str, p: int) -> float:
    """Per-element flops of one scalar stiffness apply at GLL collocation.

    Six D contractions (p1^4 FMAs each, even-odd counted for evenodd), the
    pointwise metric (15 p1^3) and the two transposed-gradient sums
    (2 p1^3): 12 p1^4 + 17 p1^3 for the dense strategies.
    """
    _check_strategy(strategy)
    p1 = p + 1
    sums = 17.0 * p1 ** 3
    if strategy != "evenodd":
        return 12.0 * p1 ** 4 + sums
    stage = (p1, p1, p1 * p1)
    return 6 * (2.0 * _eo_fma(*stage) + _eo_add(*stage)) + sums


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


class _LocalOperator:
    """Validation, element batching and counting shared by both operators.

    Subclasses provide _element_data(b0, b1, ct), which returns the stored
    factors of a batch as (..., q, q, q, B) slabs and counts their reads,
    and _apply_block(U, data, ct, out=None), which applies the operator to
    one batch U of shape (p1, p1, p1, B), writing the result into out (a
    C-contiguous batch field) when it is given.  Local vectors are in the
    blocked layout of geom.block elements (see mesh); `batch` is the most
    elements a batch takes, geom.block except for blocked.
    """

    def __init__(self, basis: Basis1D, geom: GeomFactors,
                 strategy: str = "sumfact", block: int = 8,
                 instrument: bool = False):
        _check_strategy(strategy)
        if basis.q != geom.q:
            raise ValueError("basis and geometric factors disagree on q")
        if strategy == "blocked" and block not in BLOCK_SIZES:
            raise ValueError("blocked strategy supports block sizes "
                             + " and ".join(map(str, BLOCK_SIZES)))
        self.basis = basis
        self.geom = geom
        self.strategy = strategy
        self.batch = block if strategy == "blocked" else geom.block
        self.instrument = instrument
        self.E = geom.E
        self.n_local = self.E * basis.p1 ** 3
        self.counters = OpCounters()
        # The 1D matrices of the sumfact dataflow and the contraction that
        # applies them: even-odd factors for evenodd, dense otherwise.
        if strategy == "evenodd":
            self._contract = eo_contract_dir
            self._j, self._d = basis.J_even_odd, basis.D_even_odd
            self._jt = even_odd_split(np.ascontiguousarray(basis.J_hat.T), +1)
            self._dt = even_odd_split(np.ascontiguousarray(basis.D_hat.T), -1)
        else:
            self._contract = contract_dir
            self._j, self._d = basis.J_hat, basis.D_hat
            self._jt, self._dt = basis.J_hat.T, basis.D_hat.T

    def apply_local(self, u, out=None, elements=None):
        """Apply the unassembled operator batch by batch.

        Args:
            u: local vector in the layout of geom.block, shape (n_local,)
                or (ncomp, n_local).
            out: optional output array of the same shape.
            elements: optional (start, stop) element range; only those
                elements' locals of out are written.

        Returns:
            w with w^e = A^e u^e; each row of a 2D input bitwise-equals
            the apply of that row alone.  Other elements' locals are zero
            when a range is given and out is None.
        """
        u = np.asarray(u)
        comps = u.shape[0] if u.ndim == 2 else 1
        if u.shape[-1] != self.n_local:
            raise ValueError(f"expected local vector of length {self.n_local}")
        if out is None:
            out = np.zeros_like(u)
        p1 = self.basis.p1
        node = (p1, p1, p1)
        e0, e1 = elements if elements is not None else (0, self.E)
        ct = self.counters if self.instrument else None
        uc, wc = u.reshape(comps, -1), out.reshape(comps, -1)
        block = self.geom.block
        for b0, b1 in self.geom.batches(e0, e1, self.batch):
            # Element data is read once per batch, shared by the components.
            data = self._element_data(b0, b1, ct)
            if ct is not None:
                ct.read_words += comps * (b1 - b0) * p1 ** 3
                ct.write_words += comps * (b1 - b0) * p1 ** 3
            uv = block_view(uc, block, b0, b1, node)
            wv = block_view(wc, block, b0, b1, node)
            for c in range(comps):
                # A whole block is read and written in place; part of one
                # is copied in and out.
                U, W = np.ascontiguousarray(uv[c]), wv[c]
                if W.flags.c_contiguous:
                    self._apply_block(U, data, ct, W)
                else:
                    W[...] = self._apply_block(U, data, ct)
        return out


class StiffnessOperator(_LocalOperator):
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
        super().__init__(basis, geom, strategy, block, instrument)
        # Plain functions, not bound methods: a bound method kept on the
        # instance is a reference cycle, which would keep the operator and
        # its geometric factors alive until the cyclic collector runs.
        cls = StiffnessOperator
        if basis.collocated:
            self._grad, self._grad_t = cls._grad_colloc, cls._grad_t_colloc
        elif strategy == "interpfirst":
            self._grad = cls._grad_interpfirst
            self._grad_t = cls._grad_t_interpfirst
        else:
            self._grad, self._grad_t = cls._grad_sumfact, cls._grad_t_sumfact

    def model_flops(self, components: int = 1) -> float:
        if self.basis.collocated:
            return components * collocated_flop_model(self.strategy,
                                                      self.basis.p)
        return components * flop_model(self.strategy, self.basis.p, self.basis.q)

    def model_bytes(self, components: int = 1):
        return bytes_model(self.basis.p, self.basis.q, components, "stiffness")

    # Contraction kernels.  U is (n, n, n, B); ct threads the counters.

    def _grad_sumfact(self, U, ct):
        c, J, D = self._contract, self._j, self._d
        a = c(D, U, 0, ct)
        a = c(J, a, 1, ct)
        ur = c(J, a, 2, ct)
        b = c(J, U, 0, ct)                  # shared between us and ut
        by = c(J, b, 1, ct)
        us = c(J, c(D, b, 1, ct), 2, ct)
        ut = c(D, by, 2, ct)
        return ur, us, ut

    def _grad_t_sumfact(self, wr, ws, wt, ct, out=None):
        c, JT, DT = self._contract, self._jt, self._dt
        z1 = c(JT, wr, 2, ct)
        z1 = c(JT, z1, 1, ct)
        w = c(DT, z1, 0, ct, out)
        z2 = c(DT, c(JT, ws, 2, ct), 1, ct)
        z3 = c(JT, c(DT, wt, 2, ct), 1, ct)
        shared = z2 + z3                    # one Jx^T pass serves both
        w += c(JT, shared, 0, ct)
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

    def _grad_t_interpfirst(self, wr, ws, wt, ct, out=None):
        JT = self.basis.J_hat.T
        DqT = self.basis.deriv_at_quad.T
        vq = contract_dir(DqT, wr, 0, ct)
        vq += contract_dir(DqT, ws, 1, ct)
        vq += contract_dir(DqT, wt, 2, ct)
        if ct is not None:
            ct.add += 2 * vq.size
        w = contract_dir(JT, vq, 2, ct)
        w = contract_dir(JT, w, 1, ct)
        return contract_dir(JT, w, 0, ct, out)

    def _grad_colloc(self, U, ct):
        c, D = self._contract, self._d
        return c(D, U, 0, ct), c(D, U, 1, ct), c(D, U, 2, ct)

    def _grad_t_colloc(self, wr, ws, wt, ct, out=None):
        c, DT = self._contract, self._dt
        w = c(DT, wr, 0, ct, out)
        w += c(DT, ws, 1, ct)
        w += c(DT, wt, 2, ct)
        if ct is not None:
            ct.add += 2 * w.size
        return w

    def _apply_g(self, ur, us, ut, g, ct):
        # Each row is ga*ur + gb*us + gc*ut, added left to right; the second
        # and third products go through one scratch buffer per batch.
        tmp = np.empty_like(ur)

        def row(ga, gb, gc):
            w = ga * ur
            w += np.multiply(gb, us, out=tmp)
            w += np.multiply(gc, ut, out=tmp)
            return w

        g11, g12, g13, g22, g23, g33 = g
        wr, ws, wt = row(g11, g12, g13), row(g12, g22, g23), row(g13, g23, g33)
        if ct is not None:
            ct.mul += 9 * ur.size
            ct.add += 6 * ur.size
        return wr, ws, wt

    def _apply_block(self, U, g, ct, out=None):
        wr, ws, wt = self._apply_g(*self._grad(self, U, ct), g, ct)
        return self._grad_t(self, wr, ws, wt, ct, out)

    def _element_data(self, b0, b1, ct):
        if ct is not None:
            ct.g_read_words += 6 * self.basis.q ** 3 * (b1 - b0)
        return self.geom.slab(self.geom.G, b0, b1)


class MassOperator(_LocalOperator):
    """Matrix-free local mass apply w^e = J3^T B~ J3 u^e.

    With collocated GLL quadrature (q = p + 1) the interpolation J3 is the
    identity and the apply is a pure diagonal scaling by mass_diag.
    """

    system = "mass"

    def __init__(self, basis: Basis1D, geom: GeomFactors,
                 strategy: str = "sumfact", block: int = 8,
                 instrument: bool = False):
        super().__init__(basis, geom, strategy, block, instrument)
        self.collocated = basis.collocated

    def model_flops(self, components: int = 1) -> float:
        return components * mass_flop_model(self.basis.p, self.basis.q,
                                            self.collocated)

    def model_bytes(self, components: int = 1):
        return bytes_model(self.basis.p, self.basis.q, components, "mass",
                           self.collocated)

    def _interp(self, U, ct, transpose=False, out=None):
        J = self._jt if transpose else self._j
        U = self._contract(J, U, 0, ct)
        U = self._contract(J, U, 1, ct)
        return self._contract(J, U, 2, ct, out)

    def _element_data(self, b0, b1, ct):
        if ct is not None:
            ct.read_words += self.basis.q ** 3 * (b1 - b0)
        return self.geom.slab(self.geom.mass_diag, b0, b1)

    def _apply_block(self, U, d, ct, out=None):
        if ct is not None:
            ct.mul += d.size
        if self.collocated:
            return np.multiply(U, d, out=out)
        uq = self._interp(U, ct)
        uq *= d
        return self._interp(uq, ct, transpose=True, out=out)
