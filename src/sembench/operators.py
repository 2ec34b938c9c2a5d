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
* blocked:     sumfact on a geometry stored in blocks of 4 or 8 elements.

With collocated GLL quadrature (q = p + 1) J_hat is the identity and the
quadrature grid's derivative matrix is D_hat, and every strategy runs
interpfirst's dataflow with its J contractions skipped: ur, us, ut are the
three D contractions of u, and w = D_x^T wr + D_y^T ws + D_z^T wt.  evenodd
keeps its factored D.  Skipping an exact identity contraction leaves the
bits as they are.

Every strategy applies a batch of elements per contraction, as one
(p1, p1, p1, B) field with the element index innermost, so every 1D
contraction is one GEMM with a long right-hand side (see tensors).  A
batch is always one whole storage block of the geometric factors:
batch_size(q) elements or, for blocked, the 4 or 8 its geometry was built
with, either capped at E.  Local vectors are stored in the same blocks
(mesh.to_blocks), so u viewed as (E/B, p1, p1, p1, B) gives batch i as
[i], read in place; the result is written in place into out, and each
factor slot is read as one contiguous (q, q, q, B) block.  apply_local
runs every block in turn, on the calling thread.  The operator diagonal
runs over the same blocks, in the same workspace.  The output is
bitwise-identical to per-element application, which the verify suite
checks.

Each operator owns one workspace, carved at construction out of one
64-byte-aligned arena (tensors.aligned_fields) into the fields its
dataflow writes: seven fields of q^3 B words for every stiffness (the
gradient, the metric stage's three outputs and its scratch), reused
stage by stage, and two for the mass off collocation, between which its
interpolations ping-pong.  Every contraction and metric product writes
into a field through out=, and every block, component and call reuses
them, so an apply allocates nothing field-sized, and an operator runs one
apply at a time.  Only eo_contract_dir's temporaries still allocate.

Instrumented counters record FMAs, adds, multiplies, and modeled memory
words; closed-form flop/byte models are provided for comparison.
"""

from __future__ import annotations

import numpy as np

from .basis import Basis1D, even_odd_split
from .mesh import GeomFactors
from .tensors import (OpCounters, aligned_empty, aligned_fields, contract_dir,
                      eo_contract_dir)

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

    Subclasses provide _element_data(i, ct), which returns the stored
    factors of block i as (..., q, q, q, B) arrays and counts their reads;
    _apply_block(U, data, ct, out), which applies the operator to one batch
    U of shape (p1, p1, p1, B) and writes the result into out; and
    _diagonal_blocks(out), which writes every block of the diagonal into
    out, viewed as blocks, through the workspace.  Local vectors are in the
    blocked layout of geom.block elements, (..., E/B, p1, p1, p1, B)
    flattened (see mesh), and every batch is one whole block, a view of u
    and of out.  Subclasses carve their workspace with
    tensors.aligned_fields, in fields of max(q, p1)^3 B words.
    """

    def __init__(self, basis: Basis1D, geom: GeomFactors,
                 strategy: str = "sumfact", instrument: bool = False):
        _check_strategy(strategy)
        if basis.q != geom.q:
            raise ValueError("basis and geometric factors disagree on q")
        self.basis = basis
        self.geom = geom
        self.strategy = strategy
        self.instrument = instrument
        self.E = geom.E
        self.n_local = self.E * basis.p1 ** 3
        self.counters = OpCounters()
        # A local vector seen as (E/B, p1, p1, p1, B): block i is [i].
        self._blocks = range(self.E // geom.block)
        self._view = (len(self._blocks),) + (basis.p1,) * 3 + (geom.block,)
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

    def apply_local(self, u, out=None):
        """Apply the unassembled operator block by block, in place.

        A call checks only the length of u; the block view's shape is
        fixed at construction.  The operator's workspace is shared by its
        calls, so one operator runs one apply at a time.  out may be u
        itself: every dataflow reads a block of u only in its first
        stage, before the block's last contraction writes out.

        Args:
            u: local vector in the layout of geom.block, shape (n_local,)
                or (ncomp, n_local).
            out: optional output array of the same shape; every element
                of it is written.

        Returns:
            w with w^e = A^e u^e; each row of a 2D input bitwise-equals
            the apply of that row alone.
        """
        u = np.asarray(u)
        if u.shape[-1] != self.n_local:
            raise ValueError(f"expected local vector of length {self.n_local}")
        if out is None:
            out = np.empty_like(u)
        ct = self.counters if self.instrument else None
        uv = u.reshape((-1,) + self._view)
        wv = out.reshape(uv.shape)
        comps = len(uv)
        for i in self._blocks:
            # Element data is read once per batch, shared by the components.
            data = self._element_data(i, ct)
            if ct is not None:
                ct.read_words += comps * uv[0, i].size
                ct.write_words += comps * uv[0, i].size
            for c in range(comps):
                self._apply_block(uv[c, i], data, ct, wv[c, i])
        return out

    def diagonal(self) -> np.ndarray:
        """Per-element diagonal of the local operator (unassembled).

        Computed one storage block at a time, like the apply, in the
        operator's workspace, and written straight into a new local
        vector (which has the same blocks) that starts on a 64-byte line.
        """
        out = aligned_empty(self._view)
        self._diagonal_blocks(out)
        return out.reshape(-1)


class StiffnessOperator(_LocalOperator):
    """Matrix-free local stiffness apply w^e = A^e u^e per element.

    Args:
        basis: 1D operator matrices.
        geom: geometric factors on the matching quadrature grid.
        strategy: one of sumfact, interpfirst, evenodd, blocked.
        instrument: when True, counters accumulate on every apply.
    """

    system = "stiffness"

    def __init__(self, basis: Basis1D, geom: GeomFactors,
                 strategy: str = "sumfact", instrument: bool = False):
        super().__init__(basis, geom, strategy, instrument)
        # Plain functions, not bound methods: a bound method kept on the
        # instance is a reference cycle, which would keep the operator and
        # its geometric factors alive until the cyclic collector runs.
        # At collocation every strategy runs interpfirst's dataflow with its
        # J contractions skipped, on the nodes' own D (factored for evenodd).
        cls = StiffnessOperator
        self._interp = not basis.collocated
        if basis.collocated or strategy == "interpfirst":
            self._grad = cls._grad_interpfirst
            self._grad_t = cls._grad_t_interpfirst
        else:
            self._grad, self._grad_t = cls._grad_sumfact, cls._grad_t_sumfact
        if basis.collocated:
            self._dq, self._dqt = self._d, self._dt
        else:
            self._dq = basis.deriv_at_quad
            self._dqt = self._dq.T
        # The metric stage writes wr, ws, wt into fields 0-2 with field 3
        # as its scratch, and the gradient ur, us, ut into fields 4-6; the
        # other stages' intermediates go into fields that are dead while
        # they run.
        n, q = basis.p1, basis.q
        (self._nnq, self._nqq, self._qqq, self._nnn, self._qqn,
         self._qnn) = aligned_fields(7, geom.block, max(n, q), (n, n, q),
                                     (n, q, q), (q, q, q), (n, n, n),
                                     (q, q, n), (q, n, n))

    def model_flops(self, components: int = 1) -> float:
        if self.basis.collocated:
            return components * collocated_flop_model(self.strategy,
                                                      self.basis.p)
        return components * flop_model(self.strategy, self.basis.p, self.basis.q)

    def model_bytes(self, components: int = 1):
        return bytes_model(self.basis.p, self.basis.q, components, "stiffness")

    # Contraction kernels.  U is (n, n, n, B); ct threads the counters.
    # Each writes into workspace fields, viewed in the shape lists named
    # by their three direction axes (out= is passed positionally).

    def _grad_sumfact(self, U, ct):
        c, J, D = self._contract, self._j, self._d
        nnq, nqq, qqq = self._nnq, self._nqq, self._qqq
        a = c(D, U, 0, ct, nnq[0])
        a = c(J, a, 1, ct, nqq[1])
        ur = c(J, a, 2, ct, qqq[4])
        b = c(J, U, 0, ct, nnq[0])          # shared between us and ut
        by = c(J, b, 1, ct, nqq[1])
        us = c(J, c(D, b, 1, ct, nqq[2]), 2, ct, qqq[5])
        ut = c(D, by, 2, ct, qqq[6])
        return ur, us, ut

    def _grad_t_sumfact(self, wr, ws, wt, ct, out=None):
        c, JT, DT = self._contract, self._jt, self._dt
        nnq, nqq = self._nnq, self._nqq
        z1 = c(JT, wr, 2, ct, nqq[3])
        z1 = c(JT, z1, 1, ct, nnq[4])
        w = c(DT, z1, 0, ct, out)
        z2 = c(DT, c(JT, ws, 2, ct, nqq[3]), 1, ct, nnq[5])
        z3 = c(JT, c(DT, wt, 2, ct, nqq[3]), 1, ct, nnq[6])
        shared = np.add(z2, z3, out=z2)     # one Jx^T pass serves both
        w += c(JT, shared, 0, ct, self._nnn[3])
        if ct is not None:
            ct.add += shared.size + w.size
        return w

    def _grad_interpfirst(self, U, ct):
        c, Dq, qqq = self._contract, self._dq, self._qqq
        if self._interp:
            J = self._j
            U = c(J, U, 0, ct, self._nnq[0])
            U = c(J, U, 1, ct, self._nqq[1])
            U = c(J, U, 2, ct, qqq[3])
        return (c(Dq, U, 0, ct, qqq[4]), c(Dq, U, 1, ct, qqq[5]),
                c(Dq, U, 2, ct, qqq[6]))

    def _grad_t_interpfirst(self, wr, ws, wt, ct, out=None):
        c, DqT, qqq = self._contract, self._dqt, self._qqq
        v = c(DqT, wr, 0, ct, qqq[4] if self._interp else out)
        v += c(DqT, ws, 1, ct, qqq[3])
        v += c(DqT, wt, 2, ct, qqq[3])
        if ct is not None:
            ct.add += 2 * v.size
        if not self._interp:
            return v
        JT = self._jt
        w = c(JT, v, 2, ct, self._nqq[5])
        w = c(JT, w, 1, ct, self._nnq[6])
        return c(JT, w, 0, ct, out)

    def _apply_g(self, ur, us, ut, g, ct):
        # Each row is ga*ur + gb*us + gc*ut, added left to right into
        # fields 0-2; the second and third products go through field 3.
        f = self._qqq
        tmp = f[3]

        def row(ga, gb, gc, w):
            np.multiply(ga, ur, out=w)
            w += np.multiply(gb, us, out=tmp)
            w += np.multiply(gc, ut, out=tmp)
            return w

        g11, g12, g13, g22, g23, g33 = g
        wr = row(g11, g12, g13, f[0])
        ws = row(g12, g22, g23, f[1])
        wt = row(g13, g23, g33, f[2])
        if ct is not None:
            ct.mul += 9 * ur.size
            ct.add += 6 * ur.size
        return wr, ws, wt

    def _apply_block(self, U, g, ct, out=None):
        wr, ws, wt = self._apply_g(*self._grad(self, U, ct), g, ct)
        return self._grad_t(self, wr, ws, wt, ct, out)

    def _element_data(self, i, ct):
        if ct is not None:
            ct.g_read_words += 6 * self.basis.q ** 3 * self.geom.block
        return self.geom.G[i]

    def _diagonal_blocks(self, out):
        # diag(A^e) at node (c,b,a) sums the metric entries contracted with
        # squared (or cross-multiplied) rows of J_hat and D_hat: G11 pairs
        # with D in x, G22 in y, G33 in z, and the cross terms count twice.
        J, D = self.basis.J_hat, self.basis.D_hat
        pj, pd, px = (np.ascontiguousarray((a * b).T)
                      for a, b in ((J, J), (D, D), (J, D)))
        terms = ((pd, pj, pj, 0), (pj, pd, pj, 3), (pj, pj, pd, 5),
                 (px, px, pj, 1), (px, pj, px, 2), (pj, px, px, 4))
        for i in self._blocks:
            g, d = self.geom.G[i], out[i]
            for n, (mx, my, mz, slot) in enumerate(terms):
                t = contract_dir(mx, g[slot], 0, out=self._qqn[0])
                t = contract_dir(my, t, 1, out=self._qnn[1])
                t = contract_dir(mz, t, 2, out=self._nnn[2] if n else d)
                if n >= 3:
                    t *= 2.0
                if n:
                    d += t


class MassOperator(_LocalOperator):
    """Matrix-free local mass apply w^e = J3^T B~ J3 u^e.

    With collocated GLL quadrature (q = p + 1) the interpolation J3 is the
    identity and the apply is a pure diagonal scaling by mass_diag.
    """

    system = "mass"

    def __init__(self, basis: Basis1D, geom: GeomFactors,
                 strategy: str = "sumfact", instrument: bool = False):
        super().__init__(basis, geom, strategy, instrument)
        self.collocated = basis.collocated
        if not self.collocated:
            # The interpolations ping-pong between two workspace fields.
            n, q = basis.p1, basis.q
            (self._nnq, self._nqq, self._qqq, self._qqn,
             self._qnn) = aligned_fields(2, geom.block, max(n, q),
                                         (n, n, q), (n, q, q), (q, q, q),
                                         (q, q, n), (q, n, n))

    def model_flops(self, components: int = 1) -> float:
        return components * mass_flop_model(self.basis.p, self.basis.q,
                                            self.collocated)

    def model_bytes(self, components: int = 1):
        return bytes_model(self.basis.p, self.basis.q, components, "mass",
                           self.collocated)

    def _element_data(self, i, ct):
        if ct is not None:
            ct.read_words += self.basis.q ** 3 * self.geom.block
        return self.geom.mass_diag[i]

    def _diagonal_blocks(self, out):
        # The J3-squared contraction of the weights, which is the stored
        # mass_diag itself when collocated.
        if self.collocated:
            np.copyto(out, self.geom.mass_diag)
            return
        J = self.basis.J_hat
        pj = np.ascontiguousarray((J * J).T)
        for i in self._blocks:
            d = contract_dir(pj, self.geom.mass_diag[i], 0, out=self._qqn[0])
            d = contract_dir(pj, d, 1, out=self._qnn[1])
            contract_dir(pj, d, 2, out=out[i])

    def _apply_block(self, U, d, ct, out=None):
        if ct is not None:
            ct.mul += d.size
        if self.collocated:
            return np.multiply(U, d, out=out)
        c, J, JT = self._contract, self._j, self._jt
        uq = c(J, U, 0, ct, self._nnq[0])
        uq = c(J, uq, 1, ct, self._nqq[1])
        uq = c(J, uq, 2, ct, self._qqq[0])
        uq *= d
        v = c(JT, uq, 0, ct, self._qqn[1])
        v = c(JT, v, 1, ct, self._qnn[0])
        return c(JT, v, 2, ct, out)
