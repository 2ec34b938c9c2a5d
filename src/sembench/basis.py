"""One-dimensional nodal bases: interpolation/derivative operator matrices.

A Basis1D holds the q x p1 matrices that move data between the p1 = p + 1
Gauss-Lobatto-Legendre nodes of a nodal Lagrange basis and the q quadrature
points used for integration.  Entries are evaluated in barycentric form to
avoid cancellation.  The even-odd factorization exploits the reflection
symmetry of both matrices to halve the multiply count of a 1D apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .quadrature import QuadRule1D, gauss_lobatto_legendre, make_rule

MAX_P = 15


class BasisError(ValueError):
    """Invalid basis construction (duplicate nodes, broken symmetry)."""


def _barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    n = len(nodes)
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    if np.min(np.abs(diff)) == 0.0:
        raise BasisError("duplicate interpolation nodes")
    return 1.0 / np.prod(diff, axis=1)


def lagrange_interp_matrix(nodes: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Evaluate all Lagrange cardinal polynomials at the target points.

    Args:
        nodes: p1 distinct interpolation nodes.
        targets: q evaluation points.

    Returns:
        q x p1 matrix with entry (j, i) = h_i(targets[j]).
    """
    nodes = np.asarray(nodes, dtype=float)
    targets = np.asarray(targets, dtype=float)
    bw = _barycentric_weights(nodes)
    out = np.empty((len(targets), len(nodes)))
    for j, t in enumerate(targets):
        d = t - nodes
        hit = np.nonzero(d == 0.0)[0]
        if hit.size:
            row = np.zeros(len(nodes))
            row[hit[0]] = 1.0
        else:
            row = bw / d
            row /= row.sum()  # barycentric normalization; rows sum to 1
        out[j] = row
    return out


def lagrange_deriv_matrix(nodes: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Evaluate the derivatives of the Lagrange cardinal polynomials.

    Args:
        nodes: p1 distinct interpolation nodes.
        targets: q evaluation points.

    Returns:
        q x p1 matrix with entry (j, i) = h'_i(targets[j]).
    """
    nodes = np.asarray(nodes, dtype=float)
    targets = np.asarray(targets, dtype=float)
    p1 = len(nodes)
    bw = _barycentric_weights(nodes)
    # Differentiation matrix on the nodes themselves, standard barycentric
    # form: D[a,b] = (bw[b]/bw[a]) / (x_a - x_b), diagonal = -sum of row.
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    dnode = (bw[None, :] / bw[:, None]) / diff
    np.fill_diagonal(dnode, 0.0)
    np.fill_diagonal(dnode, -dnode.sum(axis=1))

    out = np.empty((len(targets), p1))
    for j, t in enumerate(targets):
        d = t - nodes
        hit = np.nonzero(d == 0.0)[0]
        if hit.size:
            out[j] = dnode[hit[0]]
            continue
        # Off-node target: differentiate the barycentric interpolant.
        # With c_i = bw_i/(t - x_i), s = sum c, the interpolant is
        # (sum c_i u_i)/s and its derivative rows follow from the quotient
        # rule: h_i'(t) = (c_i/s) * (g - g_i) where g_i = 1/(t - x_i) and
        # g = (sum c_i g_i)/s.
        c = bw / d
        s = c.sum()
        gi = 1.0 / d
        g = np.dot(c, gi) / s
        out[j] = (c / s) * (g - gi)
    return out


@dataclass(frozen=True)
class EvenOddFactor:
    """Compressed form of a reflection-symmetric operator matrix.

    For a q x p1 matrix M with M[j, i] = sign * M[q-1-j, p1-1-i], only the
    ceil(q/2) x ceil(p1/2) matrix S_plus and floor(q/2) x floor(p1/2) matrix
    S_minus need to be stored.  sign is +1 for interpolation operators and
    -1 for differentiation operators.
    """

    source_shape: tuple
    sign: int
    S_plus: np.ndarray
    S_minus: np.ndarray

    def __post_init__(self):
        self.S_plus.flags.writeable = False
        self.S_minus.flags.writeable = False

    @property
    def fma_count(self) -> int:
        """Fused multiply-adds per 1D apply: |S_plus| + |S_minus|."""
        return self.S_plus.size + self.S_minus.size

    def to_dense(self) -> np.ndarray:
        """Reconstruct the original dense q x p1 matrix."""
        q, p1 = self.source_shape
        qh, ph = q // 2, p1 // 2
        m = np.zeros((q, p1))
        # First-half rows carry the symmetric part in S_plus and the
        # antisymmetric part in S_minus; second-half rows are reflections.
        m[:qh, :ph] = self.S_plus[:qh, :ph] + self.S_minus
        m[:qh, p1 - ph:] = (self.S_plus[:qh, :ph] - self.S_minus)[:, ::-1]
        if p1 % 2:
            m[:qh, ph] = self.S_plus[:qh, ph]
        if q % 2:
            mid = self.S_plus[qh]
            if self.sign > 0:
                m[qh, :ph] = mid[:ph]
                m[qh, p1 - ph:] = mid[:ph][::-1]
                if p1 % 2:
                    m[qh, ph] = mid[ph]
            else:
                # Middle row of a derivative operator is antisymmetric; its
                # nonzero half lives in the padded last row of S_plus.
                m[qh, :ph] = mid[:ph]
                m[qh, p1 - ph:] = -mid[:ph][::-1]
        m[q - qh:] = self.sign * m[:qh][::-1, ::-1]
        return m


def even_odd_split(matrix: np.ndarray, sign: int, tol: float = 1e-12) -> EvenOddFactor:
    """Factor a reflection-symmetric matrix into its even/odd halves.

    Args:
        matrix: q x p1 operator matrix.
        sign: +1 if M[j,i] = M[q-1-j,p1-1-i] (interpolation), -1 if the
            reflection flips sign (differentiation).
        tol: largest tolerated symmetry violation, relative to max |entry|.

    Returns:
        EvenOddFactor with S_plus (ceil x ceil) and S_minus (floor x floor).

    Raises:
        BasisError: if the matrix does not have the claimed symmetry.
    """
    m = np.asarray(matrix, dtype=float)
    q, p1 = m.shape
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    scale = np.max(np.abs(m)) or 1.0
    if np.max(np.abs(m - sign * m[::-1, ::-1])) > tol * scale:
        raise BasisError("matrix lacks the required reflection symmetry")

    qh, ph = q // 2, p1 // 2
    s_plus = np.zeros((q - qh, p1 - ph))   # ceil(q/2) x ceil(p1/2)
    s_minus = np.zeros((qh, ph))           # floor(q/2) x floor(p1/2)
    s_plus[:qh, :ph] = 0.5 * (m[:qh, :ph] + m[:qh, p1 - ph:][:, ::-1])
    s_minus[:, :] = 0.5 * (m[:qh, :ph] - m[:qh, p1 - ph:][:, ::-1])
    if p1 % 2:
        s_plus[:qh, ph] = m[:qh, ph]
    if q % 2:
        if sign > 0:
            # Symmetric middle row: stored verbatim (its odd part is zero).
            s_plus[qh, :ph] = m[qh, :ph]
            if p1 % 2:
                s_plus[qh, ph] = m[qh, ph]
        else:
            # Antisymmetric middle row: acts on the odd input half; stored
            # in the spare S_plus row, zero-padded when p1 is odd.
            s_plus[qh, :ph] = m[qh, :ph]
    return EvenOddFactor((q, p1), sign, s_plus, s_minus)


@dataclass(frozen=True)
class Basis1D:
    """Nodal basis of order p with its quadrature-coupled operator matrices.

    Attributes:
        p: polynomial order.
        q: quadrature point count.
        nodes: the p + 1 GLL nodes carrying the Lagrange basis.
        quad: the quadrature rule (GL or GLL).
        J_hat: q x p1 interpolation matrix, nodes to quadrature points.
        D_hat: q x p1 derivative matrix, nodes to quadrature points.
    """

    p: int
    q: int
    nodes: np.ndarray
    quad: QuadRule1D
    J_hat: np.ndarray
    D_hat: np.ndarray

    def __post_init__(self):
        for a in (self.nodes, self.J_hat, self.D_hat):
            a.flags.writeable = False

    @property
    def p1(self) -> int:
        return self.p + 1

    @property
    def collocated(self) -> bool:
        """True when the quadrature points coincide with the nodes."""
        return self.quad.kind == "GLL" and self.q == self.p1

    @cached_property
    def deriv_at_quad(self) -> np.ndarray:
        """q x q differentiation matrix on the quadrature point grid.

        Used by the interpolate-first contraction strategy: once a field is
        represented on the q-point grid, q >= p1 guarantees the degree-p
        interpolant there is exact, so differentiating on that grid is too.
        """
        d = lagrange_deriv_matrix(self.quad.points, self.quad.points)
        d.flags.writeable = False
        return d

    @cached_property
    def J_even_odd(self) -> EvenOddFactor:
        return even_odd_split(self.J_hat, +1)

    @cached_property
    def D_even_odd(self) -> EvenOddFactor:
        return even_odd_split(self.D_hat, -1)


def make_basis(p: int, quad_kind: str, q: int | None = None) -> Basis1D:
    """Construct a Basis1D for order p with the given quadrature family.

    Args:
        p: polynomial order, 1 <= p <= MAX_P.
        quad_kind: "GL" or "GLL".
        q: point count; defaults to p + 2 for GL and p + 1 for GLL.

    Returns:
        Basis1D with J_hat/D_hat evaluated at the quadrature points.
    """
    if not 1 <= p <= MAX_P:
        raise ValueError(f"order p={p} outside supported range 1..{MAX_P}")
    if q is None:
        q = p + 2 if quad_kind == "GL" else p + 1
    nodes = gauss_lobatto_legendre(p + 1).points.copy()
    quad = make_rule(quad_kind, q)
    j_hat = lagrange_interp_matrix(nodes, quad.points)
    d_hat = lagrange_deriv_matrix(nodes, quad.points)
    if quad_kind == "GLL" and q == p + 1:
        # Collocation: pin the identity exactly rather than to roundoff.
        j_hat = np.eye(q)
    return Basis1D(p, q, nodes, quad, j_hat, d_hat)
