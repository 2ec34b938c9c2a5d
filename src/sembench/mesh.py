"""Tensor-product hexahedral box meshes and per-element geometric factors.

The element count is E = 2^k, split across the three directions so that no
direction has more than twice the elements of another.  Node coordinates come
from per-direction global 1D lattices, so adjacent elements share face
coordinates bitwise.  A smooth sine displacement (amplitude 0.05 by default)
makes every element genuinely curvilinear while keeping the Jacobian positive.

Geometric factors are stored per element, per quadrature point: the six
distinct entries of the symmetric metric tensor G, the diagonal mass weight
rho_i rho_j rho_k J, and the Jacobian determinant J.  That is 8 q^3 reals per
element; the global tensor-product layout of the element array is never
exploited downstream.  They are computed and stored in blocks of
batch_size(q) elements, element index innermost, the layout of the operator
batches that read them (see GeomFactors), so setup holds the stored factors
plus one block of temporaries.

Local vectors (one value per element node) use the same cut: for each
storage block [b0, b1) the vector holds one contiguous C-ordered
(p1, p1, p1, b1 - b0) slab at [b0 p1^3, b1 p1^3).  A block of 1 is the
element-major order.  to_blocks and from_blocks convert per-element
(..., E, n, n, n) arrays to and from that layout, and block_view is the one
reader of a block, for the factors and the local vectors alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import MAX_P, Basis1D
from .quadrature import gauss_lobatto_legendre
from .tensors import batch_size, contract_dir

MAX_K = 21

# Stored reals per quadrature point: six G entries, mass weight, Jacobian.
FACTORS_PER_POINT = 8

# G entry order: (11, 12, 13, 22, 23, 33).
G_INDEX = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 1): 3, (1, 2): 4, (2, 2): 5}


class MeshError(ValueError):
    pass


def _deform_none(x, y, z, amplitude, extents):
    return np.zeros_like(x)


def _deform_sine(x, y, z, amplitude, extents):
    (x0, y0, z0), (x1, y1, z1) = extents
    sx = np.sin(np.pi * (x - x0) / (x1 - x0))
    sy = np.sin(np.pi * (y - y0) / (y1 - y0))
    sz = np.sin(np.pi * (z - z0) / (z1 - z0))
    return amplitude * sx * sy * sz


DEFORMATIONS = {"none": _deform_none, "sine": _deform_sine}


def box_dims(k: int) -> tuple:
    """Split E = 2^k into (Ex, Ey, Ez), each a power of two, ratio <= 2."""
    m, r = divmod(k, 3)
    if r == 0:
        exps = (m, m, m)
    elif r == 1:
        exps = (m + 1, m, m)
    else:
        exps = (m + 1, m, m + 1)
    return tuple(2 ** e for e in exps)


@dataclass(frozen=True)
class BoxMesh:
    """A deformed tensor-product hex mesh on an axis-aligned box.

    elem_coords has shape (E, 3, p1, p1, p1): component c of the coordinate
    of node (iz, iy, ix) of element e is elem_coords[e, c, iz, iy, ix].
    Elements are ordered x-fastest: e = ex + Ex*(ey + Ey*ez).
    """

    k: int
    p: int
    dims: tuple
    extents: tuple
    deformation: str
    amplitude: float
    nodes_1d: np.ndarray
    elem_coords: np.ndarray

    def __post_init__(self):
        self.nodes_1d.flags.writeable = False
        self.elem_coords.flags.writeable = False

    @property
    def E(self) -> int:
        return 2 ** self.k

    @property
    def p1(self) -> int:
        return self.p + 1

    @property
    def n_true(self) -> int:
        """Unique global lattice nodes of the non-periodic box."""
        ex, ey, ez = self.dims
        return (self.p * ex + 1) * (self.p * ey + 1) * (self.p * ez + 1)

    @property
    def element_widths(self) -> tuple:
        (x0, y0, z0), (x1, y1, z1) = self.extents
        ex, ey, ez = self.dims
        return ((x1 - x0) / ex, (y1 - y0) / ey, (z1 - z0) / ez)


def lattice_index(dims: tuple, p: int) -> tuple:
    """Global lattice index of every element node along x, y and z.

    Three integer arrays shaped (E, 1, 1, p1), (E, 1, p1, 1) and
    (E, p1, 1, 1), which broadcast to the node layout [e, iz, iy, ix].
    """
    ex, ey, ez = dims
    e = np.arange(ex * ey * ez)
    node = np.arange(p + 1)
    gx, gy, gz = ((pos * p)[:, None] + node
                  for pos in (e % ex, e // ex % ey, e // (ex * ey)))
    return gx[:, None, None, :], gy[:, None, :, None], gz[:, :, None, None]


def to_blocks(a: np.ndarray, block: int) -> np.ndarray:
    """Per-element node array (..., E, n, n, n) in the blocked layout.

    Returns a new C-ordered (..., E n^3) array in which each block [b0, b1)
    of `block` elements (the last holds the rest) is one (n, n, n, b1 - b0)
    slab at [b0 n^3, b1 n^3), element index innermost.
    """
    lead, node, E = a.shape[:-4], a.shape[-3:], a.shape[-4]
    words, full = int(np.prod(node)), E - E % block
    out = np.empty(lead + (E * words,), dtype=a.dtype)
    out[..., :full * words].reshape(lead + (full // block,) + node
                                    + (block,))[...] = np.moveaxis(
        a[..., :full, :, :, :].reshape(lead + (full // block, block) + node),
        -4, -1)
    out[..., full * words:].reshape(lead + node + (E - full,))[...] = \
        np.moveaxis(a[..., full:, :, :, :], -4, -1)
    return out


def from_blocks(u: np.ndarray, block: int, n: int) -> np.ndarray:
    """The inverse of to_blocks: (..., E n^3) to a new (..., E, n, n, n)."""
    lead, node, words = u.shape[:-1], (n, n, n), n ** 3
    E = u.shape[-1] // words
    full = E - E % block
    out = np.empty(lead + (E,) + node, dtype=u.dtype)
    out[..., :full, :, :, :].reshape(lead + (full // block, block)
                                     + node)[...] = np.moveaxis(
        u[..., :full * words].reshape(lead + (full // block,) + node
                                      + (block,)), -1, -4)
    out[..., full:, :, :, :] = np.moveaxis(
        u[..., full * words:].reshape(lead + node + (E - full,)), -1, -4)
    return out


def block_view(a: np.ndarray, block: int, e0: int, e1: int,
               shape: tuple) -> np.ndarray:
    """View of elements [e0, e1), inside one block, of a blocked array.

    a holds prod(shape) words per element along its last axis, in blocks
    of `block` elements; the view is (..., *shape, e1 - e0).  It is
    contiguous per leading index when [e0, e1) is a whole block and
    strided otherwise.
    """
    words = int(np.prod(shape))
    E = a.shape[-1] // words
    b0 = e0 - e0 % block
    b1 = min(b0 + block, E)
    if not e0 < e1 <= b1:
        raise ValueError(f"elements [{e0}, {e1}) are not inside one block")
    slab = a[..., words * b0:words * b1].reshape(
        a.shape[:-1] + tuple(shape) + (b1 - b0,))
    return slab[..., e0 - b0:e1 - b0]


def build_box_mesh(k: int, p: int, extents=((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
                   deformation: str = "sine", amplitude: float = 0.05) -> BoxMesh:
    """Build the E = 2^k box mesh of geometry order p.

    Args:
        k: log2 of the element count, 0 <= k <= 21.
        p: geometry (and field) order, 1 <= p <= MAX_P.
        extents: ((x0,y0,z0), (x1,y1,z1)) corners of the box.
        deformation: "none" or "sine"; the sine displacement vanishes on
            the boundary, so the domain stays the box.
        amplitude: deformation amplitude.

    Returns:
        BoxMesh with bitwise-shared face node coordinates.
    """
    if not 0 <= k <= MAX_K:
        raise MeshError(f"element exponent k={k} outside supported range 0..{MAX_K}")
    if not 1 <= p <= MAX_P:
        raise MeshError(f"order p={p} outside supported range 1..{MAX_P}")
    if deformation not in DEFORMATIONS:
        raise MeshError(f"unknown deformation {deformation!r}")
    dims = box_dims(k)
    p1 = p + 1
    nodes = gauss_lobatto_legendre(p1).points

    # One global coordinate lattice per direction; element nodes index
    # into it, so shared faces reference identical floats by construction.
    lattices = []
    for d in range(3):
        lo, hi = extents[0][d], extents[1][d]
        ed = dims[d]
        h = (hi - lo) / ed
        lat = np.empty(ed * p + 1)
        for e in range(ed):
            lat[e * p:(e + 1) * p] = lo + h * (e + 0.5 * (nodes[:p] + 1.0))
        lat[-1] = hi
        lattices.append(lat)

    # Gather per-element coordinates from the lattices.
    gx, gy, gz = lattice_index(dims, p)
    x = lattices[0][gx] * np.ones((1, p1, p1, 1))
    y = lattices[1][gy] * np.ones((1, p1, 1, p1))
    z = lattices[2][gz] * np.ones((1, 1, p1, p1))

    delta = DEFORMATIONS[deformation](x, y, z, amplitude, extents)
    widths = np.array([extents[1][d] - extents[0][d] for d in range(3)])
    coords = np.stack([x + widths[0] * delta,
                       y + widths[1] * delta,
                       z + widths[2] * delta], axis=1)
    return BoxMesh(k, p, dims, extents, deformation, amplitude, nodes, coords)


@dataclass(frozen=True)
class GeomFactors:
    """Quadrature-point geometry: G tensor, mass diagonal, Jacobian det.

    Elements are stored in blocks of `block` elements (the last block holds
    the rest), each factor as one flat array.  In G, block [b0, b1) is one
    contiguous (6, q, q, q, b1 - b0) slab in the slot order (G11, G12, G13,
    G22, G23, G33); in mass_diag and jac_det it is one (q, q, q, b1 - b0)
    slab.  The element index is innermost, as in an operator batch, so a
    batch reads each metric slot as one contiguous block.  Exactly 8 q^3
    stored reals per element.  slab() reads the layout, through
    block_view.  Local vectors are stored in the same blocks.
    """

    q: int
    block: int
    G: np.ndarray
    mass_diag: np.ndarray
    jac_det: np.ndarray

    def __post_init__(self):
        for a in (self.G, self.mass_diag, self.jac_det):
            a.flags.writeable = False

    @property
    def E(self) -> int:
        return self.jac_det.size // self.q ** 3

    def batches(self, e0: int, e1: int, size: int | None = None):
        """The range [e0, e1) cut at block boundaries and every `size`
        elements after each cut, as a list of (b0, b1) pairs."""
        size = size or self.block
        out = []
        while e0 < e1:
            b1 = min(e1, (e0 // self.block + 1) * self.block, e0 + size)
            out.append((e0, b1))
            e0 = b1
        return out

    def slab(self, factor: np.ndarray, e0: int, e1: int) -> np.ndarray:
        """View of elements [e0, e1), inside one block, of a stored factor.

        factor is G, mass_diag, jac_det or an array of the same layout.
        The view is (6, q, q, q, e1 - e0) for G and (q, q, q, e1 - e0) for
        the one-slot factors; it is contiguous when [e0, e1) is a block.
        """
        q3 = self.q ** 3
        words = factor.size // self.E
        slots = (words // q3,) if words > q3 else ()
        return block_view(factor, self.block, e0, e1,
                          slots + (self.q,) * 3)


def compute_geometric_factors(mesh: BoxMesh, basis: Basis1D) -> GeomFactors:
    """Evaluate metric terms of the isoparametric mapping at quadrature points.

    The Jacobian dx/dr is built from J_hat/D_hat contractions of the element
    coordinates, inverted in closed form (3x3 adjugate), and combined with
    the determinant and quadrature weights into
    G_mm' = sum_l (dr_m/dx_l)(dr_m'/dx_l) * J * rho_i rho_j rho_k.
    Elements are processed one storage block at a time, one contraction
    chain per reference direction and coordinate of the block.

    Raises:
        MeshError: if any quadrature point has a non-positive or nearly
            singular Jacobian determinant (inverted element); the message
            names the global element index.
    """
    if basis.p != mesh.p:
        raise MeshError("basis order must match mesh geometry order")
    q, E = basis.q, mesh.E
    w = basis.quad.weights
    w3 = (w[:, None, None] * w[None, :, None] * w[None, None, :])[..., None]
    hx, hy, hz = mesh.element_widths
    floor = 1e-14 * abs(hx * hy * hz)

    # The geometry holds frozen views of these buffers; the loop fills
    # each block through the geometry's own slab().
    G, mass_diag, jac_det = (np.empty(n * q ** 3 * E) for n in (6, 1, 1))
    geom = GeomFactors(q, batch_size(q), G.view(), mass_diag.view(),
                       jac_det.view())
    for b0, b1 in geom.batches(0, E):
        # Coordinate-major and element-innermost, so each coordinate is a
        # contiguous (p1, p1, p1, B) batch field.  One chain per coordinate
        # keeps every GEMM the size of an apply's: a chain over all three
        # crosses OpenBLAS's threading threshold, and its threads ran setup
        # 2x slower on a busy host.
        coords = np.ascontiguousarray(
            mesh.elem_coords[b0:b1].transpose(1, 2, 3, 4, 0))
        # dxdr[m][l] = d x_l / d r_m at every quadrature point.
        dxdr = [[None] * 3 for _ in range(3)]
        for m in range(3):
            ops = [basis.J_hat] * 3
            ops[m] = basis.D_hat
            for l in range(3):
                t = contract_dir(ops[0], coords[l], 0)
                t = contract_dir(ops[1], t, 1)
                dxdr[m][l] = contract_dir(ops[2], t, 2)
        (xr, yr, zr), (xs, ys, zs), (xt, yt, zt) = dxdr
        det = (xr * (ys * zt - yt * zs)
               - xs * (yr * zt - yt * zr)
               + xt * (yr * zs - ys * zr))

        bad = det <= floor
        if np.any(bad):
            e = int(np.nonzero(bad.any(axis=(0, 1, 2)))[0][0])
            iz, iy, ix = (int(i[0]) for i in np.nonzero(bad[..., e]))
            raise MeshError(
                f"inverted element {b0 + e} at quadrature point "
                f"({iz},{iy},{ix}): jacobian determinant "
                f"{det[iz, iy, ix, e]:.3e}")

        # Closed-form adjugate rows: drdx[m][l] = d r_m / d x_l.
        inv_det = 1.0 / det
        drdx = [
            [(ys * zt - yt * zs) * inv_det, (xt * zs - xs * zt) * inv_det,
             (xs * yt - xt * ys) * inv_det],
            [(yt * zr - yr * zt) * inv_det, (xr * zt - xt * zr) * inv_det,
             (xt * yr - xr * yt) * inv_det],
            [(yr * zs - ys * zr) * inv_det, (xs * zr - xr * zs) * inv_det,
             (xr * ys - xs * yr) * inv_det],
        ]

        # The Jacobian entries are not needed past here; dropping them
        # before the G products lowers the batch's peak memory.
        del dxdr, xr, yr, zr, xs, ys, zs, xt, yt, zt, inv_det
        wj = np.multiply(w3, det, out=geom.slab(mass_diag, b0, b1))
        geom.slab(jac_det, b0, b1)[...] = det
        g = geom.slab(G, b0, b1)
        for (m, mp), slot in G_INDEX.items():
            acc = drdx[m][0] * drdx[mp][0]
            acc += drdx[m][1] * drdx[mp][1]
            acc += drdx[m][2] * drdx[mp][2]
            np.multiply(acc, wj, out=g[slot])
    return geom
