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
batch_size(q) elements (4 or 8 for blocked), element index innermost, the
layout of the operator batches that read them (see GeomFactors).  Every
block is computed in one aligned arena of GEOM_FIELDS batch fields, carved
once per call, so setup holds the stored factors plus that arena.

E is a power of two and so is every block, so a block either divides E or
is capped at E (storage_block); every block is full.  A blocked array is
then a plain C-ordered (..., E/B, n, n, n, B) array and block i is [i].
Local vectors (one value per element node) are its flattening, (..., E n^3);
a block of 1 is the element-major order.  to_blocks and from_blocks convert
per-element (..., E, n, n, n) arrays to and from that layout, and
GeomFactors.element copies out one element's factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import MAX_P, Basis1D
from .quadrature import gauss_lobatto_legendre
from .tensors import aligned_empty, aligned_fields, batch_size, contract_dir

MAX_K = 21

# Stored reals per quadrature point: six G entries, mass weight, Jacobian.
FACTORS_PER_POINT = 8

# G entry order: (11, 12, 13, 22, 23, 33).
G_INDEX = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 1): 3, (1, 2): 4, (2, 2): 5}

# Batch fields of compute_geometric_factors' arena (see there).
GEOM_FIELDS = 26


class MeshError(ValueError):
    pass


def _deform_none(x, y, z, amplitude):
    return np.zeros_like(x)


def _deform_sine(x, y, z, amplitude):
    sx, sy, sz = (np.sin(np.pi * c) for c in (x, y, z))
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
    """A deformed tensor-product hex mesh on the unit box [0, 1]^3.

    elem_coords has shape (E, 3, p1, p1, p1): component c of the coordinate
    of node (iz, iy, ix) of element e is elem_coords[e, c, iz, iy, ix].
    Elements are ordered x-fastest: e = ex + Ex*(ey + Ey*ez).
    """

    k: int
    p: int
    dims: tuple
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


def storage_block(block: int, E: int) -> int:
    """The stored block of `block` elements on a mesh of E: min(block, E).

    Raises:
        MeshError: unless block divides E or is at least E, so every
            stored block is full.
    """
    if block < 1 or (block < E and E % block):
        raise MeshError(f"a block of {block} elements neither divides "
                        f"E = {E} nor holds all of them")
    return min(block, E)


def to_blocks(a: np.ndarray, block: int) -> np.ndarray:
    """Per-element node array (..., E, n, n, n) in the blocked layout.

    Returns a new C-ordered (..., E n^3) array, the flattening of
    (..., E/B, n, n, n, B) with B = storage_block(block, E): element index
    innermost within each block.
    """
    lead, node, E = a.shape[:-4], a.shape[-3:], a.shape[-4]
    block = storage_block(block, E)
    return np.moveaxis(a.reshape(lead + (E // block, block) + node),
                       -4, -1).copy().reshape(lead + (-1,))


def from_blocks(u: np.ndarray, block: int, n: int) -> np.ndarray:
    """The inverse of to_blocks: (..., E n^3) to a new (..., E, n, n, n)."""
    lead, node = u.shape[:-1], (n, n, n)
    E = u.shape[-1] // n ** 3
    block = storage_block(block, E)
    return np.moveaxis(u.reshape(lead + (E // block,) + node + (block,)),
                       -1, -4).copy().reshape(lead + (E,) + node)


def build_box_mesh(k: int, p: int, deformation: str = "sine",
                   amplitude: float = 0.05) -> BoxMesh:
    """Build the E = 2^k mesh of the unit box, of geometry order p.

    Args:
        k: log2 of the element count, 0 <= k <= 21.
        p: geometry (and field) order, 1 <= p <= MAX_P.
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
    for ed in dims:
        lat = np.empty(ed * p + 1)
        for e in range(ed):
            lat[e * p:(e + 1) * p] = (e + 0.5 * (nodes[:p] + 1.0)) / ed
        lat[-1] = 1.0
        lattices.append(lat)

    # Gather per-element coordinates, deformed before they are broadcast.
    gx, gy, gz = lattice_index(dims, p)
    x, y, z = lattices[0][gx], lattices[1][gy], lattices[2][gz]
    delta = DEFORMATIONS[deformation](x, y, z, amplitude)
    delta = np.broadcast_to(delta, (len(x), p1, p1, p1))
    coords = np.empty((len(x), 3, p1, p1, p1))
    for j, c in enumerate((x, y, z)):
        np.add(c, delta, out=coords[:, j])
    return BoxMesh(k, p, dims, deformation, amplitude, nodes, coords)


@dataclass(frozen=True)
class GeomFactors:
    """Quadrature-point geometry: G tensor, mass diagonal, Jacobian det.

    Elements are stored in E/B blocks of B = `block` elements each, element
    index innermost: G is a C-ordered (E/B, 6, q, q, q, B) array in the
    slot order (G11, G12, G13, G22, G23, G33), and mass_diag and jac_det
    are (E/B, q, q, q, B).  So block i of a factor is [i], and a batch
    reads each metric slot as one contiguous (q, q, q, B) block.  Exactly
    8 q^3 stored reals per element.  q, block and E are read from the
    shapes.  Local vectors are stored in the same blocks.
    compute_geometric_factors starts each array on a 64-byte line.
    """

    G: np.ndarray
    mass_diag: np.ndarray
    jac_det: np.ndarray

    def __post_init__(self):
        for a in (self.G, self.mass_diag, self.jac_det):
            a.flags.writeable = False

    @property
    def q(self) -> int:
        return self.jac_det.shape[1]

    @property
    def block(self) -> int:
        return self.jac_det.shape[-1]

    @property
    def E(self) -> int:
        return self.jac_det.shape[0] * self.block

    def element(self, e: int) -> "GeomFactors":
        """A one-element geometry holding a copy of element e's factors."""
        i, j = divmod(e, self.block)
        return GeomFactors(*(a[i, ..., j:j + 1][None].copy()
                             for a in (self.G, self.mass_diag, self.jac_det)))


def compute_geometric_factors(mesh: BoxMesh, basis: Basis1D,
                              block: int | None = None) -> GeomFactors:
    """Evaluate metric terms of the isoparametric mapping at quadrature points.

    The Jacobian dx/dr is built from J_hat/D_hat contractions of the element
    coordinates, inverted in closed form (3x3 adjugate), and combined with
    the determinant and quadrature weights into
    G_mm' = sum_l (dr_m/dx_l)(dr_m'/dx_l) * J * rho_i rho_j rho_k.
    Elements are stored and processed in blocks of
    storage_block(block, E) elements (block defaults to batch_size(q)),
    one contraction chain per reference direction and coordinate of a
    block.  Every block runs in one aligned arena of GEOM_FIELDS batch
    fields, and its results are written straight into the outputs.

    Raises:
        MeshError: if any quadrature point has a non-positive or nearly
            singular Jacobian determinant (inverted element); the message
            names the global element index.  Also if block neither
            divides E nor holds all of it.
    """
    if basis.p != mesh.p:
        raise MeshError("basis order must match mesh geometry order")
    q, n, E = basis.q, basis.p1, mesh.E
    J, D = basis.J_hat, basis.D_hat
    w = basis.quad.weights
    w3 = (w[:, None, None] * w[None, :, None] * w[None, None, :])[..., None]
    floor = 1e-14 / E

    block = storage_block(block or batch_size(q), E)
    G = aligned_empty((E // block, 6) + (q,) * 3 + (block,))
    mass_diag, jac_det = (aligned_empty((E // block,) + (q,) * 3 + (block,))
                          for _ in range(2))
    # Every block reuses one arena of GEOM_FIELDS batch fields: the three
    # coordinates (0-2), four chain partials (3-6), the nine Jacobian
    # entries jac[m][l] = d x_l / d r_m (7-15), their nine cofactors
    # (16-24) and one scratch.
    nnn, nnq, nqq, qqq = aligned_fields(GEOM_FIELDS, block, max(q, n),
                                        (n, n, n), (n, n, q), (n, q, q),
                                        (q, q, q))
    jac, cof = ([qqq[j:j + 3], qqq[j + 3:j + 6], qqq[j + 6:j + 9]]
                for j in (7, 16))
    tmp = qqq[25]
    for i in range(E // block):
        b0 = i * block
        # Coordinate-major and element-innermost, so each coordinate is a
        # contiguous (p1, p1, p1, B) batch field.  One chain per coordinate
        # and direction keeps every GEMM the size of an apply's: a chain
        # over all three crosses OpenBLAS's threading threshold, and its
        # threads ran setup 2x slower on a busy host.  The chains share
        # their x and y partials: d/dr is D_x J_y J_z, d/ds J_x D_y J_z
        # and d/dt J_x J_y D_z.
        for l, c in enumerate(nnn[:3]):
            np.copyto(c, mesh.elem_coords[b0:b0 + block, l]
                      .transpose(1, 2, 3, 0))
            dx = contract_dir(D, c, 0, out=nnq[3])
            jx = contract_dir(J, c, 0, out=nnq[4])
            dr = contract_dir(J, dx, 1, out=nqq[5])
            ds = contract_dir(D, jx, 1, out=nqq[3])
            dt = contract_dir(J, jx, 1, out=nqq[6])
            contract_dir(J, dr, 2, out=jac[0][l])
            contract_dir(J, ds, 2, out=jac[1][l])
            contract_dir(D, dt, 2, out=jac[2][l])

        # Closed-form adjugate: d r_m / d x_l = cof[m][l] / det.
        for m in range(3):
            m1, m2 = (m + 1) % 3, (m + 2) % 3
            for l in range(3):
                l1, l2 = (l + 1) % 3, (l + 2) % 3
                f = np.multiply(jac[m1][l1], jac[m2][l2], out=cof[m][l])
                f -= np.multiply(jac[m1][l2], jac[m2][l1], out=tmp)
        # Expanded along the first column: xr c00 + xs c10 + xt c20.
        det = np.multiply(jac[0][0], cof[0][0], out=jac_det[i])
        det += np.multiply(jac[1][0], cof[1][0], out=tmp)
        det += np.multiply(jac[2][0], cof[2][0], out=tmp)

        bad = det <= floor
        if np.any(bad):
            e = int(np.nonzero(bad.any(axis=(0, 1, 2)))[0][0])
            iz, iy, ix = (int(i[0]) for i in np.nonzero(bad[..., e]))
            raise MeshError(
                f"inverted element {b0 + e} at quadrature point "
                f"({iz},{iy},{ix}): jacobian determinant "
                f"{det[iz, iy, ix, e]:.3e}")

        inv_det = np.divide(1.0, det, out=tmp)
        for row in cof:
            for f in row:
                f *= inv_det
        wj = np.multiply(w3, det, out=mass_diag[i])
        for (m, mp), slot in G_INDEX.items():
            acc = np.multiply(cof[m][0], cof[mp][0], out=G[i, slot])
            acc += np.multiply(cof[m][1], cof[mp][1], out=tmp)
            acc += np.multiply(cof[m][2], cof[mp][2], out=tmp)
            acc *= wj
    return GeomFactors(G, mass_diag, jac_det)
