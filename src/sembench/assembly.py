"""Global numbering, gather-scatter (direct-stiffness summation), masking.

Fields live in local form: one value per element node, with values at shared
element interfaces duplicated.  gather_scatter replaces every set of
coincident values by their sum (the QQ^T operation); the explicit Q matrix is
never formed here, only in the verification oracles.  Its read-back points
Dirichlet boundary locals at a zero slot, so gather_scatter also masks.

Partitioned operation simulates distributed ranks: elements are split into
contiguous blocks.  One precomputed plan serves every rank count.  Each block
first condenses its own contributions, left to right in local order, and the
shared sums are then completed left to right in ascending partition order,
so every copy of a shared node holds the same float.  Only shared values are
exchanged and added: the lowest partition holding a global id condenses
straight into that id's sum, so a single rank, which shares nothing, is one
bincount and an add over no values.  Message and reduction counters feed
the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import BoxMesh


@dataclass
class ExchangeCounters:
    messages: int = 0
    reductions: int = 0

    def reset(self):
        self.messages = 0
        self.reductions = 0


@dataclass(frozen=True)
class GlobalNumbering:
    """Map from local element nodes to unique global lattice ids.

    local_to_global is a read-only view.  The writeable array behind it is
    kept as _index for the gather-scatter plans of this module, which index
    with it (np.take copies a read-only index on every call); a Neumann
    plan reads back through it, so no plan copies the map.
    """

    local_to_global: np.ndarray  # int64, length E * p1^3
    n_global: int
    multiplicity: np.ndarray     # per global id, length n_global

    def __post_init__(self):
        view = self.local_to_global.view()
        view.flags.writeable = False
        object.__setattr__(self, "_index", self.local_to_global)
        object.__setattr__(self, "local_to_global", view)
        self.multiplicity.flags.writeable = False

    @property
    def n_local(self) -> int:
        return self.local_to_global.size


def build_numbering(mesh: BoxMesh) -> GlobalNumbering:
    """Assign lexicographic global lattice ids to every local node.

    Coincident physical nodes (shared faces/edges/vertices) get the same id;
    multiplicity counts how many elements share each global node.
    """
    p, p1 = mesh.p, mesh.p1
    ex, ey, ez = mesh.dims
    nx, ny = ex * p + 1, ey * p + 1
    nz = ez * p + 1

    e_idx = np.arange(mesh.E)
    exs = e_idx % ex
    eys = (e_idx // ex) % ey
    ezs = e_idx // (ex * ey)
    node_i = np.arange(p1)

    gx = exs[:, None] * p + node_i[None, :]     # (E, p1)
    gy = eys[:, None] * p + node_i[None, :]
    gz = ezs[:, None] * p + node_i[None, :]
    # Local layout [iz, iy, ix] in C order matches the field storage.
    gid = (gx[:, None, None, :]
           + nx * (gy[:, None, :, None]
                   + ny * gz[:, :, None, None]))
    l2g = gid.reshape(mesh.E * p1 ** 3).astype(np.int64)
    n_global = nx * ny * nz
    mult = np.bincount(l2g, minlength=n_global)
    return GlobalNumbering(l2g, n_global, mult)


def _partition_elements(E: int, ranks: int):
    # Contiguous lexicographic blocks, sizes differing by at most one.
    bounds = np.linspace(0, E, ranks + 1).astype(int)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(ranks)]


def _share(slot_part: np.ndarray, slot_gid: np.ndarray, ranks: int):
    """Partition pairs that share a global id, and each slot's owner flag.

    Sorting the slots by global id (stably, so partitions stay ascending)
    puts every shared id's copies next to each other, lowest partition
    first: that first copy is the owner.  A node has at most eight copies,
    so the loop over offsets d is short.  Distinct pairs are counted by
    sorting: plain np.unique imports numpy.ma, about 1 MiB of resident
    memory.

    Returns:
        (number of sharing partition pairs, bool owner flag per slot).
    """
    order = np.argsort(slot_gid, kind="stable")
    gid, part = slot_gid[order], slot_part[order]
    owner = np.empty(gid.size, dtype=bool)
    owner[order] = np.concatenate(([True], gid[1:] != gid[:-1]))
    pairs = [np.empty(0, dtype=np.int64)]
    for d in range(1, gid.size):
        same = gid[d:] == gid[:-d]
        if not same.any():
            break
        pairs.append(part[:-d][same] * ranks + part[d:][same])
    keys = np.sort(np.concatenate(pairs))
    n_pairs = int(keys.size > 0) + int(np.count_nonzero(keys[1:] != keys[:-1]))
    return n_pairs, owner


class GatherScatter:
    """QQ^T summation, Dirichlet masking, and weighted dot products.

    Immutable after construction except for the instrumentation counters,
    so one plan can serve several solves and threads.  One plan serves
    every rank count, with one slot per (partition, global id) pair.  The
    lowest partition's copy of an id owns slot gid itself; every copy held
    by a higher partition gets an extra slot after the zero slot n_global,
    in (partition, global id) order.  gather_scatter sums each partition's
    locals into its slots left to right in local order (one bincount),
    adds the extra slots into their owners in ascending partition order
    (np.add.at over the shared copies only), and reads the totals back to
    every local copy.  A single partition is the same code with no extra
    slot.

    The read-back index, the only stored form of the Dirichlet boundary, is
    the local-to-global map with boundary locals pointed at n_global, a slot
    that sums to zero; `mask` is derived from it.  Under Neumann conditions
    it is the numbering's writeable map itself, not a copy.  Either way it
    is writeable, so no gather_scatter call copies the index.  The plan
    holds no scratch: gather_scatter and apply_mask take an optional `out`
    array and local_dot a `work` array from the caller (a solve makes them
    once, see krylov.pcg); without one they allocate for that call, with
    the same bits.
    """

    def __init__(self, mesh: BoxMesh, numbering: GlobalNumbering,
                 bc: str = "neumann", ranks: int = 1):
        if bc not in ("neumann", "dirichlet"):
            raise ValueError(f"unknown boundary condition {bc!r}")
        if ranks < 1 or ranks > mesh.E:
            raise ValueError("ranks must be in 1..E (one element per rank)")
        self.numbering = numbering
        self.bc = bc
        self.ranks = ranks
        self.counters = ExchangeCounters()

        l2g = numbering._index
        n_global = numbering.n_global
        self._read_back = l2g if bc == "neumann" else np.where(
            self._on_boundary(mesh, l2g), n_global, l2g)
        self.weight = 1.0 / numbering.multiplicity[l2g]
        self.node_slab = mesh.p1 ** 3
        self.partitions = _partition_elements(mesh.E, ranks)

        sizes = [(e1 - e0) * self.node_slab for (e0, e1) in self.partitions]
        part = np.repeat(np.arange(ranks, dtype=np.int64), sizes)
        slot_key, slot = np.unique(part * n_global + l2g,
                                   return_inverse=True)
        slot_gid = slot_key % n_global
        self._adjacent_pairs, owner = _share(slot_key // n_global, slot_gid,
                                             ranks)
        # Owners sum into slot gid; the rest, already in (partition, gid)
        # order, follow the zero slot.
        extra = ~owner
        self._extra_gid = slot_gid[extra]
        slot_gid[extra] = n_global + 1 + np.arange(self._extra_gid.size)
        self._slot = slot_gid[slot]

    @staticmethod
    def _on_boundary(mesh, l2g):
        p = mesh.p
        ex, ey, ez = mesh.dims
        nx, ny, nz = ex * p + 1, ey * p + 1, ez * p + 1
        gx = l2g % nx
        gy = (l2g // nx) % ny
        gz = l2g // (nx * ny)
        return ((gx == 0) | (gx == nx - 1) |
                (gy == 0) | (gy == ny - 1) |
                (gz == 0) | (gz == nz - 1))

    @property
    def n_local(self) -> int:
        return self.numbering.n_local

    @property
    def mask(self) -> np.ndarray:
        """Per-local float mask: 0.0 on the Dirichlet boundary, else 1.0."""
        return np.where(self._read_back == self.numbering.n_global, 0.0, 1.0)

    def gather_scatter(self, u: np.ndarray, count: bool = True,
                       out: np.ndarray | None = None) -> np.ndarray:
        """Return mask . QQ^T u: coincident local values replaced by their sum.

        Accepts shape (n_local,) or (ncomp, n_local).  Each partition
        condenses its locals, the partials of a shared id are added in
        ascending partition order, and the message counter advances by the
        number of partition pairs that share a node.  Dirichlet boundary
        locals read +0.0; under Neumann conditions the mask is all ones.

        Args:
            out: optional array of u's shape for the result; it may be u
                itself.  Allocated when omitted.
        """
        u = np.asarray(u)
        if out is None:
            out = np.empty_like(u)
        elif out.shape != u.shape:
            raise ValueError("out must have the shape of u")
        if u.ndim == 2:
            for i, c in enumerate(u):
                self.gather_scatter(c, count=(count and i == 0), out=out[i])
            return out
        if u.shape != (self.n_local,):
            raise ValueError(f"expected local vector of length {self.n_local}")
        n_global = self.numbering.n_global
        sums = np.bincount(self._slot, weights=u,
                           minlength=n_global + 1 + self._extra_gid.size)
        # Unbuffered, in index order; slicing off the target keeps numpy
        # from copying the overlapping operands.
        np.add.at(sums[:n_global], self._extra_gid, sums[n_global + 1:])
        if count:
            self.counters.messages += self._adjacent_pairs
        # mode="clip" writes straight into out; "raise" buffers it.
        return np.take(sums, self._read_back, out=out, mode="clip")

    def apply_mask(self, u: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
        """Zero Dirichlet boundary values (identity under Neumann).

        For inputs: gather_scatter masks its own output, with +0.0 as
        here.  out may be u itself; it is allocated when omitted.
        """
        out = np.empty_like(u) if out is None else out
        np.copyto(out, u)
        out[..., self.mask == 0.0] = 0.0
        return out

    def global_mask(self) -> np.ndarray:
        """Per-global-id mask (0 on the Dirichlet boundary)."""
        g = np.ones(self.numbering.n_global)
        g[self.numbering.local_to_global[self.mask == 0.0]] = 0.0
        return g

    def local_dot(self, u: np.ndarray, v: np.ndarray, count: bool = True,
                  work: np.ndarray | None = None) -> float:
        """Multiplicity-weighted dot product of continuous local fields.

        Equals the assembled global dot product u^T v.  Counts as one
        global reduction.  2D inputs (ncomp, n_local) sum over components.
        Each partition's weighted products u * v * weight, all components
        of it, are summed as one contiguous block, and the partition sums
        are added in ascending order.  The products go into `work`, an
        array of u's shape, when it is given.
        """
        u = np.asarray(u)
        v = np.asarray(v)
        if u.shape != v.shape or u.shape[-1] != self.n_local:
            raise ValueError("local_dot operands must be local vectors")
        if count:
            self.counters.reductions += 1
        u2 = u.reshape(-1, self.n_local)
        v2 = v.reshape(-1, self.n_local)
        ncomp = u2.shape[0]
        flat = np.empty(u.size) if work is None else work.reshape(-1)
        slab = self.node_slab
        total = 0.0
        for (e0, e1) in self.partitions:
            lo, hi = e0 * slab, e1 * slab
            block = flat[ncomp * lo:ncomp * hi].reshape(ncomp, hi - lo)
            np.multiply(u2[:, lo:hi], v2[:, lo:hi], out=block)
            block *= self.weight[lo:hi]
            total += block.sum()
        return float(total)


def build_gather_scatter(mesh: BoxMesh, numbering: GlobalNumbering | None = None,
                         bc: str = "neumann", ranks: int = 1,
                         deterministic: bool = True) -> GatherScatter:
    """GatherScatter for mesh; deterministic is accepted and has no effect.

    Every rank count already sums in one fixed order, so repeated calls are
    bitwise equal.
    """
    if numbering is None:
        numbering = build_numbering(mesh)
    return GatherScatter(mesh, numbering, bc=bc, ranks=ranks)
