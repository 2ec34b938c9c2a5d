"""Global numbering, gather-scatter (direct-stiffness summation), masking.

Fields live in local form: one value per element node, with values at shared
element interfaces duplicated, in the blocked layout of mesh.to_blocks.  The
numbering records its block, and a plan and the operators it serves must
agree on it; block 1 is the element-major order.  gather_scatter replaces
every set of coincident values by their sum (the QQ^T operation); the
explicit Q matrix is never formed here, only in the verification oracles.
One slot index per local copy serves both the sum and the read-back; it
points Dirichlet boundary locals at a zero slot, so gather_scatter also
masks.

Partitioned operation simulates distributed ranks: elements are split into
contiguous ranges, and every local takes its element's partition.  One
precomputed plan serves every rank count.  Each partition first condenses
its own contributions, in local order, and the shared sums are then
completed in ascending partition order, so every copy of a shared node
holds the same float.  Only shared values are exchanged and added: the
lowest partition holding a global id condenses straight into that id's
sum, so a single rank, which shares nothing, is one bincount.  A weighted
dot is one global reduction, summed in local order whatever the rank
count.  Message and reduction counters feed the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import BoxMesh, lattice_index, storage_block, to_blocks


@dataclass
class ExchangeCounters:
    messages: int = 0
    reductions: int = 0


@dataclass(frozen=True)
class GlobalNumbering:
    """Map from local element nodes to unique global lattice ids.

    local_to_global is a read-only view, in the blocked layout of `block`
    elements.  The writeable array behind it is kept as _index for the
    gather-scatter plans of this module, which index with it (np.take
    copies a read-only index on every call); a one-rank Neumann plan sums
    and reads back through it without a copy.
    """

    local_to_global: np.ndarray  # int64, length E * p1^3
    n_global: int
    multiplicity: np.ndarray     # per global id, length n_global
    block: int = 1               # elements per block of the local layout

    def __post_init__(self):
        view = self.local_to_global.view()
        view.flags.writeable = False
        object.__setattr__(self, "_index", self.local_to_global)
        object.__setattr__(self, "local_to_global", view)
        self.multiplicity.flags.writeable = False

    @property
    def n_local(self) -> int:
        return self.local_to_global.size


def build_numbering(mesh: BoxMesh, block: int = 1) -> GlobalNumbering:
    """Assign lexicographic global lattice ids to every local node.

    Coincident physical nodes (shared faces/edges/vertices) get the same id;
    multiplicity counts how many elements share each global node.  The
    locals are in the blocked layout of mesh.storage_block(block, E)
    elements (mesh.to_blocks); an operator's layout is its geometry's
    block.

    Raises:
        MeshError: if block neither divides E nor holds all of it.
    """
    gx, gy, gz = lattice_index(mesh.dims, mesh.p)
    nx, ny = (mesh.p * d + 1 for d in mesh.dims[:2])
    gid = gx + nx * (gy + ny * gz)
    block = storage_block(block, mesh.E)
    l2g = to_blocks(gid, block).astype(np.int64, copy=False)
    mult = np.bincount(l2g, minlength=mesh.n_true)
    return GlobalNumbering(l2g, mesh.n_true, mult, block)


def _boundary_ids(mesh: BoxMesh) -> np.ndarray:
    """Per global id, True on the box boundary: lattice index 0 or p * dims
    in some direction.  The ids are lexicographic, so the lattice in C
    order, (z, y, x), lists them in order."""
    ends = []
    for d in reversed(mesh.dims):
        end = np.zeros(mesh.p * d + 1, dtype=bool)
        end[[0, -1]] = True
        ends.append(end)
    ez, ey, ex = ends
    return (ez[:, None, None] | ey[:, None] | ex).reshape(-1)


def _distinct(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a; plain np.unique imports numpy.ma, about
    1 MiB of resident memory."""
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _shared_copies(l2g, n_global: int, bounds: np.ndarray, block: int,
                   p1: int):
    """The local copies held above their global id's owner partition.

    Every local takes its element's partition, in the blocked layout; an
    id's owner is its lowest partition.  Sorting the distinct (id,
    partition) holders of the copies and of their owners puts every shared
    id's partitions next to each other in ascending order; a node has at
    most eight copies, so the loop over offsets d is short.

    Returns:
        (local indices of the copies, their partitions, number of
        partition pairs that share an id).
    """
    ranks = bounds.size - 1
    none = np.empty(0, dtype=np.int64)
    if ranks == 1:
        return none, none, 0
    epart = np.repeat(np.arange(ranks, dtype=np.int32), np.diff(bounds))
    part = to_blocks(np.broadcast_to(epart[:, None, None, None],
                                     (epart.size, p1, p1, p1)), block)
    owner = np.full(n_global, ranks, dtype=np.int32)
    np.minimum.at(owner, l2g, part)
    copies = np.flatnonzero(part != owner[l2g])
    part = part[copies].astype(np.int64)
    gid = l2g[copies]
    held = _distinct(np.concatenate((gid * ranks + part,
                                     gid * ranks + owner[gid])))
    gid, held_part = np.divmod(held, ranks)
    pairs = [none]
    for d in range(1, gid.size):
        same = gid[d:] == gid[:-d]
        if not same.any():
            break
        pairs.append(held_part[:-d][same] * ranks + held_part[d:][same])
    return copies, part, _distinct(np.concatenate(pairs)).size


class GatherScatter:
    """QQ^T summation, Dirichlet masking, and weighted dot products.

    Immutable after construction except for the instrumentation counters,
    so one plan can serve several solves and threads.  Its locals are in
    the numbering's layout, `block` elements per block.  It keeps one slot
    index per local copy, for every rank count: the owner copy of a global
    id (its lowest partition's) points at slot gid; a copy held by a
    higher partition points at an extra slot after the zero slot n_global,
    one per (partition, global id) pair, in that order; and a Dirichlet
    boundary copy points at the zero slot.  gather_scatter sums the locals
    into their slots (one bincount), zeroes the zero slot, adds the extra
    slots into their owners and copies the totals back (over the shared
    copies only, and not at all when there are none), and reads every copy
    back through the same index.  local_dot needs no plan: it sums each
    component's weighted products in local order, the same at every rank
    count.

    The index is the only stored form of the Dirichlet boundary; `mask` is
    derived from it.  At one rank under Neumann conditions it is the
    numbering's writeable map itself, not a copy.  Either way it is
    writeable, so no gather_scatter call copies the index.  The plan holds
    no scratch: gather_scatter and apply_mask take an optional `out` array
    from the caller (a solve makes it once, see krylov.pcg); without one
    they allocate for that call, with the same bits.  local_dot is one
    read-only pass per component and writes no vector.
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
        self.block = numbering.block
        self.n_local = numbering.n_local
        self._vector = (self.n_local,)
        self.counters = ExchangeCounters()

        l2g = numbering._index
        n_global = numbering.n_global
        # Contiguous lexicographic blocks, sizes differing by at most one.
        bounds = np.linspace(0, mesh.E, ranks + 1).astype(int)
        self.partitions = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
        copies, part, self._adjacent_pairs = _shared_copies(
            l2g, n_global, bounds, self.block, mesh.p1)
        # Per global id, then gathered: the same quotients, fewer divides.
        self.weight = (1.0 / numbering.multiplicity)[l2g]

        # Owners keep slot gid, Dirichlet copies read the zero slot, and the
        # rest get an extra slot per (partition, id) pair, in that order.
        if bc == "dirichlet":
            boundary = _boundary_ids(mesh)
            slot = np.where(boundary, n_global, np.arange(n_global))[l2g]
            live = ~boundary[l2g[copies]]
            copies, part = copies[live], part[live]
        else:
            slot = l2g.copy() if copies.size else l2g
        key = part * n_global + l2g[copies]
        extra = _distinct(key)
        self._extra_gid = extra % n_global
        self._n_sums = n_global + 1 + extra.size
        slot[copies] = n_global + 1 + np.searchsorted(extra, key)
        self._slot = slot

    @property
    def mask(self) -> np.ndarray:
        """Per-local float mask: 0.0 on the Dirichlet boundary, else 1.0."""
        return np.where(self._slot == self.numbering.n_global, 0.0, 1.0)

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
        if u.shape != self._vector:
            if u.ndim != 2:
                raise ValueError(
                    f"expected local vector of length {self.n_local}")
            for i, c in enumerate(u):
                self.gather_scatter(c, count=(count and i == 0), out=out[i])
            return out
        n_global = self.numbering.n_global
        sums = np.bincount(self._slot, weights=u, minlength=self._n_sums)
        sums[n_global] = 0.0            # what Dirichlet copies read back
        if self._extra_gid.size:
            totals, extra = sums[:n_global], sums[n_global + 1:]
            # Unbuffered, in index order; slicing off the target keeps
            # numpy from copying the overlapping operands.
            np.add.at(totals, self._extra_gid, extra)
            # mode="clip" writes straight into out; "raise" buffers it.
            totals.take(self._extra_gid, out=extra, mode="clip")
        if count:
            self.counters.messages += self._adjacent_pairs
        return sums.take(self._slot, out=out, mode="clip")

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

    def local_dot(self, u: np.ndarray, v: np.ndarray,
                  count: bool = True) -> float:
        """Multiplicity-weighted dot product of continuous local fields.

        Equals the assembled global dot product u^T v.  Counts as one
        global reduction.  2D inputs (ncomp, n_local) sum over components.
        Each component is one read-only pass that writes no vector: an
        einsum of u, v and weight in local order.  The component sums are
        added in order to 0.0, so a -0.0 sum reads +0.0, and the result
        does not depend on the rank count or on the block.  A call checks
        only the operands' shapes.
        """
        u = np.asarray(u)
        v = np.asarray(v)
        if u.shape != v.shape or u.shape[-1] != self.n_local:
            raise ValueError("local_dot operands must be local vectors")
        if count:
            self.counters.reductions += 1
        if u.ndim == 1:
            return float(0.0 + np.einsum("i,i,i->", u, v, self.weight))
        total = 0.0
        for ur, vr in zip(u.reshape(-1, self.n_local),
                          v.reshape(-1, self.n_local)):
            total += np.einsum("i,i,i->", ur, vr, self.weight)
        return float(total)


def build_gather_scatter(mesh: BoxMesh, numbering: GlobalNumbering | None = None,
                         bc: str = "neumann", ranks: int = 1,
                         deterministic: bool = True,
                         block: int = 1) -> GatherScatter:
    """GatherScatter for mesh; deterministic is accepted and has no effect.

    Without a numbering one is built in the layout of `block` elements;
    the default, 1, is the element-major order, and an operator's layout
    is its geometry's block (see bakeoff.build_problem).  Every rank count
    already sums in one fixed order, so repeated calls are bitwise equal.
    """
    if numbering is None:
        numbering = build_numbering(mesh, block)
    return GatherScatter(mesh, numbering, bc=bc, ranks=ranks)
