"""Global numbering, gather-scatter (direct-stiffness summation), masking.

Fields live in local form: one value per element node, with values at shared
element interfaces duplicated.  gather_scatter replaces every set of
coincident values by their sum (the QQ^T operation); the explicit Q matrix is
never formed here, only in the verification oracles.

Partitioned operation simulates distributed ranks: elements are split into
contiguous blocks, each block condenses its own contributions first, and
shared sums are completed by a pairwise exchange between adjacent partitions.
The exchange accumulates in ascending partition order, so every copy of a
shared node holds the same float; message and reduction counters feed the
benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """Map from local element nodes to unique global lattice ids."""

    local_to_global: np.ndarray  # int64, length E * p1^3
    n_global: int
    multiplicity: np.ndarray     # per global id, length n_global

    def __post_init__(self):
        self.local_to_global.flags.writeable = False
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


class GatherScatter:
    """QQ^T summation, Dirichlet masking, and weighted dot products.

    Immutable after construction except for the instrumentation counters.
    deterministic=True sums a single partition with reduceat in ascending
    global id and local index order; False uses bincount instead.
    Partitioned sums always use a fixed order.
    """

    def __init__(self, mesh: BoxMesh, numbering: GlobalNumbering,
                 bc: str = "neumann", ranks: int = 1,
                 deterministic: bool = True):
        if bc not in ("neumann", "dirichlet"):
            raise ValueError(f"unknown boundary condition {bc!r}")
        if ranks < 1 or ranks > mesh.E:
            raise ValueError("ranks must be in 1..E (one element per rank)")
        self.numbering = numbering
        self.bc = bc
        self.ranks = ranks
        self.deterministic = deterministic
        self.counters = ExchangeCounters()

        l2g = numbering.local_to_global
        self.weight = 1.0 / numbering.multiplicity[l2g]
        self.mask = self._build_mask(mesh, l2g)
        self.node_slab = mesh.p1 ** 3

        # Global accumulation plan: sort locals by global id once.
        self._order = np.argsort(l2g, kind="stable")
        sorted_gids = l2g[self._order]
        starts = np.nonzero(np.r_[True, np.diff(sorted_gids) > 0])[0]
        if starts.size != numbering.n_global:
            raise AssertionError("every global node must own a local copy")
        self._starts = starts

        self.partitions = _partition_elements(mesh.E, ranks)
        self._build_exchange_plan(l2g)

    def _build_mask(self, mesh, l2g):
        if self.bc == "neumann":
            return np.ones(l2g.size)
        p = mesh.p
        ex, ey, ez = mesh.dims
        nx, ny, nz = ex * p + 1, ey * p + 1, ez * p + 1
        gx = l2g % nx
        gy = (l2g // nx) % ny
        gz = l2g // (nx * ny)
        on_boundary = ((gx == 0) | (gx == nx - 1) |
                       (gy == 0) | (gy == ny - 1) |
                       (gz == 0) | (gz == nz - 1))
        return np.where(on_boundary, 0.0, 1.0)

    def _build_exchange_plan(self, l2g):
        # Per partition: sorted order, segment starts, unique gids, and the
        # inverse map used to scatter totals back to the local slots.
        self._part_plan = []
        slab = self.node_slab
        for (e0, e1) in self.partitions:
            lo, hi = e0 * slab, e1 * slab
            g = l2g[lo:hi]
            order = np.argsort(g, kind="stable")
            sg = g[order]
            starts = np.nonzero(np.r_[True, np.diff(sg) > 0])[0]
            unique = sg[starts]
            inv = np.searchsorted(unique, g)
            self._part_plan.append((lo, hi, order, starts, unique, inv))

        # For every global id touched by more than one partition, derive
        # (a) the pairwise message graph and (b) per-partition add lists,
        # ordered by ascending source partition.
        self._recv_plan = [[] for _ in self.partitions]
        self._shared_rows = [np.empty(0, dtype=np.int64)
                             for _ in self.partitions]
        self._adjacent_pairs = 0
        self._merge_plan = [[] for _ in self.partitions]
        if self.ranks == 1:
            return
        uniques = [plan[4] for plan in self._part_plan]
        vals, cnt = np.unique(np.concatenate(uniques), return_counts=True)
        shared = vals[cnt >= 2]
        part_shared = [u[np.isin(u, shared)] for u in uniques]
        for a in range(self.ranks):
            self._shared_rows[a] = np.searchsorted(uniques[a], part_shared[a])
        for a in range(self.ranks):
            for b in range(a + 1, self.ranks):
                common = np.intersect1d(part_shared[a], part_shared[b],
                                        assume_unique=True)
                if not common.size:
                    continue
                self._adjacent_pairs += 1
                rows_a = np.searchsorted(uniques[a], common)
                rows_b = np.searchsorted(uniques[b], common)
                self._recv_plan[a].append((b, rows_a, rows_b))
                self._recv_plan[b].append((a, rows_b, rows_a))
        for a in range(self.ranks):
            own = (a, self._shared_rows[a], self._shared_rows[a])
            self._merge_plan[a] = sorted(self._recv_plan[a] + [own],
                                         key=lambda t: t[0])

    @property
    def n_local(self) -> int:
        return self.numbering.n_local

    def _sum_per_gid(self, u: np.ndarray) -> np.ndarray:
        if self.deterministic:
            return np.add.reduceat(u[self._order], self._starts)
        return np.bincount(self.numbering.local_to_global, weights=u,
                           minlength=self.numbering.n_global)

    def gather_scatter(self, u: np.ndarray, count: bool = True) -> np.ndarray:
        """Return QQ^T u: coincident local values replaced by their sum.

        Accepts shape (n_local,) or (ncomp, n_local).  With more than one
        partition the sum is completed by the two-phase exchange and the
        message counter advances by the number of adjacent partition pairs.
        """
        u = np.asarray(u)
        if u.ndim == 2:
            rows = [self.gather_scatter(c, count=(count and i == 0))
                    for i, c in enumerate(u)]
            return np.stack(rows)
        if u.shape != (self.n_local,):
            raise ValueError(f"expected local vector of length {self.n_local}")

        if self.ranks == 1:
            sums = self._sum_per_gid(u)
            return sums[self.numbering.local_to_global]

        # Phase 1: per-partition condense.
        partials = [np.add.reduceat(u[lo:hi][order], starts)
                    for (lo, hi, order, starts, _, _) in self._part_plan]

        # Phase 2: pairwise exchange; shared totals accumulate in ascending
        # partition order so every copy of a node computes the same float.
        totals = [part.copy() for part in partials]
        for a in range(self.ranks):
            rows = self._shared_rows[a]
            if rows.size:
                totals[a][rows] = 0.0
            for (src, rows_dst, rows_src) in self._merge_plan[a]:
                totals[a][rows_dst] += partials[src][rows_src]
        if count:
            self.counters.messages += self._adjacent_pairs

        out = np.empty_like(u)
        for (lo, hi, _, _, _, inv), total in zip(self._part_plan, totals):
            out[lo:hi] = total[inv]
        return out

    def apply_mask(self, u: np.ndarray) -> np.ndarray:
        """Zero Dirichlet boundary values (identity under Neumann)."""
        return u * self.mask

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
        """
        u = np.asarray(u)
        v = np.asarray(v)
        if u.shape != v.shape or u.shape[-1] != self.n_local:
            raise ValueError("local_dot operands must be local vectors")
        if count:
            self.counters.reductions += 1
        slab = self.node_slab
        total = 0.0
        for (e0, e1) in self.partitions:
            lo, hi = e0 * slab, e1 * slab
            w = self.weight[lo:hi]
            total += float(np.sum(u[..., lo:hi] * v[..., lo:hi] * w))
        return total


def build_gather_scatter(mesh: BoxMesh, numbering: GlobalNumbering | None = None,
                         bc: str = "neumann", ranks: int = 1,
                         deterministic: bool = True) -> GatherScatter:
    if numbering is None:
        numbering = build_numbering(mesh)
    return GatherScatter(mesh, numbering, bc=bc, ranks=ranks,
                         deterministic=deterministic)
