"""Diagonally preconditioned conjugate gradient over the assembled operator.

Every matvec is mask . QQ^T . A_L: a local apply, then one gather_scatter
call, which also masks.  Dot products use the multiplicity-weighted local
form, so each is one global reduction; per iteration exactly two are counted
(p'Ap and r'z), matching the latency model of the scalability analysis.

The operator diagonal is extracted matrix-free by contracting the metric
factors with elementwise-squared operator matrices, then assembled (and so
masked); it is the only preconditioner offered.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .assembly import GatherScatter
from .mesh import block_view
from .tensors import contract_dir


class DivergenceError(RuntimeError):
    """Non-finite value or loss of positive definiteness during CG."""


def compute_diagonal(op) -> np.ndarray:
    """Per-element diagonal of the local operator (unassembled).

    For the stiffness operator diag(A^e) at node (c,b,a) is a sum of
    contractions of the metric entries with products of squared (or
    cross-multiplied) rows of J_hat/D_hat; for the mass operator it is the
    J3-squared contraction of the diagonal weights, which collapses to the
    stored mass_diag itself in the collocated case.  Both are computed one
    storage block of the geometric factors at a time, like the operator
    applies, and each block is written as it comes into the local layout,
    which has the same blocks.
    """
    basis, geom = op.basis, op.geom
    J, D = basis.J_hat, basis.D_hat
    p1 = basis.p1
    out = np.empty(geom.E * p1 ** 3)
    pj = np.ascontiguousarray((J * J).T)
    if op.system == "mass":
        def block(b0, b1):
            d = geom.slab(geom.mass_diag, b0, b1)
            if op.collocated:
                return d
            d = contract_dir(pj, d, 0)
            d = contract_dir(pj, d, 1)
            return contract_dir(pj, d, 2)
    else:
        pd = np.ascontiguousarray((D * D).T)
        px = np.ascontiguousarray((J * D).T)

        def block(b0, b1):
            g = geom.slab(geom.G, b0, b1)

            def term(mx, my, mz, slot, factor):
                t = contract_dir(mx, g[slot], 0)
                t = contract_dir(my, t, 1)
                t = contract_dir(mz, t, 2)
                t *= factor
                return t

            d = term(pd, pj, pj, 0, 1.0)      # G11 pairs with D in x
            d += term(pj, pd, pj, 3, 1.0)     # G22
            d += term(pj, pj, pd, 5, 1.0)     # G33
            d += term(px, px, pj, 1, 2.0)     # G12 cross term
            d += term(px, pj, px, 2, 2.0)     # G13
            d += term(pj, px, px, 4, 2.0)     # G23
            return d

    for b0, b1 in geom.batches(0, geom.E):
        block_view(out, geom.block, b0, b1, (p1, p1, p1))[...] = block(b0, b1)
    return out


def make_preconditioner(op, gs: GatherScatter) -> np.ndarray:
    """Inverse of the assembled, masked operator diagonal.

    Masked (Dirichlet) slots get 1.0; they never see a nonzero residual.
    """
    d = gs.gather_scatter(compute_diagonal(op), count=False)
    live = gs.mask > 0.0
    if np.any(live & (d <= 0.0)):
        raise DivergenceError("assembled diagonal not positive on free nodes")
    minv = np.ones_like(d)
    minv[live] = 1.0 / d[live]
    return minv


class SystemApplier:
    """mask . QQ^T . A_L with element work fanned out over rank partitions.

    A system apply writes A_L u into `out` and then runs one in-place
    gather_scatter on it, which sums and masks.  The applier owns no
    buffer, so a call with `out` allocates only the gather-scatter's one
    bincount output.  With an executor the local apply runs one task per
    partition of gs; instrumented operators stay serial because their
    counters are plain ints.  `phases` accumulates operator and
    gather-scatter seconds over the applier's lifetime.

    Raises:
        ValueError: if the plan's local layout (gs.block) is not the
            operator's (its geometry's block).
    """

    def __init__(self, op, gs: GatherScatter, executor=None):
        if gs.block != op.geom.block:
            raise ValueError(
                f"the plan's layout has blocks of {gs.block} elements, the "
                f"operator's of {op.geom.block}")
        self.op = op
        self.gs = gs
        self.executor = executor
        self.phases = {"operator": 0.0, "gather_scatter": 0.0}

    def apply_local(self, u: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
        """A_L u alone: no exchange, no mask, nothing counted.

        Every element of out is written; it is allocated when omitted.
        """
        if out is None:
            out = np.empty_like(u)
        parts = self.gs.partitions
        if self.executor is None or len(parts) == 1 or self.op.instrument:
            return self.op.apply_local(u, out=out)
        futures = [self.executor.submit(self.op.apply_local, u, out, part)
                   for part in parts]
        for fut in futures:
            fut.result()
        return out

    def __call__(self, u: np.ndarray, count: bool = True,
                 out: np.ndarray | None = None) -> np.ndarray:
        """mask(QQ^T(A_L u)), written into out (allocated when omitted)."""
        t0 = time.perf_counter()
        w = self.apply_local(u, out=out)
        t1 = time.perf_counter()
        w = self.gs.gather_scatter(w, count=count, out=w)
        self.phases["operator"] += t1 - t0
        self.phases["gather_scatter"] += time.perf_counter() - t1
        return w


@dataclass
class PcgRun:
    """Record of one PCG solve."""

    iterations: int
    residual_history: np.ndarray          # preconditioned norms, len iters+1
    quadratic_history: np.ndarray | None  # 0.5 x'Ax - x'b per iteration
    timings: dict
    reductions: int
    converged: bool
    b_norm: float | None                  # weighted ||b||, diagnostics only
    residual_gap: float | None            # ||r_recurred - (b - A x)||
    true_residual_norm: float | None


def pcg(apply_a, gs: GatherScatter, b, max_iters: int = 100,
        tol: float | None = None, minv: np.ndarray | None = None,
        record_energy: bool = False, diagnostics: bool = False):
    """Run diagonally preconditioned CG from x0 = 0.

    The solve allocates its vectors (x, r, z, p, w and one scratch) once
    and updates them in place, so an iteration allocates nothing
    vector-sized as long as apply_a honours `out`.  Because x0 = 0, nothing
    is copied to start: b is read as r0, z0 = minv b is written straight
    into p, and the first step writes x = alpha p + 0 (so a -0.0 product
    gives +0.0, as from a zeroed x) and r = b - alpha w.  A solve that
    ends before its first step sets x = 0 and r = b.  The last step skips
    the p update, which nothing reads, so the solve ends with its final
    r.z dot.  It also ends, converged, when p'Ap underflows to 0.0 with a
    subnormal rho.

    Args:
        apply_a: callable apply(u, count=True, out=None) that writes A u
            into out and returns it, usually a SystemApplier.  Its `phases`
            dict, if any, is reported as the increase over this solve.
        gs: gather-scatter context for dots and masking.
        b: assembled, masked right-hand side in local form.
        max_iters: fixed iteration count (benchmark protocol runs all of
            them unless the residual reaches exactly zero; pass tol for the
            early-exit verify mode).
        tol: optional relative preconditioned-residual exit threshold.
        minv: inverse diagonal; identity if omitted.
        record_energy: track 0.5 x'Ax - x'b per iteration via an extra,
            uncounted operator application (honest evaluation, not the CG
            recurrence).
        diagnostics: compute the weighted norm of b, the final true
            residual and the recurrence gap (all uncounted).

    Returns:
        (x, PcgRun).
    """
    phases = getattr(apply_a, "phases", {})
    phases_before = dict(phases)
    b = np.asarray(b)
    if minv is None:
        minv = np.ones(b.shape[-1])
    reductions_before = gs.counters.reductions

    # The set-up vector work is timed too, so the phases add up to the
    # whole solve.
    t0 = time.perf_counter()
    # Unfilled: each vector is written before it is read; tmp holds the
    # axpy products and the dot scratch.
    x, r, z, p, w, tmp = (np.empty(b.shape) for _ in range(6))
    np.multiply(minv, b, out=p)           # z0 = minv r0, used only as p0
    t1 = time.perf_counter()
    rho = gs.local_dot(b, p, work=tmp)
    timings = {"dots": time.perf_counter() - t1, "axpy": t1 - t0}
    if not np.isfinite(rho) or rho < 0.0:
        raise DivergenceError("initial preconditioned residual is not finite")
    history = [np.sqrt(rho)]
    energy = [0.0] if record_energy else None

    it = 0
    # rho == 0 means r = 0 exactly: x solves the system (a happy
    # breakdown), and a further step would divide by zero.
    converged = bool(rho == 0.0)
    while it < max_iters and not converged:
        it += 1
        w = apply_a(p, out=w)
        t0 = time.perf_counter()
        pap = gs.local_dot(p, w, work=tmp)
        timings["dots"] += time.perf_counter() - t0
        if pap == 0.0 and rho < np.finfo(np.float64).tiny:
            # Both have underflowed: r is as converged as floats allow,
            # and the step would divide by zero.  It does not count.
            it -= 1
            converged = True
            break
        if not np.isfinite(pap) or pap <= 0.0:
            raise DivergenceError(
                f"curvature p'Ap = {pap} at iteration {it}")
        alpha = rho / pap
        t0 = time.perf_counter()
        if it == 1:                       # x0 = 0, r0 = b
            np.add(np.multiply(p, alpha, out=tmp), 0.0, out=x)
            np.subtract(b, np.multiply(w, alpha, out=tmp), out=r)
        else:
            x += np.multiply(p, alpha, out=tmp)
            r -= np.multiply(w, alpha, out=tmp)
        np.multiply(minv, r, out=z)
        timings["axpy"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        rho_new = gs.local_dot(r, z, work=tmp)
        timings["dots"] += time.perf_counter() - t0
        if not np.isfinite(rho_new):
            raise DivergenceError(f"residual lost finiteness at iteration {it}")
        history.append(np.sqrt(max(rho_new, 0.0)))
        if record_energy:
            ax = apply_a(x, count=False)
            energy.append(0.5 * gs.local_dot(x, ax, count=False)
                          - gs.local_dot(x, b, count=False))
        converged = bool(rho_new == 0.0 or (tol is not None
                                            and history[-1] <= tol * history[0]))
        if converged or it == max_iters:
            break                         # the last step needs no new p
        beta = rho_new / rho
        rho = rho_new
        t0 = time.perf_counter()
        p *= beta                         # p = z + beta p
        p += z
        timings["axpy"] += time.perf_counter() - t0
    if it == 0:                           # no step ran: x = x0, r = r0
        x.fill(0.0)
        np.copyto(r, b)

    b_norm = residual_gap = true_norm = None
    if diagnostics:
        b_norm = np.sqrt(gs.local_dot(b, b, count=False))
        r_true = b - apply_a(x, count=False)
        gap = r - r_true
        residual_gap = np.sqrt(gs.local_dot(gap, gap, count=False))
        true_norm = np.sqrt(gs.local_dot(r_true, r_true, count=False))

    timings.update({k: v - phases_before.get(k, 0.0)
                    for k, v in phases.items()})
    run = PcgRun(
        iterations=it,
        residual_history=np.asarray(history),
        quadratic_history=np.asarray(energy) if record_energy else None,
        timings=timings,
        reductions=gs.counters.reductions - reductions_before,
        converged=converged,
        b_norm=b_norm,
        residual_gap=residual_gap,
        true_residual_norm=true_norm,
    )
    return x, run
