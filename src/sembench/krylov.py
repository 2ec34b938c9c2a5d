"""Diagonally preconditioned conjugate gradient over the assembled operator.

Every matvec is mask . QQ^T . A_L: a serial local apply, then one
gather_scatter call, which also masks.  Dot products use the
multiplicity-weighted local form, so each is one global reduction and one
read-only pass that writes no vector; per iteration exactly two are
counted (p'Ap and r'z), matching the latency model of the scalability
analysis.

The operator's own diagonal (op.diagonal(), computed matrix-free block by
block) is assembled, and so masked, into the only preconditioner offered.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .assembly import GatherScatter
from .tensors import LINE_WORDS, aligned_empty

# The smallest normal float64, for pcg's underflow test.
TINY = sys.float_info.min


class DivergenceError(RuntimeError):
    """Non-finite value or loss of positive definiteness during CG."""


def make_preconditioner(op, gs: GatherScatter) -> np.ndarray:
    """Inverse of the assembled, masked operator diagonal.

    Masked (Dirichlet) slots get 1.0; they never see a nonzero residual.
    The operator's diagonal, which starts on a 64-byte line, is assembled
    and inverted in place.
    """
    minv = op.diagonal()
    gs.gather_scatter(minv, count=False, out=minv)
    live = gs.mask > 0.0
    if np.any(live & (minv <= 0.0)):
        raise DivergenceError("assembled diagonal not positive on free nodes")
    np.divide(1.0, minv, out=minv, where=live)
    minv[~live] = 1.0
    return minv


class SystemApplier:
    """mask . QQ^T . A_L, applied serially.

    A system apply writes A_L u into `out` with op.apply_local and then
    runs one in-place gather_scatter on it, which sums and masks.  The
    applier owns no buffer and the operator applies in its own workspace,
    so a call with `out` allocates only the gather-scatter's one bincount
    output; like its operator, an applier runs one call at a time.  The
    simulated ranks set the plan's partitions, sum order and message
    count; they run no threads.
    `phases` accumulates operator and gather-scatter seconds over the
    applier's lifetime.

    Raises:
        ValueError: if the plan's local layout (gs.block) is not the
            operator's (its geometry's block).
    """

    def __init__(self, op, gs: GatherScatter):
        if gs.block != op.geom.block:
            raise ValueError(
                f"the plan's layout has blocks of {gs.block} elements, the "
                f"operator's of {op.geom.block}")
        self.op = op
        self.gs = gs
        self.phases = {"operator": 0.0, "gather_scatter": 0.0}

    def __call__(self, u: np.ndarray, count: bool = True,
                 out: np.ndarray | None = None) -> np.ndarray:
        """mask(QQ^T(A_L u)), written into out (allocated when omitted)."""
        t0 = time.perf_counter()
        w = self.op.apply_local(u, out)
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

    The solve allocates its vectors (x, r, z, p, w and one scratch) once,
    as the rows of one aligned array whose rows start on 64-byte lines,
    and updates them in place, so an iteration allocates nothing
    vector-sized as long as apply_a honours `out`.  The returned x is a
    view of that array, which it keeps alive.  Because x0 = 0, nothing
    is copied to start: b is read as r0, z0 = minv b is written straight
    into p, and the first step writes x = alpha p + 0 (so a -0.0 product
    gives +0.0, as from a zeroed x) and r = b - alpha w in place, with no
    pass through the scratch.  A solve that ends before its first step
    sets x = 0 and r = b.  The last step skips the p update, which nothing
    reads, so the solve ends with its final r.z dot.  It also ends,
    converged, when p'Ap underflows to 0.0 with a subnormal rho.

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
    # products of the later steps' x and r updates.
    row = -(-b.size // LINE_WORDS) * LINE_WORDS
    x, r, z, p, w, tmp = (v[:b.size].reshape(b.shape)
                          for v in aligned_empty((6, row)))
    np.multiply(minv, b, out=p)           # z0 = minv r0, used only as p0
    t1 = time.perf_counter()
    rho = gs.local_dot(b, p)
    timings = {"dots": time.perf_counter() - t1, "axpy": t1 - t0}
    if not math.isfinite(rho) or rho < 0.0:
        raise DivergenceError("initial preconditioned residual is not finite")
    history = [math.sqrt(rho)]
    energy = [0.0] if record_energy else None

    it = 0
    # rho == 0 means r = 0 exactly: x solves the system (a happy
    # breakdown), and a further step would divide by zero.
    converged = bool(rho == 0.0)
    while it < max_iters and not converged:
        it += 1
        w = apply_a(p, out=w)
        t0 = time.perf_counter()
        pap = gs.local_dot(p, w)
        timings["dots"] += time.perf_counter() - t0
        if pap == 0.0 and rho < TINY:
            # Both have underflowed: r is as converged as floats allow,
            # and the step would divide by zero.  It does not count.
            it -= 1
            converged = True
            break
        if not math.isfinite(pap) or pap <= 0.0:
            raise DivergenceError(
                f"curvature p'Ap = {pap} at iteration {it}")
        alpha = rho / pap
        t0 = time.perf_counter()
        if it == 1:                       # x0 = 0, r0 = b
            np.add(np.multiply(p, alpha, out=x), 0.0, out=x)
            np.subtract(b, np.multiply(w, alpha, out=r), out=r)
        else:
            x += np.multiply(p, alpha, out=tmp)
            r -= np.multiply(w, alpha, out=tmp)
        np.multiply(minv, r, out=z)
        timings["axpy"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        rho_new = gs.local_dot(r, z)
        timings["dots"] += time.perf_counter() - t0
        if not math.isfinite(rho_new):
            raise DivergenceError(f"residual lost finiteness at iteration {it}")
        history.append(math.sqrt(max(rho_new, 0.0)))
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
        b_norm = math.sqrt(gs.local_dot(b, b, count=False))
        r_true = b - apply_a(x, count=False)
        gap = r - r_true
        residual_gap = math.sqrt(gs.local_dot(gap, gap, count=False))
        true_norm = math.sqrt(gs.local_dot(r_true, r_true, count=False))

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
