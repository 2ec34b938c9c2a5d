"""Diagonally preconditioned conjugate gradient over the assembled operator.

Every matvec is the composition mask . QQ^T . A_L; dot products use the
multiplicity-weighted local form, so each one is a single global reduction.
Per iteration exactly two reductions are counted (p'Ap and r'z), matching the
latency model used in the scalability analysis.

The operator diagonal is extracted matrix-free by contracting the metric
factors with elementwise-squared operator matrices, then assembled and
masked; it is the only preconditioner offered.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .assembly import GatherScatter
from .tensors import contract_dir


class DivergenceError(RuntimeError):
    """Non-finite value or loss of positive definiteness during CG."""


def compute_diagonal(op) -> np.ndarray:
    """Per-element diagonal of the local operator (unassembled).

    For the stiffness operator diag(A^e) at node (c,b,a) is a sum of
    contractions of the metric entries with products of squared (or
    cross-multiplied) rows of J_hat/D_hat; for the mass operator it is the
    J3-squared contraction of the diagonal weights, which collapses to the
    stored mass_diag itself in the collocated case.
    """
    basis = op.basis
    J, D = basis.J_hat, basis.D_hat
    if op.system == "mass":
        if op.collocated:
            return op.beta * op.geom.mass_diag.reshape(-1).copy()
        pj = (J * J).T
        d = op.beta * op.geom.mass_diag
        d = contract_dir(pj, d, 0)
        d = contract_dir(pj, d, 1)
        d = contract_dir(pj, d, 2)
        return d.reshape(-1)

    pj = np.ascontiguousarray((J * J).T)
    pd = np.ascontiguousarray((D * D).T)
    px = np.ascontiguousarray((J * D).T)
    g = op.geom.G

    def term(mx, my, mz, slot, factor):
        t = contract_dir(mx, g[:, slot], 0)
        t = contract_dir(my, t, 1)
        t = contract_dir(mz, t, 2)
        return factor * t

    d = term(pd, pj, pj, 0, 1.0)      # G11 pairs with D in x
    d += term(pj, pd, pj, 3, 1.0)     # G22
    d += term(pj, pj, pd, 5, 1.0)     # G33
    d += term(px, px, pj, 1, 2.0)     # G12 cross term
    d += term(px, pj, px, 2, 2.0)     # G13
    d += term(pj, px, px, 4, 2.0)     # G23
    return d.reshape(-1)


def make_preconditioner(op, gs: GatherScatter) -> np.ndarray:
    """Inverse of the assembled, masked operator diagonal.

    Masked (Dirichlet) slots get 1.0; they never see a nonzero residual.
    """
    d = gs.gather_scatter(compute_diagonal(op), count=False)
    d = gs.apply_mask(d)
    live = gs.mask > 0.0
    if np.any(live & (d <= 0.0)):
        raise DivergenceError("assembled diagonal not positive on free nodes")
    minv = np.ones_like(d)
    minv[live] = 1.0 / d[live]
    return minv


class SystemApplier:
    """mask . QQ^T . A_L with element work fanned out over rank partitions.

    With an executor the local apply runs one task per partition of gs;
    instrumented operators stay serial because their counters are plain
    ints.  `phases` accumulates operator and gather-scatter seconds over the
    applier's lifetime.
    """

    def __init__(self, op, gs: GatherScatter, executor=None):
        self.op = op
        self.gs = gs
        self.executor = executor
        self.phases = {"operator": 0.0, "gather_scatter": 0.0}

    def apply_local(self, u: np.ndarray) -> np.ndarray:
        """A_L u alone: no exchange, no mask, nothing counted."""
        out = np.zeros_like(u)
        parts = self.gs.partitions
        if self.executor is None or len(parts) == 1 or self.op.instrument:
            return self.op.apply_local(u, out=out)
        futures = [self.executor.submit(self.op.apply_local, u, out, part)
                   for part in parts]
        for fut in futures:
            fut.result()
        return out

    def __call__(self, u: np.ndarray, count: bool = True) -> np.ndarray:
        t0 = time.perf_counter()
        w = self.apply_local(u)
        t1 = time.perf_counter()
        w = self.gs.gather_scatter(w, count=count)
        w = self.gs.apply_mask(w)
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
    b_norm: float
    residual_gap: float | None            # ||r_recurred - (b - A x)||
    true_residual_norm: float | None


def pcg(apply_a, gs: GatherScatter, b, max_iters: int = 100,
        tol: float | None = None, minv: np.ndarray | None = None,
        record_energy: bool = False, diagnostics: bool = False):
    """Run diagonally preconditioned CG from x0 = 0.

    Args:
        apply_a: callable apply(u, count=True), usually a SystemApplier.
            Its `phases` dict, if any, is reported as the increase over
            this solve.
        gs: gather-scatter context for dots and masking.
        b: assembled, masked right-hand side in local form.
        max_iters: fixed iteration count (benchmark protocol runs all of
            them; pass tol for the early-exit verify mode).
        tol: optional relative preconditioned-residual exit threshold.
        minv: inverse diagonal; identity if omitted.
        record_energy: track 0.5 x'Ax - x'b per iteration via an extra,
            uncounted operator application (honest evaluation, not the CG
            recurrence).
        diagnostics: compute the final true residual and recurrence gap.

    Returns:
        (x, PcgRun).
    """
    phases = getattr(apply_a, "phases", {})
    phases_before = dict(phases)
    b = np.asarray(b)
    if minv is None:
        minv = np.ones(b.shape[-1])
    timings = {"dots": 0.0, "axpy": 0.0}
    reductions_before = gs.counters.reductions

    x = np.zeros_like(b)
    r = b.copy()
    z = minv * r
    rho = gs.local_dot(r, z)
    if not np.isfinite(rho) or rho < 0.0:
        raise DivergenceError("initial preconditioned residual is not finite")
    history = [np.sqrt(rho)]
    energy = [0.0] if record_energy else None
    p = z.copy()

    it = 0
    converged = False
    for it in range(1, max_iters + 1):
        w = apply_a(p)
        t0 = time.perf_counter()
        pap = gs.local_dot(p, w)
        timings["dots"] += time.perf_counter() - t0
        if not np.isfinite(pap) or pap <= 0.0:
            raise DivergenceError(
                f"curvature p'Ap = {pap} at iteration {it}")
        alpha = rho / pap
        t0 = time.perf_counter()
        x += alpha * p
        r -= alpha * w
        z = minv * r
        timings["axpy"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        rho_new = gs.local_dot(r, z)
        timings["dots"] += time.perf_counter() - t0
        if not np.isfinite(rho_new):
            raise DivergenceError(f"residual lost finiteness at iteration {it}")
        history.append(np.sqrt(max(rho_new, 0.0)))
        if record_energy:
            ax = apply_a(x, count=False)
            energy.append(0.5 * gs.local_dot(x, ax, count=False)
                          - gs.local_dot(x, b, count=False))
        beta = rho_new / rho
        rho = rho_new
        t0 = time.perf_counter()
        p = z + beta * p
        timings["axpy"] += time.perf_counter() - t0
        if tol is not None and history[-1] <= tol * history[0]:
            converged = True
            break

    residual_gap = true_norm = None
    b_norm = np.sqrt(gs.local_dot(b, b, count=False))
    if diagnostics:
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
