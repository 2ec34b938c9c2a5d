"""Batched 1D tensor contractions over 3D element fields, with counting.

Element fields are numpy arrays of shape (..., n3, n2, n1) where the last
three axes are the z, y, x directions of the reference cube.  A contraction
applies a small dense (or even-odd factored) matrix along one of those axes
for every element in the leading batch dimensions.

Each dense contraction is one numpy matmul with the batch axes leading and
no transposed copies: direction 0 is one tall (rows, n1) @ (n1, m) GEMM over
every x-line of the batch, direction 1 is a @ u, and direction 2 is a @ u
with the y and x axes merged.  Callers pass C-contiguous fields, so the
direction-0 reshape is a view.

Batched application is bitwise-reproducible against per-element application
only as far as the GEMM computes each output entry the same way whatever its
row count: every entry is one length-n1 dot product, but the direction-0 row
count grows with the batch, and BLAS promises nothing about that.  The
verify suite's batched-versus-per-element `array_equal` check is the guard.

Every batched loop (the operators, the geometric factors and the operator
diagonal) takes batch_size(q) elements at a time, so one field of a batch
holds about WORKING_SET_WORDS words and setup temporaries stay that small.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Words of one field batch (elements x q^3 quadrature points) that the
# default batch targets; a 2^10..2^19 scan found a broad optimum 2^13..2^16.
WORKING_SET_WORDS = 2 ** 15


def batch_size(q: int) -> int:
    """Default elements per batch: max(1, WORKING_SET_WORDS // q^3)."""
    return max(1, WORKING_SET_WORDS // q ** 3)


@dataclass
class OpCounters:
    """Instrumented operation counters for one operator.

    fma counts fused multiply-adds (2 flops each); add and mul count plain
    adds and multiplies.  The *_words fields count modeled 8-byte memory
    references: geometric factors, field reads, field writes.
    """

    fma: int = 0
    add: int = 0
    mul: int = 0
    g_read_words: int = 0
    read_words: int = 0
    write_words: int = 0

    @property
    def total_flops(self) -> int:
        return 2 * self.fma + self.add + self.mul

    def reset(self) -> None:
        self.fma = self.add = self.mul = 0
        self.g_read_words = self.read_words = self.write_words = 0

    def copy(self) -> "OpCounters":
        return OpCounters(self.fma, self.add, self.mul,
                          self.g_read_words, self.read_words, self.write_words)


def contract_dir(a: np.ndarray, u: np.ndarray, direction: int,
                 counters: OpCounters | None = None) -> np.ndarray:
    """Contract matrix a along one reference direction of u.

    Args:
        a: (m, n) operator matrix.
        u: (..., n3, n2, n1) field; the axis for `direction` must have
            length n.  direction 0 is x (last axis), 1 is y, 2 is z.  A
            field that is not C-contiguous is copied by the reshapes.
        counters: optional OpCounters; m*n FMAs are counted per point of
            the remaining axes.

    Returns:
        Field with the contracted axis resized from n to m.
    """
    m = a.shape[0]
    if direction == 0:
        v = (u.reshape(-1, u.shape[-1]) @ a.T).reshape(u.shape[:-1] + (m,))
    elif direction == 1:
        v = a @ u
    else:
        lead, (n3, n2, n1) = u.shape[:-3], u.shape[-3:]
        v = (a @ u.reshape(lead + (n3, n2 * n1))).reshape(
            lead + (m, n2, n1))
    if counters is not None:
        n = a.shape[1]
        counters.fma += m * n * (u.size // n)
    return v


def eo_contract_dir(factor, u: np.ndarray, direction: int,
                    counters: OpCounters | None = None) -> np.ndarray:
    """Contract an even-odd factored matrix along one direction of u.

    Same contract as contract_dir with the dense matrix replaced by its
    EvenOddFactor; the multiply count per point drops from q*p1 to
    |S_plus| + |S_minus| at the cost of lower-order adds for the
    decompose/recombine steps.
    """
    q, p1 = factor.source_shape
    qh, ph = q // 2, p1 // 2
    axis = u.ndim - 1 - direction
    w = np.moveaxis(u, axis, -1)
    if w.shape[-1] != p1:
        raise ValueError(f"axis length {w.shape[-1]} does not match p1={p1}")

    wrev = w[..., ::-1]
    u_plus = np.empty(w.shape[:-1] + (p1 - ph,))
    u_plus[..., :ph] = w[..., :ph] + wrev[..., :ph]
    if p1 % 2:
        u_plus[..., ph] = w[..., ph]
    u_minus = w[..., :ph] - wrev[..., :ph]

    if factor.sign > 0:
        a = u_plus @ factor.S_plus.T
    else:
        a = np.empty(w.shape[:-1] + (q - qh,))
        a[..., :qh] = u_plus @ factor.S_plus[:qh].T
        if q % 2:
            um_pad = np.zeros(w.shape[:-1] + (p1 - ph,))
            um_pad[..., :ph] = u_minus
            a[..., qh] = um_pad @ factor.S_plus[qh]
    b = u_minus @ factor.S_minus.T

    v = np.empty(w.shape[:-1] + (q,))
    v[..., :qh] = a[..., :qh] + b
    v[..., q - qh:] = (factor.sign * (a[..., :qh] - b))[..., ::-1]
    if q % 2:
        v[..., qh] = a[..., qh]

    if counters is not None:
        rest = u.size // p1
        counters.fma += (factor.S_plus.size + factor.S_minus.size) * rest
        counters.add += (2 * ph + 2 * qh) * rest
    return np.moveaxis(v, -1, axis)
