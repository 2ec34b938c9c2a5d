"""Batched 1D tensor contractions over 3D element fields, with counting.

Element fields are numpy arrays of shape (n3, n2, n1, *batch): the first
three axes are the z, y, x directions of the reference cube and the batch
axes (one per element of a batch, usually) come last, so the element index
is innermost.  A contraction applies a small dense (or even-odd factored)
matrix along one of the three direction axes for every batch entry.

With the element innermost, every dense contraction is a @ X with a long
right-hand side, one numpy matmul and no transposed copies: direction 2 (z)
is one (m, n3) @ (n3, n2 n1 B) GEMM, direction 1 (y) n3 stacked
(m, n2) @ (n2, n1 B) products and direction 0 (x) n3 n2 stacked
(m, n1) @ (n1, B) products.  Callers pass C-contiguous fields, so the
reshapes are views; an operator's whole-block batch is such a field, read
in place from the local vector (see mesh.to_blocks).  A field of one
element is the exception: its x products would have one column, which
numpy sends to gemv, and gemv rounds differently from the GEMM that
batches of many elements run.  That field takes x as the tall
(n3 n2, n1) @ (n1, m) GEMM, which rounds as the batched products do.

Batched application is bitwise-reproducible against per-element application
only as far as the GEMM computes each output entry the same way whatever the
width of its right-hand side: every entry is one length-n dot product, but
BLAS promises nothing about that.  The verify suite's batched-versus-per-
element `array_equal` check is the guard.

The geometric factors and the local vectors are stored in blocks of
batch_size(q) elements by default, a power of two capped at E (see mesh),
so one field of a block holds at most WORKING_SET_WORDS words, and so
does each field of the fixed arenas (aligned_fields) that setup and the
operators carve.  Every batched loop (the operators, their diagonal and
the geometric factors) takes whole blocks as its batches; the blocked
strategy's geometry is stored in blocks of 4 or 8 elements instead.

Every array the timed loop streams through starts on a 64-byte cache line
(aligned_empty): the geometric factors, the right-hand side, the
preconditioner, the solve's vectors and each operator's workspace fields.
numpy and glibc place an array 16 bytes into a line, so each 64-byte
vector load or store of a GEMM or a three-array ufunc would split two
lines.  Alignment changes only which loads run, not the bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Words of one field batch (elements x q^3 quadrature points) that the
# default batch targets; a 2^10..2^19 scan found a broad optimum 2^13..2^16.
WORKING_SET_WORDS = 2 ** 15


def batch_size(q: int) -> int:
    """Default elements per batch: the largest power of two that is at most
    max(1, WORKING_SET_WORDS // q^3), so that it divides E = 2^k or covers
    it."""
    return 1 << (max(1, WORKING_SET_WORDS // q ** 3).bit_length() - 1)


# Bytes of a cache line, and float64 words of one.
LINE_BYTES = 64
LINE_WORDS = LINE_BYTES // 8


def aligned_empty(shape) -> np.ndarray:
    """An unfilled C-contiguous float64 array whose data starts on a line.

    Args:
        shape: int or tuple, as for np.empty.

    Returns:
        A view into a byte buffer one line longer than the array, which it
        keeps alive.
    """
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    nbytes = 8 * math.prod(shape)
    raw = np.empty(nbytes + LINE_BYTES, dtype=np.uint8)
    start = -raw.ctypes.data % LINE_BYTES
    return raw[start:start + nbytes].view(np.float64).reshape(shape)


def aligned_fields(count: int, block: int, n: int, *shapes) -> list:
    """Carve `count` batch fields of `block` elements out of one arena.

    Each field holds n^3 block words, rounded up to whole lines so that
    every field starts on one.  Returns, for each shape of the three
    direction axes, the list of all fields viewed as shape + (block,).
    """
    words = n ** 3 * block
    arena = aligned_empty((count, -(-words // LINE_WORDS) * LINE_WORDS))
    return [[f[:math.prod(s) * block].reshape(s + (block,)) for f in arena]
            for s in shapes]


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


def contract_dir(a: np.ndarray, u: np.ndarray, direction: int,
                 counters: OpCounters | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Contract matrix a along one reference direction of u.

    Args:
        a: (m, n) operator matrix.
        u: (n3, n2, n1, *batch) field; the axis for `direction` must have
            length n.  direction 0 is x (axis 2), 1 is y (axis 1), 2 is z
            (axis 0).  A field that is not C-contiguous is copied by the
            reshapes.
        counters: optional OpCounters; m*n FMAs are counted per point of
            the remaining axes.
        out: optional C-contiguous array of the result's shape; the
            product is written into it, with the same bits.

    Returns:
        Field with the contracted axis resized from n to m (out, when
        given).
    """
    m = a.shape[0]
    n3, n2, n1 = u.shape[:3]
    shape = list(u.shape)
    shape[2 - direction] = m
    # The product's operands and the shape of its result.
    if direction == 2:
        lhs, rhs, res = a, u.reshape(n3, -1), (m, -1)
    elif direction == 1:
        lhs, rhs, res = a, u.reshape(n3, n2, -1), (n3, m, -1)
    elif u.size == n3 * n2 * n1:
        # One element: see the module docstring.
        lhs, rhs, res = u.reshape(-1, n1), a.T, (-1, m)
    else:
        lhs, rhs, res = a, u.reshape(n3 * n2, n1, -1), (n3 * n2, m, -1)
    if out is None:
        v = np.matmul(lhs, rhs).reshape(shape)
    else:
        v = out
        np.matmul(lhs, rhs, out=out.reshape(res))
    if counters is not None:
        n = a.shape[1]
        counters.fma += m * n * (u.size // n)
    return v


def eo_contract_dir(factor, u: np.ndarray, direction: int,
                    counters: OpCounters | None = None,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Contract an even-odd factored matrix along one direction of u.

    Same contract as contract_dir with the dense matrix replaced by its
    EvenOddFactor (out may be any array of the result's shape).
    u is folded into its even and odd halves along the direction, each
    half is one contract_dir call, and the two results are recombined.
    The multiply count per point drops from q*p1 to |S_plus| + |S_minus|
    at the cost of lower-order adds for the fold and the recombine.
    """
    q, p1 = factor.source_shape
    qh, ph = q // 2, p1 // 2
    axis = 2 - direction
    if u.shape[axis] != p1:
        raise ValueError(f"axis length {u.shape[axis]} does not match p1={p1}")

    def cut(a, start, stop, step=1):
        return a[(slice(None),) * axis + (slice(start, stop, step),)]

    head, tail = cut(u, 0, ph), cut(u, p1 - 1, p1 - 1 - ph, -1)
    u_plus, u_minus = head + tail, head - tail
    if p1 % 2:
        u_plus = np.concatenate([u_plus, cut(u, ph, ph + 1)], axis=axis)

    # The middle output row of an odd q is symmetric for sign +1 and rides
    # on the even half; for sign -1 it is antisymmetric, and its nonzero
    # half (the spare S_plus row) joins S_minus on the odd half.
    if factor.sign > 0:
        plus, minus = factor.S_plus, factor.S_minus
    else:
        plus = factor.S_plus[:qh]
        minus = np.concatenate([factor.S_minus, factor.S_plus[qh:, :ph]])
    # numpy sends a one-row product to gemv, whose rounding varies with the
    # batch width and the BLAS threads; a zero second row keeps it a GEMM.
    plus, minus = (np.concatenate([s, np.zeros_like(s)]) if len(s) == 1
                   else s for s in (plus, minus))
    a = contract_dir(plus, u_plus, direction)
    b = contract_dir(minus, u_minus, direction)
    even, odd = cut(a, 0, qh), cut(b, 0, qh)

    shape = list(u.shape)
    shape[axis] = q
    v = np.empty(shape) if out is None else out
    np.add(even, odd, out=cut(v, 0, qh))
    lo, hi = (even, odd) if factor.sign > 0 else (odd, even)
    np.subtract(lo, hi, out=cut(v, q - 1, q - 1 - qh, -1))
    if q % 2:
        cut(v, qh, qh + 1)[...] = cut(a if factor.sign > 0 else b, qh, qh + 1)

    if counters is not None:
        rest = u.size // p1
        counters.fma += factor.fma_count * rest
        counters.add += (2 * ph + 2 * qh) * rest
    return v
