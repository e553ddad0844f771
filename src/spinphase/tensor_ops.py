"""Irreducible spherical tensor operators, stored as bands, and the one
trace/resolution route behind every operator and state expansion.

All operator matrices live in the |s m> basis with rows/columns ordered by
descending projection, m = s, s-1, ..., -s.  Every module in this package
shares that ordering.  The rank-k component-q tensor has matrix elements
sqrt(2k+1) * <s m; k q | s m'> on the single band m' = m + q (the diagonal
at offset q), so tau^0_0 is the identity and every higher rank is traceless.
Only those bands are stored, per spin, in a byte-bounded cache (100 MB): in
blocks of eight |q|, both signs, each band zero-padded to its block's size.
Component arrays use the layout [..., k, 2s + q], zero where |q| > k.  Both
routines broadcast over the leading axes and take one real BLAS product per
block, with the real and imaginary parts and the batch in its columns: the
trace gathers the block's diagonals of A, and the resolution writes its
products into two skewed layouts of A's rows, where each diagonal is a
column, and adds those.  A batch runs in chunks along its first axis, so the
work arrays stay small.
"""

from __future__ import annotations

import math

import numpy as np

from .angular import _ladder, _racah_many, _RankCache, _require_array, _require_finite
from .angular import require_int, require_spin
from .errors import DomainError

__all__ = [
    "tau_matrix",
    "operator_components",
    "operator_from_components",
    "spin_operators",
]


_BLOCK = 8  # |q| values per band block
# bytes of one chunk's work arrays: a batch runs in chunks along its first
# axis, so a bipartite form holds a few of these, not a copy of its operand
_CHUNK_BYTES = 1 << 19
_HALF = np.arange(2)[:, None, None]  # block axis 0: q = -|q|, then q = +|q|


def _build_bands(ts: int) -> tuple[np.ndarray, ...]:
    """The bands in blocks of eight |q|: block b = |q| // 8 is [2, h, L, L]
    with L = n - 8b and h = min(8, L).  Slot (0, i) holds q = -(8b + i) and
    slot (1, i) q = 8b + i: row k - 8b, column j the entry j of tau^k_q's
    offset-q diagonal (at row j + max(-q, 0)), zero where k < |q| or
    j >= n - |q|.  Block 0's slot (1, 0) stays zero: q = 0 is slot (0, 0)."""
    n = ts + 1
    blocks = []
    # |q| ascending, each block allocated when reached: block 0 is the only
    # one held while the Racah terms of q = 0, the largest band, peak
    for q in sorted(range(-ts, ts + 1), key=abs):
        b, i = divmod(abs(q), _BLOCK)
        if b == len(blocks):
            size = n - _BLOCK * b
            blocks.append(np.zeros((2, min(_BLOCK, size), size, size)))
        k = np.arange(abs(q), n)[:, None]
        tm = ts - 2 * (np.arange(n - abs(q)) + max(q, 0))  # column holds m = s - col
        # <s m; k q | s m+q>: every label here passes the selection rules
        labels = np.broadcast_arrays(ts, 2 * k, ts, tm, 2 * q)
        slot = blocks[b][int(q > 0), i, abs(q) - _BLOCK * b :, : n - abs(q)]
        np.multiply(np.sqrt(2.0 * k + 1.0), _racah_many(*labels), out=slot)
    return tuple(blocks)


# integer-keyed by twice-spin; one spin's blocks are 16 sum_b h L^2 bytes,
# 45.9 MB at 2s = 200, so both factors of a 2s = 200 bipartite state fit
_bands = _RankCache(_build_bands, max_bytes=100_000_000)


def _diagonal(n: int, offset: int) -> slice:
    """Entries (j + max(-offset, 0), j + max(offset, 0)) of a flat n x n matrix."""
    return slice(max(-offset, 0) * n + max(offset, 0), n * (n - max(offset, 0)), n + 1)


def tau_matrix(s, k: int, q: int) -> np.ndarray:
    """Matrix of the rank-k, component-q tensor operator on the spin-s space.

    Returns a read-only (2s+1) x (2s+1) complex array (entries are real in
    this phase convention), built from the stored band on each call.
    """
    ts = require_spin(s)
    k = require_int(k, "k", 0, ts)
    q = require_int(q, "q", -k, k)
    b, i = divmod(abs(q), _BLOCK)
    band = _bands(ts)[b][int(q > 0), i, k - _BLOCK * b, : ts + 1 - abs(q)]
    out = np.zeros((ts + 1, ts + 1), dtype=complex)
    out.reshape(-1)[_diagonal(ts + 1, q)] = band
    out.setflags(write=False)
    return out


def _chunks(x: np.ndarray, out: np.ndarray, column_bytes: int):
    """(x part, out part) view pairs with a leading batch axis: slices along
    the first batch axis whose work arrays, column_bytes per batch column,
    fit _CHUNK_BYTES, or x and out whole with a unit axis for one matrix."""
    if x.ndim == 2:
        yield x[None], out[None]
        return
    step = max(1, _CHUNK_BYTES // (column_bytes * max(1, math.prod(x.shape[1:-2]))))
    for i in range(0, x.shape[0], step):
        yield x[i : i + step], out[i : i + step]


def _matrix_first(x: np.ndarray) -> np.ndarray:
    """A view of [..., a, b] as [a, b, ...]."""
    return x.transpose((x.ndim - 2, x.ndim - 1, *range(x.ndim - 2)))


def operator_components(a: np.ndarray) -> np.ndarray:
    """Spherical components a^k_q = Tr(A tau^k_q) of square operators.

    Maps [..., n, n] to the [..., k, 2s + q] layout, with the spin inferred
    from n = 2s+1.  Together with operator_from_components this is an exact
    resolution of A.  An entry that is not a complex number, NaN or +-inf is
    refused by the argument rule; a 0 x 0 operator is refused too
    (DomainError).
    """
    a = _require_array(a, "a", "entry", complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DomainError(f"operator must be a square matrix, got shape {a.shape}")
    if a.shape[-1] == 0:
        raise DomainError(f"operator must be at least 1 x 1 (spin 0), got shape {a.shape}")
    _require_finite(a, "a", "entry")
    n = a.shape[-1]
    ts = n - 1
    out = np.zeros(a.shape[:-2] + (n, 2 * ts + 1), dtype=complex)
    # Tr(A tau) pairs tau's offset-q diagonal with A's offset -q one, A[j, j + d]
    # for q = -d and A[j + d, j] for q = d, indexed j + d - n: a negative index
    # counts from the end, and past the diagonal's end the index wraps onto other
    # entries of A, which meet the band's zero columns
    j = np.arange(n)
    rows = _HALF * (j[:, None] - n) + j  # [half, |q|, j]; the columns are rows[::-1]
    blocks = _bands(ts)
    for part, part_out in _chunks(a, out, 512 * n):  # block 0's gather and product
        a_t, out_t = _matrix_first(part), _matrix_first(part_out)
        for b, block in zip(range(0, n, _BLOCK), blocks):
            h, size = block.shape[1:3]
            diag = a_t[rows[:, b : b + h, :size], rows[::-1, b : b + h, :size]]
            res = (block @ diag.view(float).reshape(2, h, size, -1)).view(complex)
            res = res.reshape(diag.shape)  # [half, |q| - b, k - b, ...]
            out_t[b:, ts + b : ts + b + h] = res[1].swapaxes(0, 1)  # q = 0 is written next
            out_t[b:, ts - b - h + 1 : ts - b + 1] = res[0, ::-1].swapaxes(0, 1)
    return out


def operator_from_components(s, comps: np.ndarray) -> np.ndarray:
    """Reassemble A = (1/(2s+1)) sum_kq tau^k_q^dag a^k_q from its components.

    Maps [..., k, 2s + q] back to [..., n, n].  The 1/(2s+1) matches the
    tensor orthonormality Tr(tau tau^dag) = 2s+1.  A component that is not a
    complex number, NaN or +-inf is refused by the argument rule.
    """
    ts = require_spin(s)
    n = ts + 1
    comps = _require_array(comps, "comps", "entry", complex)
    if comps.shape[-2:] != (n, 2 * ts + 1):
        raise DomainError(f"components of shape {comps.shape} do not end in ({n}, {2 * ts + 1})")
    _require_finite(comps, "comps", "entry")
    out = np.empty(comps.shape[:-2] + (n, n), dtype=complex)
    j = np.arange(n)
    columns = ts + (2 * _HALF - 1) * j[:, None]  # [half, |q|, 1]: the column of q
    blocks = _bands(ts)
    for part, part_out in _chunks(comps, out, 32 * n * (n + 1) + 256 * n):  # skew, gather
        c_t, shape = _matrix_first(part), (n, n) + part.shape[:-2]
        # A's rows laid end to end in rows of n + 1 turn its offset -q diagonal
        # into a column: column -q of skew[0] for q <= 0, column q of skew[1],
        # laid out from A^T, for q > 0.  The band's zero columns write zeros past
        # a diagonal's end, onto the half of A that the other skew holds
        skew = np.zeros((2, n * (n + 1)) + part.shape[:-2], dtype=complex)
        lanes = skew.view(float).reshape(2, n, n + 1, -1)
        for b, block in zip(range(0, n, _BLOCK), blocks):
            h, size = block.shape[1:3]
            comp = c_t[b + j[:size], columns[:, b : b + h]]  # [half, |q| - b, k - b, ...]
            lane = lanes[:, :size, b : b + h].swapaxes(1, 2)  # [half, |q| - b, j, ...]
            np.matmul(block.swapaxes(2, 3), comp.view(float).reshape(lane.shape), out=lane)
        upper, lower = skew[:, : n * n].reshape((2,) + shape)
        upper += lower.swapaxes(0, 1)
        np.multiply(upper, 1 / n, out=_matrix_first(part_out))
    return out


def spin_operators(s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cartesian spin matrices (Sx, Sy, Sz) from the ladder operators:

    Sx = (J+ + J-)/2, Sy = (J+ - J-)/(2i), Sz = diag(m),

    with J- = J+^T and <m+1| J+ |m> = sqrt(s(s+1) - m(m+1)).  O(n^2) at any
    spin, with no tensor bands built.  Hermitian, satisfy [Sx, Sy] = i Sz
    cyclically and Sx^2+Sy^2+Sz^2 = s(s+1) I.  For s = 0 the three matrices
    are 1x1 zeros.
    """
    ts = require_spin(s)
    j_plus = np.diag(_ladder(ts), 1).astype(complex)
    sz = np.diag(ts / 2.0 - np.arange(ts + 1)).astype(complex)
    return (j_plus + j_plus.T) / 2, (j_plus - j_plus.T) / 2j, sz
