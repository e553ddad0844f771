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
routines broadcast over the leading axes and run through two int32 index
tables built once per spin beside the blocks, over the blocks' slot rows
laid end to end: `entry`, the flat index in A of each row's diagonal entry,
and `label`, the flat index of its (k, q) in the component layout.  The
trace gathers A at entry, takes one real BLAS product per block, with the
real and imaginary parts and the batch in its columns, and scatters the
result to label; the resolution gathers at label, takes the transposed
products and gathers A's entries back from the rows that lie on their
diagonal (`kept`).  A batch runs in chunks along its first axis, as wide as
the per-block route's block-0 work arrays allowed in _CHUNK_BYTES, so each
product has that route's columns and values; a trace chunk whose rows pass
the budget is gathered and multiplied in runs of blocks.
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
# a batch runs in chunks along its first axis, so a bipartite form holds a
# few chunks' work arrays, not a copy of its operand
_CHUNK_BYTES = 1 << 19


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


def _index_tables(ts: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The int32 index tables of the trace and the resolution.  Their rows
    are every block's slot rows laid end to end, block b's as [2, h, L] with
    its halves reversed (slot (0, i) holds q = 8b + i and slot (1, i)
    q = -(8b + i)), so block 0's empty q = +0 slot is the first n rows.
    entry: the flat index in A of row j's diagonal entry, (j + max(q, 0),
    j + max(-q, 0)); past a diagonal's end it wraps mod n onto entries of A
    that meet the band's zero columns.  label: the flat index of
    (k = 8b + j, q) in the [k, 2s + q] layout.  kept: for each flat index of
    A, the one row that holds that entry on its diagonal."""
    n = ts + 1
    rows = []  # q, j and b over block b's [2, h, L] rows
    for b in range(0, n, _BLOCK):
        d = b + np.arange(min(_BLOCK, n - b))[:, None]
        rows.append(np.broadcast_arrays(np.stack([d, -d]), np.arange(n - b), b))
    q, j, b = (np.concatenate([r[i].ravel() for r in rows]) for i in range(3))
    wrapped = (j + np.abs(q)) % n
    entry = np.where(q > 0, wrapped * n + j, j * n + wrapped)
    label = (b + j) * (2 * ts + 1) + ts + q  # row j holds k = b + j
    kept = np.empty(n * n, dtype=np.int32)
    on_diagonal = j < n - np.abs(q)
    on_diagonal[:n] = False  # block 0's q = +0 slot; q = 0 is its slot (1, 0)
    kept[entry[on_diagonal]] = np.flatnonzero(on_diagonal)
    return entry.astype(np.int32), label.astype(np.int32), kept


def _build_spin(ts: int) -> tuple[np.ndarray, ...]:
    """One spin's cache entry: its band blocks, then entry, label and kept."""
    return (*_build_bands(ts), *_index_tables(ts))


# integer-keyed by twice-spin; one spin's blocks are 16 sum_b h L^2 bytes
# and its tables 4 (2 sum_b 2 h L + n^2), 46.4 MB in all at 2s = 200 (0.5 MB
# of tables), so both factors of a 2s = 200 bipartite state fit
_bands = _RankCache(_build_spin, max_bytes=100_000_000)


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
    the first batch axis whose batch columns, column_bytes each, fit
    _CHUNK_BYTES, or x and out whole with a unit axis for one matrix."""
    if x.ndim == 2:
        yield x[None], out[None]
        return
    step = max(1, _CHUNK_BYTES // (column_bytes * max(1, math.prod(x.shape[1:-2]))))
    for i in range(0, x.shape[0], step):
        yield x[i : i + step], out[i : i + step]


def _flat(x: np.ndarray) -> np.ndarray:
    """[..., a, b] as [a b, batch], matrix first: a view where the axes
    merge, else a copy."""
    matrix_first = x.transpose((x.ndim - 2, x.ndim - 1, *range(x.ndim - 2)))
    return matrix_first.reshape(x.shape[-2] * x.shape[-1], -1)


def _runs(blocks, columns: int):
    """(rows, blocks) per run of consecutive blocks whose slot rows, gathered
    and multiplied over `columns` complex columns, fit _CHUNK_BYTES, one
    block at least: rows is the run's slice of the index tables' rows."""
    lo = hi = 0
    run = []
    for block in blocks:
        size = math.prod(block.shape[:3])  # its 2 h L slot rows
        if run and 32 * (hi - lo + size) * columns > _CHUNK_BYTES:
            yield slice(lo, hi), run
            lo, run = hi, []
        run.append(block)
        hi += size
    yield slice(lo, hi), run


def _products(blocks, x: np.ndarray, transpose: bool) -> np.ndarray:
    """band @ x over each block's rows of the [rows, batch] complex array x,
    in the tables' order (halves reversed), the bands transposed for the
    resolution: one real product per block, the real and imaginary parts and
    the batch in its columns."""
    out = np.empty_like(x)
    x_re, out_re = x.view(float), out.view(float)
    lo = 0
    for block in blocks:
        shape = block.shape[:3] + (x_re.shape[1],)
        hi = lo + math.prod(shape[:3])
        band = block[::-1].swapaxes(2, 3) if transpose else block[::-1]
        np.matmul(band, x_re[lo:hi].reshape(shape), out=out_re[lo:hi].reshape(shape))
        lo = hi
    return out


def operator_components(a: np.ndarray) -> np.ndarray:
    """Spherical components a^k_q = Tr(A tau^k_q) of square operators.

    Maps [..., n, n] to the [..., k, 2s + q] layout, with the spin inferred
    from n = 2s+1.  Together with operator_from_components this is an exact
    resolution of A.  An entry that is not a complex number, NaN or +-inf is
    refused by the argument rule; a 0 x 0 operator is refused too
    (DomainError).  The last bits hold only for the same batch shape: BLAS
    product values depend on the column count, so 16 random matrices traced
    together all differ from their lone calls at 2s = 18, 24 and 40, by up
    to 4.7e-16 of max |component| (none at 2s = 4).
    """
    a = _require_array(a, "a", "entry", complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DomainError(f"operator must be a square matrix, got shape {a.shape}")
    if a.shape[-1] == 0:
        raise DomainError(f"operator must be at least 1 x 1 (spin 0), got shape {a.shape}")
    _require_finite(a, "a", "entry")
    n = a.shape[-1]
    ts = n - 1
    *blocks, entry, label, _ = _bands(ts)
    size = n * (2 * ts + 1)
    out = np.empty(a.shape[:-2] + (n, 2 * ts + 1), dtype=complex)
    # the per-block route's chunks, so its products' columns and values
    for part, part_out in _chunks(a, out, 512 * n):
        flat, matrices = _flat(part), part_out.reshape(-1, size)
        matrices.fill(0.0)
        for rows, run in _runs(blocks, len(matrices)):
            # Tr(A tau) pairs tau's offset-q diagonal with A's offset -q one
            res = _products(run, flat[entry[rows]], transpose=False)
            skip = n if rows.start == 0 else 0  # block 0's q = +0 slot
            matrices[:, label[rows][skip:]] = res[skip:].T
            del res  # freed before the next rows are gathered
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
    *blocks, _, label, kept = _bands(ts)
    # the per-block route's chunks, so its products' columns and values
    for part, part_out in _chunks(comps, out, 32 * n * (n + 1) + 256 * n):
        resolved = _products(blocks, _flat(part)[label], transpose=True)[kept]
        resolved += 0.0  # -0.0 to +0.0: a zero entry of A reads +0.0
        np.multiply(resolved, 1 / n, out=part_out.reshape(-1, n * n).T)
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
