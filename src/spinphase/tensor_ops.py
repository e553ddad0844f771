"""Irreducible spherical tensor operators, stored as bands, and the one
trace/resolution route behind every operator and state expansion.

All operator matrices live in the |s m> basis with rows/columns ordered by
descending projection, m = s, s-1, ..., -s.  Every module in this package
shares that ordering.  The rank-k component-q tensor has matrix elements
sqrt(2k+1) * <s m; k q | s m'> on the single band m' = m + q (the diagonal
at offset q), so tau^0_0 is the identity and every higher rank is traceless.
Only those bands are stored, per spin, in a byte-bounded cache (100 MB).
Component arrays use the layout [..., k, 2s + q], zero where |q| > k; both
routines broadcast over the leading axes.
"""

from __future__ import annotations

import math

import numpy as np

from .angular import _ladder, _racah_cg, _RankCache, require_int, require_spin
from .errors import DomainError

__all__ = [
    "tau_matrix",
    "operator_components",
    "operator_from_components",
    "spin_operators",
]


def _build_bands(ts: int) -> tuple[np.ndarray, ...]:
    """Band matrices indexed by 2s + q; row k - |q| is the offset-q
    diagonal of tau^k_q (entry j at row j + max(-q, 0))."""
    n = ts + 1
    out = []
    for q in range(-ts, ts + 1):
        size = n - abs(q)
        band = np.zeros((size, size))
        for k in range(abs(q), n):
            scale = math.sqrt(2.0 * k + 1.0)
            for j in range(size):
                tm = ts - 2 * (j + max(q, 0))  # column holds m = s - col
                # <s m; k q | s m+q>: every label here passes the selection rules
                band[k - abs(q), j] = scale * _racah_cg(ts, 2 * k, ts, tm, 2 * q, tm + 2 * q)
        out.append(band)
    return tuple(out)


# integer-keyed by twice-spin; one spin's bands are 8 sum_q (n - |q|)^2 bytes,
# 43.3 MB at 2s = 200, so both factors of a 2s = 200 bipartite state fit
_bands = _RankCache(_build_bands, max_bytes=100_000_000)


def _band_index(n: int, offset: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the diagonal at the given offset."""
    j = np.arange(n - abs(offset))
    return j + max(-offset, 0), j + max(offset, 0)


def tau_matrix(s, k: int, q: int) -> np.ndarray:
    """Matrix of the rank-k, component-q tensor operator on the spin-s space.

    Returns a read-only (2s+1) x (2s+1) complex array (entries are real in
    this phase convention), built from the stored band on each call.
    """
    ts = require_spin(s)
    k = require_int(k, "k", 0, ts)
    q = require_int(q, "q", -k, k)
    out = np.zeros((ts + 1, ts + 1), dtype=complex)
    out[_band_index(ts + 1, q)] = _bands(ts)[ts + q][k - abs(q)]
    out.setflags(write=False)
    return out


def operator_components(a: np.ndarray) -> np.ndarray:
    """Spherical components a^k_q = Tr(A tau^k_q) of square operators.

    Maps [..., n, n] to the [..., k, 2s + q] layout, with the spin inferred
    from n = 2s+1.  Together with operator_from_components this is an exact
    resolution of A.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DomainError(f"operator must be a square matrix, got shape {a.shape}")
    ts = a.shape[-1] - 1
    out = np.zeros(a.shape[:-2] + (ts + 1, 2 * ts + 1), dtype=complex)
    for q, band in enumerate(_bands(ts), start=-ts):
        # Tr(A tau) pairs tau's offset-q diagonal with A's offset -q one
        out[..., abs(q):, ts + q] = np.diagonal(a, -q, -2, -1) @ band.T
    return out


def operator_from_components(s, comps: np.ndarray) -> np.ndarray:
    """Reassemble A = (1/(2s+1)) sum_kq tau^k_q^dag a^k_q from its components.

    Maps [..., k, 2s + q] back to [..., n, n].  The 1/(2s+1) matches the
    tensor orthonormality Tr(tau tau^dag) = 2s+1.
    """
    ts = require_spin(s)
    n = ts + 1
    comps = np.asarray(comps, dtype=complex)
    if comps.shape[-2:] != (n, 2 * ts + 1):
        raise DomainError(f"components of shape {comps.shape} do not end in ({n}, {2 * ts + 1})")
    out = np.zeros(comps.shape[:-2] + (n, n), dtype=complex)
    for q, band in enumerate(_bands(ts), start=-ts):
        rows, cols = _band_index(n, -q)
        out[..., rows, cols] = comps[..., abs(q):, ts + q] @ band
    out /= n
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
