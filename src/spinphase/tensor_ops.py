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

from .angular import _racah_cg, _RankCache, require_spin
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
        band.setflags(write=False)
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
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise DomainError(f"rank k must be an integer, got {k!r}")
    if not isinstance(q, (int, np.integer)):
        raise DomainError(f"component q must be an integer, got {q!r}")
    if k < 0 or k > ts:
        raise DomainError(f"rank k={k} outside 0..2s={ts}")
    if abs(q) > k:
        raise DomainError(f"component q={q} outside -k..k for k={k}")
    out = np.zeros((ts + 1, ts + 1), dtype=complex)
    out[_band_index(ts + 1, int(q))] = _bands(ts)[ts + q][k - abs(q)]
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
    return out / n


def spin_operators(s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cartesian spin matrices (Sx, Sy, Sz) built from the rank-1 tensors.

    Sx = sqrt(s(s+1)/6) (tau^1_{-1} - tau^1_{1}),
    Sy = i sqrt(s(s+1)/6) (tau^1_{-1} + tau^1_{1}),
    Sz = sqrt(s(s+1)/3) tau^1_0.

    Hermitian, satisfy [Sx, Sy] = i Sz cyclically and Sx^2+Sy^2+Sz^2 =
    s(s+1) I.  For s = 0 the three matrices are 1x1 zeros.
    """
    ts = require_spin(s)
    if ts == 0:
        zero = np.zeros((1, 1), dtype=complex)
        return zero, zero.copy(), zero.copy()
    casimir = (ts / 2.0) * (ts / 2.0 + 1.0)
    t_m1 = tau_matrix(s, 1, -1)
    t_p1 = tau_matrix(s, 1, 1)
    t_0 = tau_matrix(s, 1, 0)
    sx = math.sqrt(casimir / 6.0) * (t_m1 - t_p1)
    sy = 1j * math.sqrt(casimir / 6.0) * (t_m1 + t_p1)
    sz = math.sqrt(casimir / 3.0) * t_0
    return sx, sy, sz
