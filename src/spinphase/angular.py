"""Angular-momentum special functions with exact half-integer bookkeeping.

Phase choices follow the Condon-Shortley convention throughout.  Spherical
harmonics are the orthonormal physics-convention ones, so that
Y*_{kq} = (-1)^q Y_{k,-q}.  Wigner rotations use the active z-y-z Euler
decomposition

    D^k_{q'q}(alpha, beta, gamma) = exp(-i q' alpha) d^k_{q'q}(beta) exp(-i q gamma),

which makes R tau^k_q R^dag = sum_{q'} D^k_{q'q} tau^k_{q'} for irreducible
tensor operators.  Spins and projections are carried as twice-value integers
so half-integer arithmetic stays exact.

Every public integer, spin, projection and angle argument of the package
passes one rule here (require_int, require_spin, require_projection,
require_angle): a refusal is a DomainError naming the argument and its value.

Each quantity has one route: Clebsch-Gordan coefficients the uncached Racah
sum, d(beta) the per-rank J_y eigenbasis, and harmonics one real, signed
table T[k, k_max + q, point] = Y_kq(theta, 0) that holds the q < 0 rule once
(_norm_legendre_table): spherical_harmonic reads one entry, the ring-wise
synthesis and quadrature.project build it on distinct colatitudes.  All
functions here are pure; the factorial table is immutable after import, and
the eigenbases and Legendre recurrence coefficients live in lock-guarded,
byte-bounded _RankCaches (as tensor_ops' bands do): safe to call concurrently.
"""

from __future__ import annotations

import math
import numbers
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "HalfInteger",
    "log_factorial",
    "clebsch_gordan",
    "legendre_sequence",
    "spherical_harmonic",
    "wigner_d",
    "wigner_D",
    "wigner_D_matrix",
]

_TABLE_MAX = 500
_SYNTHESIS_BLOCK_BYTES = 16_000_000  # _synthesize's two gathers, per block of points


def _build_log_factorials(n_max):
    # ln of the exact integer factorial; accurate to ~1 ulp of the result.
    logs = [0.0] * (n_max + 1)
    acc = 1
    for n in range(1, n_max + 1):
        acc *= n
        logs[n] = math.log(acc)
    return tuple(logs)


_LOG_FACTORIAL = _build_log_factorials(_TABLE_MAX)


def log_factorial(n: int) -> float:
    """Return ln(n!) for a nonnegative integer n.

    Table-backed (exact-integer logarithms) for n <= 500, lgamma beyond.
    """
    return _log_factorial(require_int(n, "n", 0))


def _log_factorial(n: int) -> float:
    return _LOG_FACTORIAL[n] if n <= _TABLE_MAX else math.lgamma(n + 1.0)


@dataclass(frozen=True, order=True)
class HalfInteger:
    """Exact spin or projection value, stored as twice its value."""

    twice_value: int

    def __post_init__(self):
        object.__setattr__(self, "twice_value", require_int(self.twice_value, "twice_value"))

    @classmethod
    def from_value(cls, value) -> "HalfInteger":
        """Coerce a number (or HalfInteger) whose double is an integer."""
        return cls(_twice(value, "value"))

    @property
    def value(self) -> float:
        return self.twice_value / 2.0

    @property
    def is_integer(self) -> bool:
        return self.twice_value % 2 == 0

    def __float__(self) -> float:
        return self.value

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.twice_value // 2)
        return f"{self.twice_value}/2"


def require_int(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """`value` as an int: a Python or numpy integer, never a bool, in lo..hi
    (None leaves that side open)."""
    ok = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (ok and (lo is None or lo <= value) and (hi is None or value <= hi)):
        span = "" if lo is None else f" >= {lo}" if hi is None else f" in {lo}..{hi}"
        raise DomainError(f"{name}={value!r}: expected an integer{span}")
    return int(value)


def _twice(value, name: str) -> int:
    """Twice a half-integer: an integer (never a bool), a HalfInteger, or a
    real number within 1e-9 of a half-integer."""
    if isinstance(value, HalfInteger):
        return value.twice_value
    if isinstance(value, (int, np.integer)):
        return 2 * require_int(value, name)
    doubled = 2.0 * float(value) if isinstance(value, numbers.Real) else math.nan
    if not math.isfinite(doubled) or abs(doubled - round(doubled)) > 1e-9:
        raise DomainError(f"{name}={value!r}: expected a half-integer")
    return round(doubled)


def require_spin(s, name: str = "s", lo: int = 0) -> int:
    """Validate a spin value, at least lo / 2, and return its twice-value integer."""
    ts = _twice(s, name)
    if ts < lo:
        raise DomainError(f"{name}={s!r}: expected a spin >= {lo / 2:g}")
    return ts


def require_projection(ts: int, m, name: str = "m") -> int:
    """Validate a projection against spin twice-value ts; return twice-value."""
    tm = _twice(m, name)
    if (tm - ts) % 2 != 0:
        raise DomainError(
            f"{name}={m!r}: wrong parity for spin {ts}/2 (both must be integers "
            "or both half-odd-integers)"
        )
    if abs(tm) > ts:
        raise DomainError(f"{name}={m!r}: exceeds spin {ts}/2 in magnitude")
    return tm


def require_angle(value, name: str) -> np.ndarray:
    """A finite angle in radians, scalar or array, as a float array (0-d for
    a scalar); a refusal names the first non-finite entry."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"{name}={value!r}: expected a finite angle") from None
    bad = np.flatnonzero(~np.isfinite(a))
    if bad.size:
        where = "" if a.ndim == 0 else f"{list(map(int, np.unravel_index(bad[0], a.shape)))}"
        raise DomainError(f"{name}{where}={float(a.flat[bad[0]])!r}: expected a finite angle")
    return a


def _euler_angles(alpha, beta, gamma) -> tuple[float, ...]:
    """Three scalar z-y-z Euler angles as floats, each through require_angle."""
    angles = zip((alpha, beta, gamma), ("alpha", "beta", "gamma"))
    return tuple(float(require_angle(v, name)) for v, name in angles)


def clebsch_gordan(s1, s2, s, m1, m2, m) -> float:
    """Clebsch-Gordan coefficient <s1 m1; s2 m2 | s m> (Condon-Shortley, real).

    Evaluated by the Racah single-sum formula in log-factorial space with
    explicit sign bookkeeping and compensated summation.  Selection-rule
    violations (m != m1 + m2, triangle rule) return 0 by contract; an invalid
    spin/projection pairing raises DomainError.
    """
    ts1 = require_spin(s1, "s1")
    ts2 = require_spin(s2, "s2")
    ts = require_spin(s)
    tm1 = require_projection(ts1, m1, "m1")
    tm2 = require_projection(ts2, m2, "m2")
    tm = require_projection(ts, m)
    if tm1 + tm2 != tm:
        return 0.0
    if ts < abs(ts1 - ts2) or ts > ts1 + ts2 or (ts1 + ts2 + ts) % 2 != 0:
        return 0.0
    return _racah_cg(ts1, ts2, ts, tm1, tm2, tm)


def _racah_cg(ts1, ts2, ts, tm1, tm2, tm):
    """Racah single sum for twice-value labels that already pass every
    selection rule.  Uncached: its one bulk caller, the tensor band build,
    evaluates each label once and caches the bands."""
    lf = _log_factorial
    half_log_pref = 0.5 * (
        math.log(ts + 1.0)
        + lf((ts1 + ts2 - ts) // 2)
        + lf((ts1 - ts2 + ts) // 2)
        + lf((ts2 + ts - ts1) // 2)
        - lf((ts1 + ts2 + ts) // 2 + 1)
        + lf((ts1 + tm1) // 2)
        + lf((ts1 - tm1) // 2)
        + lf((ts2 + tm2) // 2)
        + lf((ts2 - tm2) // 2)
        + lf((ts + tm) // 2)
        + lf((ts - tm) // 2)
    )
    t_lo = max(0, (ts2 - ts - tm1) // 2, (ts1 - ts + tm2) // 2)
    t_hi = min((ts1 + ts2 - ts) // 2, (ts1 - tm1) // 2, (ts2 + tm2) // 2)
    if t_hi < t_lo:
        return 0.0
    logs = []
    signs = []
    for t in range(t_lo, t_hi + 1):
        log_den = (
            lf(t)
            + lf((ts1 + ts2 - ts) // 2 - t)
            + lf((ts1 - tm1) // 2 - t)
            + lf((ts2 + tm2) // 2 - t)
            + lf((ts - ts2 + tm1) // 2 + t)
            + lf((ts - ts1 - tm2) // 2 + t)
        )
        logs.append(-log_den)
        signs.append(-1.0 if t % 2 else 1.0)
    peak = max(logs)
    total = math.fsum(sg * math.exp(lg - peak) for sg, lg in zip(signs, logs))
    if total == 0.0:
        return 0.0
    return math.copysign(math.exp(half_log_pref + peak + math.log(abs(total))), total)


def legendre_sequence(k_max: int, x) -> np.ndarray:
    """All P_k(x) for k = 0..k_max; x may be a scalar or 1-d array.

    Returns shape (k_max + 1,) + shape(x).
    """
    k_max = require_int(k_max, "k_max", 0)
    x = np.asarray(x, dtype=float)
    if not np.all(np.abs(x) <= 1.0):
        raise DomainError("legendre_sequence expects |x| <= 1")
    out = np.empty((k_max + 1,) + x.shape, dtype=float)
    out[0] = 1.0
    if k_max >= 1:
        out[1] = x
    for n in range(1, k_max):
        out[n + 1] = ((2 * n + 1) * x * out[n] - n * out[n - 1]) / (n + 1)
    return out


def _build_legendre_coefficients(k_max: int) -> tuple[np.ndarray, ...]:
    """_norm_legendre_table's coefficients: sectoral 1/sqrt(4 pi), then
    -sqrt((2q+1)/(2q)); sub-diagonal sqrt(2q+3); degree recurrence a[k, q] and
    b[k, q], zero unless q < k - 1; the sign (-1)^q of columns q = -k_max..-1."""
    q = np.arange(1, k_max + 1)
    k, p = np.tril_indices(k_max + 1, -2)  # every (k, q) with q < k - 1
    a, b = np.zeros((2, k_max + 1, k_max + 1, 1))
    a[k, p, 0] = np.sqrt((4.0 * k * k - 1.0) / (k * k - p * p))
    b[k, p, 0] = np.sqrt(((k - 1.0) ** 2 - p * p) / (4.0 * (k - 1.0) ** 2 - 1.0))
    sectoral = np.append(1.0 / math.sqrt(4.0 * math.pi), -np.sqrt((2.0 * q + 1.0) / (2.0 * q)))
    return sectoral, np.sqrt(2.0 * q + 1.0), a, b, np.where(q[::-1] % 2, -1.0, 1.0)


def _norm_legendre_table(k_max: int, x: np.ndarray) -> np.ndarray:
    """Signed harmonic table T[k, k_max + q, point] = Y_kq(theta, 0), x = cos(theta).

    T is Pbar[k, |q|], the fully normalized associated Legendre function
    (Condon-Shortley phase and 1/sqrt(4 pi) included), times (-1)^q for
    q < 0, and zero where |q| > k.  Being real, it gives Y_kq = T exp(i q phi)
    and conj(Y_kq) = T exp(-i q phi) at every q.  The degree recurrence on
    the normalized functions (coefficients cached per k_max) fills q >= 0: the
    sectoral diagonal as one cumprod, the sub-diagonal in one step, then once
    per k for all q < k - 1, with the scalar operations of the entry-by-entry
    recurrence in the same order.  The q < 0 half is then filled in place.
    """
    sectoral, sub, a, b, sign = _legendre_coefficients(k_max)
    out = np.zeros((k_max + 1, 2 * k_max + 1, x.shape[0]), dtype=float)
    pbar = out[:, k_max:]
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    diag = np.cumprod(np.vstack([np.full_like(x, sectoral[0]), sectoral[1:, None] * sin_t]), 0)
    q = np.arange(k_max + 1)
    pbar[q, q] = diag
    pbar[q[1:], q[:-1]] = sub[:, None] * x * diag[:-1]
    for k in range(2, k_max + 1):
        low = slice(k - 1)
        pbar[k, low] = a[k, low] * (x * pbar[k - 1, low] - b[k, low] * pbar[k - 2, low])
    # Y_{k,-q}(theta, 0) = (-1)^q Y_kq(theta, 0), for columns q = -k_max..-1
    np.multiply(pbar[:, :0:-1], sign[:, None], out=out[:, :k_max])
    return out


def _synthesize(a: np.ndarray, theta, phi) -> np.ndarray:
    """Sum_kq a[..., k, K + q] conj(Y_kq(theta_p, phi_p)) at paired points.

    a has shape [..., K+1, 2K+1] (leading axes batched); the result has shape
    [..., n_points].  This is the transpose of quadrature.project, done ring
    by ring: the signed table T[k, K + q, ring] = Y_kq(theta, 0) is built on
    the distinct cos(theta) only, the sum over k gives one g[..., q, ring],
    and the sum over q takes exp(-i q phi) from the distinct phi only.
    O(K^2 R + K N) work for R distinct colatitudes among N points; the q sum
    runs over blocks of points whose two gathers fit in _SYNTHESIS_BLOCK_BYTES.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    if theta.shape != phi.shape or theta.ndim != 1:
        raise DomainError("theta and phi must be equal-length 1-d arrays")
    k_max = a.shape[-2] - 1
    x, ring = np.unique(np.cos(theta), return_inverse=True)
    # the table [k, K + q, ring] is freed before the [2K + 1, block] gathers below
    g = np.einsum("...kq,kqr->...qr", a, _norm_legendre_table(k_max, x))
    phis, column = np.unique(phi, return_inverse=True)
    phase = np.exp(-1j * np.arange(-k_max, k_max + 1)[:, None] * phis)
    out = np.empty(g.shape[:-2] + theta.shape, dtype=complex)
    step = max(1, _SYNTHESIS_BLOCK_BYTES // (16 * (math.prod(g.shape[:-1]) + phase.shape[0])))
    for pts in (slice(p, p + step) for p in range(0, theta.shape[0], step)):
        out[..., pts] = np.einsum("...qn,qn->...n", g[..., ring[pts]], phase[:, column[pts]])
    return out


def spherical_harmonic(k: int, q: int, theta: float, phi: float) -> complex:
    """Y_{kq}(theta, phi), physics convention with Condon-Shortley phase."""
    k = require_int(k, "k", 0)
    q = require_int(q, "q", -k, k)
    theta, phi = float(require_angle(theta, "theta")), float(require_angle(phi, "phi"))
    y = _norm_legendre_table(k, np.cos(np.array([theta])))[k, k + q, 0]
    return complex(y * np.exp(1j * q * phi))


class _RankCache:
    """LRU map from an integer key (a twice-rank, twice-spin or k_max) to a
    tuple of arrays, frozen read-only on entry and bounded by the bytes held
    rather than by the number of entries.  Holds the J_y eigenbases and Legendre
    coefficients here, tensor_ops' bands and distributions' coefficient tables.

    A miss builds the entry; the oldest entries are then evicted until the
    held bytes are back under max_bytes (the newest entry always stays).
    Guarded by a lock, so concurrent callers are safe.
    """

    def __init__(self, build, max_bytes: int):
        self._build = build
        self.max_bytes = max_bytes
        self._entries: OrderedDict[int, tuple] = OrderedDict()
        self._nbytes = 0
        self._hits = self._misses = 0
        self._lock = threading.Lock()

    def __call__(self, key: int) -> tuple:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return entry
            self._misses += 1
        entry = self._build(key)
        for a in entry:
            a.setflags(write=False)
        with self._lock:
            if key not in self._entries:
                self._entries[key] = entry
                self._nbytes += sum(a.nbytes for a in entry)
                while self._nbytes > self.max_bytes and len(self._entries) > 1:
                    _, old = self._entries.popitem(last=False)
                    self._nbytes -= sum(a.nbytes for a in old)
        return entry

    def cache_info(self) -> dict:
        """Plain-dict statistics: hits, misses, keys held, bytes, max_bytes."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "keys": tuple(self._entries),
                "bytes": self._nbytes,
                "max_bytes": self.max_bytes,
            }

    def cache_clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._nbytes = 0
            self._hits = self._misses = 0


def _ladder(tk: int) -> np.ndarray:
    """<m + 1| J_+ |m> = sqrt(j(j+1) - m(m+1)) for m = j-1..-j at j = tk / 2:
    the superdiagonal of J_+ in the descending-m basis."""
    j = tk / 2.0
    m = j - np.arange(1, tk + 1)
    return np.sqrt(j * (j + 1.0) - m * (m + 1.0))


def _build_jy_eigenbasis(tk: int) -> tuple[np.ndarray, np.ndarray]:
    """The J_y eigenbasis at twice-rank tk, as d(beta) consumes it.

    In the descending-m basis (row a holds m = k - a), J_y = Z J_x Z^dag with
    Z = diag(i^a), and J_x is real: its eigenvectors U (ascending eigenvalues
    mu = -k..k, exact, so only U is kept) are real, half the bytes of complex
    J_y eigenvectors.  Then d(beta) = Z U exp(-i beta mu) U^T Z^dag.  Writing
    i^a = sigma_a i^(a mod 2) with sigma_a = +1, +1, -1, -1 for a mod 4 = 0..3,
    the rows are stored as G = sigma U, split into even and odd a, so that d
    takes no phase table:

        d[a, b] = sum_mu G_{a mu} G_{b mu} cos(beta mu)    a, b of one parity,
        d[a, b] = +-sum_mu G_{a mu} G_{b mu} sin(beta mu)  + for odd a, - for odd b.

    Returns (G[even a], G[odd a]); the cache makes them read-only.
    """
    n = tk + 1
    # <m + 1| J_x |m> = J_+(m) / 2
    half_jp = 0.5 * _ladder(tk)
    _, vecs = np.linalg.eigh(np.diag(half_jp, 1) + np.diag(half_jp, -1))
    sigma = np.where(np.arange(n) % 4 < 2, 1.0, -1.0)
    g = sigma[:, None] * vecs
    return np.ascontiguousarray(g[::2]), np.ascontiguousarray(g[1::2])


# integer-keyed by twice-rank; an entry is n^2 doubles for n = tk + 1, so
# every integer rank k <= 200 (one rotation at 2s = 200) takes 86.6 MB
_jy_eigenbasis = _RankCache(_build_jy_eigenbasis, max_bytes=100_000_000)

# integer-keyed by k_max; an entry is about 2 (k_max + 1)^2 doubles, 0.65 MB at 200
_legendre_coefficients = _RankCache(_build_legendre_coefficients, max_bytes=10_000_000)


def _small_d(tk: int, beta: float) -> np.ndarray:
    """d^k(beta) = exp(-i beta J_y) in the descending-m basis.

    Formed on each call from the cached eigenbasis, with no eigensolver per
    angle, by three real products of half-size blocks (the even-odd block is
    minus the transposed odd-even one, as d(beta)^T = d(-beta)).  Unitary to
    roundoff at any rank, unlike the alternating single-sum element formula,
    which loses all precision near k ~ 50.
    """
    even, odd = _jy_eigenbasis(tk)
    # beta mu for the exact eigenvalues mu = -k..k, in eigh's ascending order
    x = beta * np.arange(-0.5 * tk, 0.5 * tk + 1.0)
    cos_x = np.cos(x)
    d = np.empty((tk + 1, tk + 1))
    d[::2, ::2] = (even * cos_x) @ even.T
    d[1::2, 1::2] = (odd * cos_x) @ odd.T
    odd_even = (odd * np.sin(x)) @ even.T
    d[1::2, ::2] = odd_even
    d[::2, 1::2] = -odd_even.T
    return d


def _wigner_d_core(tk: int, tqp: int, tq: int, beta: float) -> float:
    """One entry of _small_d(tk, beta), in O(tk) work."""
    even, odd = _jy_eigenbasis(tk)
    x = beta * np.arange(-0.5 * tk, 0.5 * tk + 1.0)
    a, b = (tk - tqp) // 2, (tk - tq) // 2
    row, col = (even, odd)[a % 2][a // 2], (even, odd)[b % 2][b // 2]
    if a % 2 == b % 2:
        return float(row * np.cos(x) @ col)
    sign = 1.0 if a % 2 else -1.0
    return sign * float(row * np.sin(x) @ col)


def wigner_d(k, qp, q, beta: float) -> float:
    """Wigner small-d element d^k_{q'q}(beta); k may be half-integer."""
    tk = require_spin(k, "k")
    tqp, tq = require_projection(tk, qp, "qp"), require_projection(tk, q, "q")
    return _wigner_d_core(tk, tqp, tq, float(require_angle(beta, "beta")))


def wigner_D(k, qp, q, alpha: float, beta: float, gamma: float) -> complex:
    """Rotation-matrix element D^k_{q'q}(alpha, beta, gamma), z-y-z convention."""
    tk = require_spin(k, "k")
    tqp, tq = require_projection(tk, qp, "qp"), require_projection(tk, q, "q")
    alpha, beta, gamma = _euler_angles(alpha, beta, gamma)
    d = _wigner_d_core(tk, tqp, tq, beta)
    phase = -0.5 * (tqp * alpha + tq * gamma)
    return complex(d * (math.cos(phase) + 1j * math.sin(phase)))


def wigner_D_matrix(k, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Full (2k+1)-dimensional rotation matrix, rows/cols ordered q = k..-k.

    With this ordering the rank-s matrix acts directly on spin states in the
    descending-m basis used everywhere in this package.  Unitary to roundoff.
    """
    tk = require_spin(k, "k")
    alpha, beta, gamma = _euler_angles(alpha, beta, gamma)
    d = _small_d(tk, beta)
    tq_axis = tk - 2 * np.arange(tk + 1)
    left = np.exp(-0.5j * tq_axis * alpha)
    right = np.exp(-0.5j * tq_axis * gamma)
    out = left[:, None] * d * right[None, :]
    out.setflags(write=False)
    return out
