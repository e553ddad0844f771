"""Angular-momentum special functions with exact half-integer bookkeeping.

Phase choices follow the Condon-Shortley convention throughout.  Spherical
harmonics are the orthonormal physics-convention ones, so that
Y*_{kq} = (-1)^q Y_{k,-q}.  Wigner rotations use the active z-y-z Euler
decomposition

    D^k_{q'q}(alpha, beta, gamma) = exp(-i q' alpha) d^k_{q'q}(beta) exp(-i q gamma),

which makes R tau^k_q R^dag = sum_{q'} D^k_{q'q} tau^k_{q'} for irreducible
tensor operators.  Spins and projections are carried as twice-value integers
so half-integer arithmetic stays exact.

Every public integer, spin, projection, real and angle argument and every
operator entry of the package passes one rule here (require_int,
require_spin, require_projection, require_real, require_angle,
_require_finite): a refusal is a DomainError naming the argument and its
value.  Every array argument is converted in one place, _require_array:
angles, tensor_ops' operators and components, expectation's operator, the
fano containers' matrix and values, and quadrature's node values.  A string,
bytes or array of either (an object array holding one included), and a value
numpy cannot convert, are refused by name (quadrature also refuses
non-numeric node values after its shape check).

Each quantity has one route: Clebsch-Gordan coefficients the uncached Racah
sum of one array kernel (_racah_many, also behind tensor_ops' bands), d(beta)
applied in place through J_y eigenbases in blocks of eight ranks (_apply_d),
harmonics and Legendre polynomials one recurrence's half table Pbar[k, q >= 0,
point] = Y_kq(theta, 0) (_norm_legendre_table), the q < 0 sign written once
(_q_signs).  The ring-wise synthesis and quadrature.project take one real
product per order (_per_order); a synthesis's plan (the table, phases and each
point's place) is cached by content for product grids, as is project's ring
table.  The public functions are pure (_apply_d writes only the array it is
handed); the factorial tables are immutable after import, and the rank blocks,
Legendre recurrence coefficients, plans and ring tables live in lock-guarded,
byte-bounded _RankCaches: safe to call concurrently.
"""

from __future__ import annotations

import math
import numbers
import sys
import threading
from collections import OrderedDict
from collections.abc import Hashable
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "HalfInteger",
    "clebsch_gordan",
    "spherical_harmonic",
    "wigner_d",
    "wigner_D",
    "wigner_D_matrix",
]

_TABLE_MAX = 500
_SYNTHESIS_BLOCK_BYTES = 16_000_000  # _synthesize's two gathers, per block of points
# _racah_many's terms per block of labels; must exceed one label's, 2 min(s1, s2) + 1 at most
_RACAH_BLOCK_TERMS = 1 << 14


def _build_log_factorials(n_max):
    # ln of the exact integer factorial; accurate to ~1 ulp of the result.
    logs = np.zeros(n_max + 1)
    acc = 1
    for n in range(1, n_max + 1):
        acc *= n
        logs[n] = math.log(acc)
    logs.setflags(write=False)
    return logs


_LOG_FACTORIAL = _build_log_factorials(_TABLE_MAX)


def _log_factorial(n: int) -> float:
    """ln(n!) for an integer n >= 0: table-backed (exact-integer logarithms)
    for n <= 500, lgamma beyond."""
    return float(_LOG_FACTORIAL[n]) if n <= _TABLE_MAX else math.lgamma(n + 1.0)


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
    try:  # float() of a Fraction beyond the float range overflows
        doubled = 2.0 * float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:
        doubled = math.nan
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


def require_real(value, name: str, lo: float | None = None) -> float:
    """`value` as a float: a finite real number, never a bool, >= lo (None
    leaves it open)."""
    ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
    x = value.item() if isinstance(value, np.generic) else value  # np.float32 compared as a float
    ok = ok and abs(x) <= sys.float_info.max  # not nan, inf or an int beyond floats
    if not (ok and (lo is None or x >= lo)):
        span = "" if lo is None else f" >= {lo:g}"
        raise DomainError(f"{name}={value!r}: expected a finite real{span}")
    return float(x)


def _require_finite(a: np.ndarray, name: str, what: str) -> None:
    """Accept an array of finite entries in one isfinite pass; else refuse its
    first NaN or +-inf entry, named with its index and shown as a float, or
    as a complex where its imaginary part is nonzero."""
    if not np.isfinite(a).all():
        i = int(np.flatnonzero(~np.isfinite(a))[0])
        where = "" if a.ndim == 0 else f"{list(map(int, np.unravel_index(i, a.shape)))}"
        entry = complex(a.flat[i])
        shown = entry.real if entry.imag == 0 else entry
        raise DomainError(f"{name}{where}={shown!r}: expected a finite {what}")


def _require_array(value, name: str, what: str, dtype=None, copy: bool = False) -> np.ndarray:
    """`value` as an ndarray of `dtype` (or of its own dtype if none is given),
    a copy if `copy`, else converted only where needed.  Strings and bytes,
    which numpy would parse as numbers, are refused before any cast, also as
    elements of an object array (scanned for them only at that dtype), as is
    a value numpy cannot convert, naming `name`: expected a finite `what`."""
    try:
        probe = np.asarray(value)  # no copy of an ndarray
        text = probe.dtype.kind in "SU" or (
            probe.dtype == object and any(isinstance(x, (str, bytes)) for x in probe.flat)
        )
        if not text:
            return (np.array if copy else np.asarray)(value, dtype=dtype)
    except (TypeError, ValueError):
        pass
    raise DomainError(f"{name}={value!r}: expected a finite {what}")


def require_angle(value, name: str, scalar: bool = False):
    """A finite angle in radians as a float array (0-d for a scalar), or as a
    float if `scalar`, which refuses an array; a refusal names the first
    non-finite entry."""
    a = _require_array(value, name, "angle", float)
    _require_finite(a, name, "angle")
    if scalar and a.ndim:
        raise DomainError(f"{name}={value!r}: expected a scalar angle")
    return float(a) if scalar else a


def _scalar_angles(**angles) -> tuple[float, ...]:
    """Scalar angles as floats, each through require_angle named by its keyword."""
    return tuple(require_angle(v, name, scalar=True) for name, v in angles.items())


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
    return float(_racah_many(ts1, ts2, ts, tm1, tm2))


def _map(f, x: np.ndarray) -> np.ndarray:
    """A math function over a 1-d array: numpy's SIMD exp and log can differ
    from math's in the last bit, and the Racah sum's floats must not."""
    return np.fromiter(map(f, x.tolist()), float, x.size)


# The Racah sum's factorial arguments, times two, as coefficients on the labels
# (ts1, ts2, ts, tm1, tm2).  Rows 0-9: the prefactor's (s1+s2-s)! (s1-s2+s)!
# (s2+s-s1)! / (s1+s2+s + 1)! (s1+-m1)! (s2+-m2)! (s+-m)!, row 3 the largest
# argument of a label; rows 10-15: 0 and the a, b, c, d, e of the terms'
# t! (a-t)! (b-t)! (c-t)! (d+t)! (e+t)!.
_RACAH_ARGS = np.array([
    [1, 1, -1, 0, 0], [1, -1, 1, 0, 0], [-1, 1, 1, 0, 0], [1, 1, 1, 0, 0],
    [1, 0, 0, 1, 0], [1, 0, 0, -1, 0], [0, 1, 0, 0, 1], [0, 1, 0, 0, -1],
    [0, 0, 1, 1, 1], [0, 0, 1, -1, -1], [0, 0, 0, 0, 0], [1, 1, -1, 0, 0],
    [1, 0, 0, -1, 0], [0, 1, 0, 0, 1], [0, -1, 1, 1, 0], [-1, 0, 1, 0, -1],
])
_RACAH_ARGS.setflags(write=False)


def _racah_total(log_scale: float, terms: list) -> float:
    """A label's Racah sum from its terms, each divided by exp(log_scale)."""
    total = math.fsum(terms)
    return math.copysign(math.exp(log_scale + math.log(abs(total))), total) if total else 0.0


def _racah_many(ts1, ts2, ts, tm1, tm2) -> np.ndarray:
    """<s1 m1; s2 m2 | s m1+m2> for equal-shape arrays (or ints) of twice-value
    labels that pass every selection rule, by the Racah single sum

        sqrt(pref) sum_t (-1)^t / (t! (a-t)! (b-t)! (c-t)! (d+t)! (e+t)!)

    over t = max(0, -d, -e)..min(a, b, c), never empty.  In log-factorial
    space (each sum of logs taken left to right by np.add.accumulate), each
    term is scaled by its label's largest, and a label's terms are summed
    exactly.  Labels run in blocks of about _RACAH_BLOCK_TERMS terms, so the
    temporaries stay bounded.  Every float is the label-by-label sum's.
    """
    labels = np.array((ts1, ts2, ts, tm1, tm2), dtype=np.int64)
    shape, labels = labels.shape[1:], labels.reshape(5, -1)
    args = _RACAH_ARGS @ labels // 2
    args[3] += 1
    n_max = args[3].max()
    lf = _LOG_FACTORIAL if n_max <= _TABLE_MAX else _map(_log_factorial, np.arange(n_max + 1))
    logs = lf[args[:10]]
    logs[3] *= -1.0
    logs[0] += _map(math.log, labels[2] + 1.0)  # ln(2s + 1) comes first
    half_log_pref = 0.5 * np.add.accumulate(logs, out=logs)[-1]
    bases = args[10:]  # 0, a, b, c, d, e
    t_lo = np.maximum(0, -np.minimum(bases[4], bases[5]))
    count = np.minimum.reduce(bases[1:4]) + 1 - t_lo
    out = np.empty(count.size)
    ends = count.cumsum()
    cuts = ends.searchsorted(np.arange(_RACAH_BLOCK_TERMS, ends[-1], _RACAH_BLOCK_TERMS))
    for block in map(slice, [0, *cuts], [*cuts, count.size]):
        n_t = count[block]
        ends_t = n_t.cumsum()
        starts = ends_t - n_t
        t = np.arange(ends_t[-1]) + (t_lo[block] - starts).repeat(n_t)
        facs = bases[:, block].repeat(n_t, axis=1)  # t, a - t, b - t, c - t, d + t, e + t
        facs[0] = t
        facs[1:4] -= t
        facs[4:] += t
        logs = lf[facs]
        log_term = -np.add.accumulate(logs, out=logs)[-1]
        peak = np.maximum.reduceat(log_term, starts)
        terms = _map(math.exp, log_term - peak.repeat(n_t))
        terms *= 1 - 2 * (t & 1)  # (-1)^t
        runs = map(terms.tolist().__getitem__, map(slice, starts.tolist(), ends_t.tolist()))
        out[block] = list(map(_racah_total, (half_log_pref[block] + peak).tolist(), runs))
    return out.reshape(shape)


def _build_legendre_coefficients(k_max: int) -> tuple[np.ndarray, ...]:
    """_norm_legendre_table's coefficients: sectoral 1/sqrt(4 pi), then
    -sqrt((2q+1)/(2q)); sub-diagonal sqrt(2q+3); degree recurrence a[k, q] and
    b[k, q], zero unless q < k - 1."""
    q = np.arange(1, k_max + 1)
    k, p = np.nonzero(np.tri(k_max + 1, k=-2, dtype=bool))  # each (k, q), q < k - 1
    a, b = np.zeros((2, k_max + 1, k_max + 1, 1))
    a[k, p, 0] = np.sqrt((4.0 * k * k - 1.0) / (k * k - p * p))
    b[k, p, 0] = np.sqrt(((k - 1.0) ** 2 - p * p) / (4.0 * (k - 1.0) ** 2 - 1.0))
    sectoral = np.append(1.0 / math.sqrt(4.0 * math.pi), -np.sqrt((2.0 * q + 1.0) / (2.0 * q)))
    return sectoral, np.sqrt(2.0 * q + 1.0), a, b


def _norm_legendre_table(k_max: int, x: np.ndarray, q_max: int | None = None) -> np.ndarray:
    """Half table Pbar[k, q, point] = Y_kq(theta, 0), q = 0..q_max (default
    k_max), x = cos(theta): the fully normalized associated Legendre function
    (Condon-Shortley phase and 1/sqrt(4 pi) included), zero where q > k; the
    q < 0 harmonics are _q_signs' (-1)^q times it.  The recurrence
    (coefficients cached per k_max) fills the sectoral diagonal by one
    cumprod, the sub-diagonal in one step, then all q < k - 1 once per k, in
    the entry-by-entry order of operations: a q_max table is the full
    table's leading columns bit for bit, in O(k_max q_max) per point."""
    q_max = k_max if q_max is None else q_max
    sectoral, sub, a, b = _legendre_coefficients(k_max)
    out = np.zeros((k_max + 1, q_max + 1, x.shape[0]), dtype=float)
    # entry (k, q) is row k (q_max + 1) + q: the diagonal (q, q) every
    # q_max + 2 rows from row 0, the sub-diagonal (q + 1, q) from q_max + 1
    rows = out.reshape((k_max + 1) * (q_max + 1), -1)
    diag, n = rows[:: q_max + 2][: q_max + 1], min(q_max + 1, k_max)
    diag[0] = sectoral[0]
    if q_max:
        sin_t = np.sqrt(np.maximum(0.0, 1.0 - x * x))
        np.multiply(sectoral[1 : q_max + 1, None], sin_t, out=diag[1:])
        np.cumprod(diag, 0, out=diag)
    np.multiply(sub[:n, None] * x, diag[:n], out=rows[q_max + 1 :: q_max + 2][:n])
    for k in range(2, k_max + 1):
        # a (x Pbar[k - 1] - b Pbar[k - 2]) in place, the fewest numpy calls
        n = min(k - 1, q_max + 1)
        row = np.multiply(x, out[k - 1, :n], out=out[k, :n])
        row -= b[k, :n] * out[k - 2, :n]
        row *= a[k, :n]
    return out


def _q_signs(q) -> np.ndarray:
    """(-1)^q for q < 0, else 1 (q an int or array): Y_{k,-p} = (-1)^p Pbar[k, p]."""
    return (-1.0) ** np.minimum(q, 0)


def _per_order(rows: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """out[K + q] = rows[K + q] @ tables[|q|], q = -K..K, for complex rows
    [2K + 1, m, n] and a [K + 1, n, l] view of the real half table ([p, k,
    ring] for the synthesis' k sum, [p, ring, k] for project's ring sum): the
    real and imaginary parts as 2m real rows, in one batched BLAS product
    over q < 0 against the slices in reverse and one over q >= 0, as
    stacking the rows of q = p and q = -p would change OpenBLAS's sums in
    the last bit.  The q < 0 signs are the caller's (_q_signs)."""
    k_max, m = tables.shape[0] - 1, rows.shape[1]
    rows = np.concatenate([rows.real, rows.imag], 1)
    out = np.concatenate([rows[:k_max] @ tables[:0:-1], rows[k_max:] @ tables])
    return out[:, :m] + 1j * out[:, m:]


def _synthesis_plan(k_max: int, theta: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, ...]:
    """_synthesize's plan, which depends on (k_max, theta, phi) only: the half
    table on the R distinct cos(theta), the phases (-1)^q exp(-i q phi) as
    [2K + 1, C] on the C distinct azimuths, and each point's cell ring * C +
    column ([N]) when the R C cells are no more than the N points, else its
    (ring, column) pair ([2, N])."""
    x, ring = np.unique(np.cos(theta), return_inverse=True)
    phis, column = np.unique(phi, return_inverse=True)
    if x.shape[0] * phis.shape[0] <= theta.shape[0]:
        points = ring * phis.shape[0] + column
    else:
        points = np.stack([ring, column])
    q = np.arange(-k_max, k_max + 1)[:, None]
    phase = np.exp(-1j * q * phis) * _q_signs(q)
    return _norm_legendre_table(k_max, x), phase, points


def _build_plan(key: tuple) -> tuple[np.ndarray, ...]:
    """A _plans entry from its key (k_max, theta bytes, phi bytes)."""
    k_max, theta, phi = key
    return _synthesis_plan(k_max, np.frombuffer(theta), np.frombuffer(phi))


def _keep_plan(plan: tuple, nbytes: int) -> bool:
    """Whether _plans keeps a new plan: a product grid of more than one point
    within _PLAN_BYTES.  A grid is the point set that repeats; a single
    point's or a scattered set's plan, a table column per point, is built
    for its call and dropped, so such calls evict no grid's plan."""
    points = plan[2]
    return points.ndim == 1 and points.shape[0] > 1 and nbytes <= _PLAN_BYTES


def _build_ring_table(key: tuple) -> tuple[np.ndarray]:
    """A _ring_tables entry from its key (k_max, theta bytes): the half table."""
    k_max, theta = key
    return (_norm_legendre_table(k_max, np.cos(np.frombuffer(theta))),)


def _ring_table(k_max: int, theta: np.ndarray) -> np.ndarray:
    """The read-only half table Pbar[k, q >= 0, ring] on cos(theta) of a 1-d
    float array, cached by content (quadrature.project's ring sum)."""
    return _ring_tables((k_max, theta.tobytes()))[0]


def _synthesize(a: np.ndarray, theta, phi) -> np.ndarray:
    """Sum_kq a[..., k, K + q] conj(Y_kq(theta_p, phi_p)) at paired points.

    a has shape [..., K+1, 2K+1] (leading axes batched); the result has shape
    [..., n_points].  This is the transpose of quadrature.project, done ring
    by ring in two BLAS products.  What depends on the points alone is the
    plan (_synthesis_plan), cached by content in _plans for product grids
    only (_keep_plan): the half table on the R distinct cos(theta), the
    signed phases on the C distinct azimuths, each point's cell or (ring,
    column).  The k sum g[q, ring] = sum_k a[k, q] Pbar[k, |q|, ring] is
    _per_order's real product per order, the batch's real and imaginary
    parts stacked as rows.  When the cells make no more than the N points (a
    product grid in any order, repeated points), the q sum is one complex
    product of g^T with the phases onto the [R, C] cells, read at each
    point's cell; otherwise it runs point by point, in blocks whose two
    [2K + 1, block] gathers fit in _SYNTHESIS_BLOCK_BYTES.  O(K^2 R + K N)
    work either way, the cells taking no more memory than the result; a kept
    plan leaves O(K N) of it.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    if theta.shape != phi.shape or theta.ndim != 1:
        raise DomainError("theta and phi must be equal-length 1-d arrays")
    k_max, batch = a.shape[-2] - 1, a.shape[:-2]
    n_b = math.prod(batch)
    table, phase, points = _plans((k_max, theta.tobytes(), phi.tobytes()))
    a = a.reshape(n_b, k_max + 1, 2 * k_max + 1).transpose(2, 0, 1)  # [q, batch, k]
    # the table read as [p, k, ring] in place; a plan that is not kept frees
    # it after the k sum
    g = _per_order(a, table.transpose(1, 0, 2))  # [q, batch, ring]
    del table
    if points.ndim == 1:
        cells = (g.reshape(g.shape[0], -1).T @ phase).reshape(n_b, -1)  # [batch, R * C]
        out = cells[:, points]
    else:
        ring, column = points
        out = np.empty((n_b,) + theta.shape, dtype=complex)
        step = max(1, _SYNTHESIS_BLOCK_BYTES // (16 * (n_b + 1) * phase.shape[0]))
        for pts in (slice(p, p + step) for p in range(0, theta.shape[0], step)):
            out[:, pts] = np.einsum("qbn,qn->bn", g[:, :, ring[pts]], phase[:, column[pts]])
    return out.reshape(batch + theta.shape)


def spherical_harmonic(k: int, q: int, theta: float, phi: float) -> complex:
    """Y_{kq}(theta, phi), physics convention with Condon-Shortley phase."""
    k = require_int(k, "k", 0)
    q = require_int(q, "q", -k, k)
    theta, phi = _scalar_angles(theta=theta, phi=phi)
    pbar = _norm_legendre_table(k, np.cos(np.array([theta])), abs(q))[k, abs(q), 0]
    return complex(_q_signs(q) * pbar * np.exp(1j * q * phi))


class _RankCache:
    """LRU map from a hashable key (a (parity, block), twice-spin or k_max;
    the k_max and angle bytes of a point set) to a tuple of arrays, frozen
    read-only on entry and bounded by the bytes held rather than by the
    number of entries.  An entry's bytes are its arrays' and its key's bytes
    objects'.  Holds the rank blocks of J_y eigenbases, Legendre coefficients,
    synthesis plans and ring tables here, tensor_ops' bands, distributions'
    coefficient tables and fano's label tables.

    A miss builds the entry; the oldest entries are then evicted until the
    held bytes are back under max_bytes.  The newest entry always stays,
    unless keep(entry, nbytes) is given and false: the entry is then returned
    to its caller without being kept.  Guarded by a lock, so concurrent
    callers are safe.
    """

    def __init__(self, build, max_bytes: int, keep=None):
        self._build = build
        self.max_bytes = max_bytes
        self._keep = keep
        self._entries: OrderedDict[Hashable, tuple] = OrderedDict()
        self._sizes: dict[Hashable, int] = {}
        self._nbytes = 0
        self._hits = self._misses = 0
        self._lock = threading.Lock()

    def __call__(self, key: Hashable) -> tuple:
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
        parts = key if isinstance(key, tuple) else (key,)
        size = sum(a.nbytes for a in entry) + sum(len(p) for p in parts if isinstance(p, bytes))
        if self._keep is not None and not self._keep(entry, size):
            return entry
        with self._lock:
            if key not in self._entries:
                self._entries[key] = entry
                self._sizes[key] = size
                self._nbytes += size
                while self._nbytes > self.max_bytes and len(self._entries) > 1:
                    old, _ = self._entries.popitem(last=False)
                    self._nbytes -= self._sizes.pop(old)
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
            self._sizes.clear()
            self._nbytes = 0
            self._hits = self._misses = 0


def _ladder(tk: int) -> np.ndarray:
    """<m + 1| J_+ |m> = sqrt(j(j+1) - m(m+1)) for m = j-1..-j at j = tk / 2:
    the superdiagonal of J_+ in the descending-m basis."""
    j = tk / 2.0
    m = j - np.arange(1, tk + 1)
    return np.sqrt(j * (j + 1.0) - m * (m + 1.0))


def _build_rank_block(key: tuple) -> tuple[np.ndarray]:
    """The J_y eigenbases of the twice-ranks top - 14, .., top of block (p, b),
    top = 16b + 16 - p, as [8, n, (n + 1) // 2], n = top + 1, slots centred:
    row A is m = top / 2 - A, column c the J_x eigenvalue mu = c + top % 2 / 2.
    d(beta) = Z U exp(-i beta mu) U^T Z^dag, U real, Z = diag(i^A) = sigma
    i^(A mod 2) (Feng, Wang, Yang & Jin, Phys. Rev. E 92, 043307 (2015)); U's
    column -mu is +-(-1)^A times column mu, whose terms in d v it repeats, so
    G = sigma U keeps mu >= 0, times sqrt 2 for mu > 0.  No eigensolver: column
    mu runs J_x's recurrence h_{a-1} u_{a-1} + h_a u_{a+1} = mu u_a from the
    slot's edge inward to m = 0, the stable way (Schulten & Gordon, J. Math.
    Phys. 16, 1961 (1975)), then u(-m) = (-1)^(k - mu) u(m)."""
    top = 16 * key[1] + 16 - key[0]
    n, half = top + 1, top // 2 + 1  # rows A < half mirror onto n - 1 - A
    slots = np.arange(8)  # slot s: twice-rank top - 14 + 2s, from row 7 - s
    j, mu = (top - 14 + 2.0 * slots)[:, None] / 2, np.arange(top % 2 / 2, top / 2 + 1)
    a = np.arange(half)[:, None, None]
    # h[a] = <m + 1| J_x |m> at m = j - a - 1; the radicand clamped past a slot's last row
    h = 0.5 * np.sqrt(np.maximum(j * (j + 1) - (j - a) * (j - a - 1), 1.0))
    g, cur, prev = np.zeros((8, n, mu.size)), (mu <= j) * 1.0, 0.0
    for a in range(half):  # rows past a slot's middle are mirrored over below
        g[slots, 7 - slots + a] = cur
        cur, prev = (mu * cur - h[a - 1] * prev) / h[a], cur
        if a % 32 == 31 and np.abs(cur).max() > 1e100:  # keep the squares finite
            scale = np.maximum(np.abs(cur), 1.0)
            cur, prev, g = cur / scale, prev / scale, np.divide(g, scale[:, None], out=g)
    g[:, n - half :] = (g[:, :half] * np.where((j - mu) % 2, -1.0, 1.0)[:, None])[:, ::-1]
    g /= (np.sqrt(np.einsum("sac,sac->sc", g, g)) + (mu > j))[:, None]  # padding columns 0 / 1
    g *= np.where(np.arange(n) % 4 < 2, 1.0, -1.0)[:, None] * np.sqrt(1.0 + (mu > 0))
    return (g,)


# keyed by (parity, block); ranks 1..200 (a rotation at 2s = 200) take 45.8 MB
_rank_blocks = _RankCache(_build_rank_block, max_bytes=100_000_000)

# integer-keyed by k_max; an entry is about 2 (k_max + 1)^2 doubles, 0.65 MB at 200
_legendre_coefficients = _RankCache(_build_legendre_coefficients, max_bytes=10_000_000)

# the bound of each of the two content-keyed caches below, a module constant
_PLAN_BYTES = 32_000_000

# keyed by content, (k_max, theta bytes, phi bytes); a band-2s grid's plan
# takes about 8 (2s)^3 bytes with its key, 0.19 MB at 2s = 24 and 2.7 MB at
# 64, and is kept up to 2s = 153.  Only product grids' plans within the bound
# are kept (_keep_plan), so nothing stays held after a large-spin call
_plans = _RankCache(_build_plan, max_bytes=_PLAN_BYTES, keep=_keep_plan)

# keyed by content, (k_max, theta bytes): project's ring tables; a band-2s
# grid's table at k_max = 2s is kept up to 2s = 157, a larger one is dropped
_ring_tables = _RankCache(
    _build_ring_table, max_bytes=_PLAN_BYTES, keep=lambda entry, nbytes: nbytes <= _PLAN_BYTES
)


def _phases(tk: int, angle: float) -> np.ndarray:
    """exp(i angle m), m = -k..k: z phases of q = -k..k, or _apply_d's at beta (mu = m)."""
    return np.exp(1j * angle * np.arange(-0.5 * tk, 0.5 * tk + 1.0))


def _apply_d(g: np.ndarray, phase: np.ndarray, v: np.ndarray) -> np.ndarray:
    """d^k(beta) @ v[s] written over v [slots, n, ...] for each slot s of
    _rank_blocks' g, phase = exp(i beta mu) on g's mu >= 0.  With y = G^T v
    per row parity, d v is G_even Re(w) and G_odd Im(w), w = phase (y_even +
    i y_odd): four batched real products, no d formed, no eigensolver per
    angle, a complex v as its float view.  G's zero padding ignores v's rows
    there and writes zeros.  Unitary to roundoff at any rank."""
    cols = v.reshape(g.shape[:2] + (-1,))
    cols = cols.view(float) if np.iscomplexobj(v) else cols
    even, odd = g[:, ::2], g[:, 1::2]
    y = odd.transpose(0, 2, 1) @ cols[:, 1::2] * 1j
    y += even.transpose(0, 2, 1) @ cols[:, ::2]
    y *= phase[:, None]
    cols[:, ::2] = even @ y.real
    cols[:, 1::2] = odd @ y.imag
    return v


def _rank_d(tk: int, beta: float, v: np.ndarray) -> np.ndarray:
    """d^k(beta) @ v, v of tk + 1 rows q = k..-k, by the rank's slot s of its
    block, v zero-padded to the block's rows 7 - s..; d^0 = 1."""
    if tk == 0:
        return v
    b, s = divmod((tk + 1) // 2 - 1, 8)
    g = _rank_blocks((tk % 2, b))[0][s : s + 1]
    padded = np.zeros(g.shape[:2] + v.shape[1:])
    padded[0, 7 - s : 8 - s + tk] = v
    return _apply_d(g, _phases(g.shape[1] - 1, beta)[-g.shape[2] :], padded)[0, 7 - s : 8 - s + tk]


def wigner_d(k, qp, q, beta: float) -> float:
    """Wigner small-d element d^k_{q'q}(beta); k may be half-integer."""
    tk = require_spin(k, "k")
    tqp, tq = require_projection(tk, qp, "qp"), require_projection(tk, q, "q")
    unit = np.eye(1, tk + 1, (tk - tq) // 2)[0]  # the column q
    return float(_rank_d(tk, require_angle(beta, "beta", scalar=True), unit)[(tk - tqp) // 2])


def wigner_D(k, qp, q, alpha: float, beta: float, gamma: float) -> complex:
    """Rotation-matrix element D^k_{q'q}(alpha, beta, gamma), z-y-z convention."""
    tk = require_spin(k, "k")
    tqp, tq = require_projection(tk, qp, "qp"), require_projection(tk, q, "q")
    alpha, beta, gamma = _scalar_angles(alpha=alpha, beta=beta, gamma=gamma)
    d = wigner_d(k, qp, q, beta)
    phase = -0.5 * (tqp * alpha + tq * gamma)
    return complex(d * (math.cos(phase) + 1j * math.sin(phase)))


def wigner_D_matrix(k, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Full (2k+1)-dimensional rotation matrix, rows/cols ordered q = k..-k.

    With this ordering the rank-s matrix acts directly on spin states in the
    descending-m basis used everywhere in this package.  Unitary to roundoff.
    """
    tk = require_spin(k, "k")
    alpha, beta, gamma = _scalar_angles(alpha=alpha, beta=beta, gamma=gamma)
    d = _rank_d(tk, beta, np.eye(tk + 1))
    # exp(-i q alpha) down the rows and exp(-i q gamma) along the columns, q = k..-k
    out = _phases(tk, -alpha)[::-1, None] * d * _phases(tk, -gamma)[::-1]
    out.setflags(write=False)
    return out
