"""P, Q and F distributions on the sphere for spin states.

All three distributions share the shape

    W(theta, phi) = (1/sqrt(4 pi)) sum_kq sigma(k, q) c_k t^k_q Y*_{kq},

where sigma(k, q) = (-1)^(k+q) for the P and Q kinds and 1 for F, and the
coefficients c_k are

    P:  (1/(2s)!) sqrt((2s-k)! (2s+k+1)! / (2s+1))
    Q:  (2s)!     sqrt((2s+1) / ((2s-k)! (2s+k+1)!))
    F:  2^(-k)    sqrt((2s+k+1)! / ((2s-k)! (2s+1) {s(s+1)}^k))

The stored F coefficient absorbs a sqrt(4 pi) relative to the raw
characteristic-function normalization so that c_0 = 1 for every kind and the
three expansions take the uniform prefactor; divide by sqrt(4 pi) to recover
the raw value.  P and Q coefficients are exact inverses of each other.
Tables are built by the ratio recurrence c_k = c_(k-1) sqrt(r_k), with r_k
rational in 2s, so F's c_1 is exactly 1.

Bipartite distributions take the squared prefactor 1/(4 pi) and one
(c, sigma) factor per subsystem.  Evaluation is a ring-wise synthesis
(angular._synthesize) in two BLAS products: the Legendre sum runs on the
distinct colatitudes only and the azimuthal sum on the distinct azimuths,
onto their cells when those are no more than the points (any grid's nodes),
O(K^2 R + K N) for R distinct colatitudes among N points with K = 2s, so
O(K^3) on a band-K grid; no harmonic table over all points is built.  The
joint form applies it along side 2's labels, then side 1's.  A spin's
coefficient tables, all three kinds, are one immutable entry of a
byte-bounded _RankCache, the module's only cache, and its signs (-1)^q are
fano's label table (_labels), so all here is thread-safe; each call forms its
label weights sigma(k, q) c_k from them.  The synthesis plan of each grid (its
harmonic table, phases and ring maps) is cached by content in angular, so
repeated evaluations on one grid build it once.

The singlet correlation never forms the joint distribution on the grid: it
projects each side's classical component (magnitude and z sign from
_spin_scale, shared with classical_spin_vector) onto ranks 0 and 1 as ring
sums times azimuth sums, O(R + C) for R rings and C azimuths, and contracts
them with the singlet's coefficients and c_0^2, c_1^2; the sums of the grid
alone are kept on it, so a reused grid builds them once.  It needs band >= s
(BandLimitError otherwise; coarser grids alias), and a result its first-order
roundoff bound cannot certify to 1e-9 s(s+1)/3 raises ConsistencyError.
The scalar results of expectation and correlation pass the imaginary-residue
check of evaluate_many as Python numbers (_real_scalar).  A P coefficient
that a call would return or use and that overflows the float range is
refused with DomainError (_finite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import fano
from .angular import (
    HalfInteger,
    _RankCache,
    _norm_legendre_table,
    _require_array,
    _scalar_angles,
    _synthesize,
    require_angle,
    require_int,
    require_real,
    require_spin,
)
from .errors import BandLimitError, ConsistencyError, DomainError
from .fano import (
    HERMITICITY_TOL,
    CoupledFanoTensorSet,
    DensityMatrix,
    FanoTensorSet,
    _frozen,
    _singlet_coefficients,
)
from .quadrature import SphereGrid, integrate
from .tensor_ops import operator_components

__all__ = [
    "DistributionKind",
    "SpinCoherentState",
    "coefficient",
    "coefficient_table",
    "coherent_state",
    "q_direct",
    "evaluate",
    "evaluate_many",
    "evaluate_bipartite",
    "evaluate_bipartite_many",
    "classical_spin_vector",
    "expectation",
    "singlet_profile",
    "correlation",
    "correlation_exact",
    "classical_limit_table",
]

_SQRT4PI = math.sqrt(4.0 * math.pi)
_IMAG_TOL = 1e-9
# correlation's roundoff bound, relative to the closed form's scale s(s+1)/3
_CORRELATION_RTOL = 1e-9
_EPS = float(np.finfo(float).eps)
# the singlet's t^{kk}_{q,-q} for k <= 1 as [k][1 + q] (_singlet_coefficients(1))
_SINGLET_RANK1 = _singlet_coefficients(1).tolist()
# correlation's [signed, absolute][coordinate][(k, 1 + q)] tables: Y_k|q|(t, 0) (-1)^q
# (q < 0) over its ring factor, exp(-i q p) on cos p, sin p, 1, the ring sums' [row, column]
_Y_RANK1 = np.array([0.0, 1.0, 0.0, math.sqrt(1.5), math.sqrt(3.0), -math.sqrt(1.5)]) / _SQRT4PI
_PHASE = np.array([[1, 1j, 0], [0, 0, 1], [1, -1j, 0]]).T[:, [1, 1, 1, 0, 1, 2]]
_Y_RANK1, _PHASE = np.array([_Y_RANK1, abs(_Y_RANK1)])[:, None], np.array([_PHASE, abs(_PHASE)])
_RING_ROWS, _RING_COLUMNS = np.array([[0], [0], [1]]), np.array([0, 0, 0, 2, 1, 2])


class DistributionKind(Enum):
    """Selector for the three sphere distributions."""

    P = "P"
    Q = "Q"
    F = "F"

    @classmethod
    def from_string(cls, name: str) -> "DistributionKind":
        try:
            return cls[str(name).upper()]
        except KeyError:
            raise DomainError(f"unknown distribution kind {name!r}, expected P, Q or F")


def coefficient(kind: DistributionKind, s, k: int) -> float:
    """Expansion coefficient c_k for the given kind and spin.

    Read from coefficient_table; c_0 = 1 for every kind and all coefficients
    are positive.  Every kind tends to 1 as s grows at fixed k.
    """
    ts = require_spin(s)
    k = require_int(k, "k", 0, ts)
    return float(_table(kind, ts, k)[k])


@np.errstate(over="ignore")  # P's c_k reach inf from 2s = 1027; _table refuses them
def _build_tables(ts: int) -> tuple[np.ndarray, ...]:
    """The P, Q and F tables of one spin, in DistributionKind order."""
    # exact ratios r_k = (c_k / c_{k-1})^2, rational in 2s; the product of
    # square roots keeps c^2 from overflowing
    k = np.arange(1, ts + 1)
    up, down = ts + k + 1, ts - k + 1
    # s(s+1) = 2s(2s+2)/4, so F's r_1 = 1 exactly
    ratios = (up / down, down / up, (up * down) / (ts * (ts + 2)))
    return tuple(np.concatenate(([1.0], np.cumprod(np.sqrt(r)))) for r in ratios)


# keyed by twice-spin; an entry, all three kinds, is 8 (6s + 3) bytes
_tables = _RankCache(_build_tables, max_bytes=10_000_000)


def _require_kind(kind) -> DistributionKind:
    if not isinstance(kind, DistributionKind):
        raise DomainError(f"kind={kind!r}: expected a DistributionKind (P, Q or F)")
    return kind


def _finite(kind: DistributionKind, ts: int, c: np.ndarray) -> np.ndarray:
    """c (c_k, or a power of it, indexed by k) if finite, else DomainError
    naming the first k that is not.  Only P's c_k grow, and they grow with k,
    so the last entry decides: P's c_k overflow from 2s = 1027 on."""
    if not math.isfinite(c[-1]):
        raise DomainError(
            f"{kind.value} coefficients at 2s = {ts} overflow the float range "
            f"from k={np.argmax(~np.isfinite(c))} on"
        )
    return c


def _table(kind, ts: int, k_max: int | None = None) -> np.ndarray:
    """The cached c_0..c_k_max (default 2s) of one kind and spin, all finite."""
    c = _tables(ts)["PQF".index(_require_kind(kind).value)]
    return _finite(kind, ts, c if k_max is None else c[: k_max + 1])


def coefficient_table(kind: DistributionKind, s) -> np.ndarray:
    """Read-only coefficients c_k, k = 0..2s, for one (kind, spin) pair."""
    return _table(kind, require_spin(s))


@dataclass(frozen=True)
class SpinCoherentState:
    """Spin coherent (Bloch) state, the maximal-weight state rotated to point
    along (theta, phi), fixed by (s, theta, phi).  Its amplitudes

    <s m|theta phi> = sqrt(C(2s, s+m)) cos(theta/2)^(s-m) sin(theta/2)^(s+m)
                       exp(-i (s+m) phi)

    in the descending-m ordering are derived on construction, read-only.
    theta = 0 gives |s, -s>; theta = pi gives |s, +s> up to the phase
    exp(-i 2s phi).  Works at any spin.  The angles are reduced mod 2 pi, and
    states compare and hash by (s, theta, phi).
    """

    s: HalfInteger
    theta: float
    phi: float
    amplitudes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ts = require_spin(self.s)
        theta, phi = (x % (2.0 * math.pi) for x in _scalar_angles(theta=self.theta, phi=self.phi))
        c, sn = math.cos(0.5 * theta), math.sin(0.5 * theta)  # sn >= 0: theta / 2 < pi
        # index i holds m = s - i, so s - m = i and s + m = 2s - i.  The magnitudes
        # squared are binomial in p = c^2, and their ratios |a_(i+1) / a_i| =
        # sqrt((2s - i) / (i + 1)) |c| / sn multiply outward from the binomial mode,
        # the largest: nothing overflows at any spin and the tails underflow to 0.
        # A step up needs c^2 < 2s / (2s + 1), a step down c^2 >= 1 / (2s + 1)
        i = np.arange(ts + 1)
        mode = min(ts, math.floor((ts + 1) * c * c))
        up, down = i[mode:-1], i[mode:0:-1]
        mag = np.concatenate((
            np.cumprod(np.sqrt(down / (ts + 1.0 - down)) * (sn / abs(c)))[::-1],
            [1.0],
            np.cumprod(np.sqrt((ts - up) / (up + 1.0)) * (abs(c) / sn if up.size else 0.0)),
        ))
        # c^i carries the sign and exp(-i (s + m) phi) the phase
        amps = mag / np.linalg.norm(mag) * np.copysign(1.0, c) ** i * np.exp(-1j * (ts - i) * phi)
        object.__setattr__(self, "s", HalfInteger(ts))
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "amplitudes", _frozen(amps))


def coherent_state(s, theta: float, phi: float) -> SpinCoherentState:
    """The spin coherent state SpinCoherentState(s, theta, phi)."""
    return SpinCoherentState(s, theta, phi)


def _direction(v, name: str) -> tuple[float, float, float]:
    """A direction argument as three floats: a list, tuple or 1-d array of
    three components, each a finite real (never a bool, named with its index
    when refused), of unit length to 1e-12."""
    parts = v.tolist() if isinstance(v, np.ndarray) else v
    if not isinstance(parts, (list, tuple)) or len(parts) != 3:
        raise DomainError(f"{name}={v!r}: expected a unit vector of three components")
    x, y, z = (c if type(c) is float and math.isfinite(c) else require_real(c, f"{name}[{i}]")
               for i, c in enumerate(parts))
    norm = math.hypot(x, y, z)
    if abs(norm - 1.0) > 1e-12:
        raise DomainError(
            f"{name}={v!r}: expected a unit vector (|{name}| = {norm:.12g}, tolerance 1e-12)"
        )
    return x, y, z


def q_direct(rho: DensityMatrix, theta: float, phi: float) -> float:
    """Q function straight from its definition,

    Q(theta, phi) = (2s+1)/(4 pi) <theta phi| rho |theta phi>.

    Nonnegative up to roundoff; independent route against evaluate(Q, ...).
    """
    scs = coherent_state(rho.s, theta, phi)
    a = scs.amplitudes
    overlap = complex(np.conj(a) @ rho.matrix @ a)
    return (rho.dim / (4.0 * math.pi)) * overlap.real


def _signed(kind: DistributionKind, ts: int, w: np.ndarray) -> np.ndarray:
    """sigma(k, q) w_k for w indexed by k: a [k, 2s + q] array for P and Q,
    (-1)^k w_k (-1)^q, exact, nonzero also where |q| > k (label entries there
    are zeros); a [k, 1] column for F, whose sigma is 1."""
    if kind is DistributionKind.F:
        return w[:, None]
    sign = fano._labels(ts)[1]
    return np.multiply.outer(w * sign[ts:], sign)


def _check_residue(residue: float, context: str) -> None:
    """Refuse an imaginary residue beyond _IMAG_TOL, or NaN (ConsistencyError)."""
    if not residue <= _IMAG_TOL:
        raise ConsistencyError(f"{context}: imaginary residue {residue:.3e} exceeds {_IMAG_TOL}")


def _require_real(values, context: str):
    """Real part of an array whose imaginary residue is within _IMAG_TOL
    (ConsistencyError otherwise)."""
    _check_residue(float(np.max(np.abs(np.imag(values)), initial=0.0)), context)
    return np.real(values)


def _real_scalar(z: complex, context: str) -> float:
    """_require_real for a Python complex (or float): its real part."""
    _check_residue(abs(z.imag), context)
    return z.real


def evaluate_many(kind: DistributionKind, t: FanoTensorSet, theta, phi) -> np.ndarray:
    """Vectorized distribution values at paired angle arrays.

    One ring-wise synthesis (angular._synthesize): the Legendre table is
    built on the distinct colatitudes only, once per grid (the plan cache),
    and both sums are BLAS products, so a band-K grid's nodes, in any order,
    cost O(K^3) rather than O(K^2 N).  The full complex sum is formed and its
    imaginary residue must stay within 1e-9 (ConsistencyError otherwise).
    """
    theta, phi = require_angle(theta, "theta"), require_angle(phi, "phi")
    ts = t.s.twice_value
    weighted = t.as_array() * _signed(kind, ts, _table(kind, ts))
    vals = _synthesize(weighted, theta, phi) / _SQRT4PI
    return _require_real(vals, f"evaluate({kind.value})")


def evaluate(kind: DistributionKind, t: FanoTensorSet, theta: float, phi: float) -> float:
    """Distribution value at a single point of the sphere."""
    theta, phi = _scalar_angles(theta=theta, phi=phi)
    return float(evaluate_many(kind, t, [theta], [phi])[0])


def evaluate_bipartite_many(
    kind: DistributionKind,
    t12: CoupledFanoTensorSet,
    theta1,
    phi1,
    theta2,
    phi2,
) -> np.ndarray:
    """Joint distribution on the outer product of two point sets.

    Returns shape (len(theta1), len(theta2)).
    """
    theta1, phi1 = require_angle(theta1, "theta1"), require_angle(phi1, "phi1")
    theta2, phi2 = require_angle(theta2, "theta2"), require_angle(phi2, "phi2")
    ts1, ts2 = t12.s1.twice_value, t12.s2.twice_value
    w1, w2 = _signed(kind, ts1, _table(kind, ts1)), _signed(kind, ts2, _table(kind, ts2))
    t4w = t12.as_array() * w1[:, :, None, None] * w2[None, None, :, :]
    # side 2's label axes first, then side 1's with side 2's points leading
    side2 = _synthesize(t4w, theta2, phi2)  # [k1, 2s1 + q1, m]
    vals = _synthesize(np.moveaxis(side2, -1, 0), theta1, phi1).T
    return _require_real(vals / (4.0 * math.pi), f"evaluate_bipartite({kind.value})")


def evaluate_bipartite(
    kind: DistributionKind,
    t12: CoupledFanoTensorSet,
    theta1: float,
    phi1: float,
    theta2: float,
    phi2: float,
) -> float:
    """Joint distribution value at one pair of directions."""
    angles = _scalar_angles(theta1=theta1, phi1=phi1, theta2=theta2, phi2=phi2)
    return float(evaluate_bipartite_many(kind, t12, *([x] for x in angles))[0, 0])


def classical_spin_vector(kind: DistributionKind, s, theta, phi) -> np.ndarray:
    """Classical spin vector the kind associates with a point of the sphere.

    P maps to s * n(pi-theta, phi), Q to (s+1) * n(pi-theta, phi), F to
    sqrt(s(s+1)) * n(theta, phi), with n(pi-theta, phi) =
    (sin t cos p, sin t sin p, -cos t).  theta and phi may be equal-shape
    arrays; the vector is then the last axis.
    """
    theta, phi = require_angle(theta, "theta"), require_angle(phi, "phi")
    magnitude, z_sign = _spin_scale(kind, require_spin(s))
    sin_t = np.sin(theta)
    n = np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), z_sign * np.cos(theta)], axis=-1)
    return magnitude * n


def _spin_scale(kind: DistributionKind, ts: int) -> tuple[float, float]:
    """The kind's classical magnitude at twice-spin ts, and the z sign of its
    direction: -1 for P and Q, which read n(pi - theta, phi), 1 for F."""
    s_val = ts / 2.0
    if _require_kind(kind) is DistributionKind.P:
        return s_val, -1.0
    if kind is DistributionKind.Q:
        return s_val + 1.0, -1.0
    return math.sqrt(s_val * (s_val + 1.0)), 1.0


def expectation(
    kind: DistributionKind,
    t: FanoTensorSet,
    a: np.ndarray,
    grid: SphereGrid,
) -> float:
    """Quantum expectation Tr(rho A) as a classical sphere average.

    The operator is mapped to a classical function through the kind's
    correspondence rule (weight sqrt(4 pi)/c_k per rank); integrating it
    against the distribution reproduces the trace for any grid that is exact
    at band 2s.  The distribution and the classical image come from one
    batched synthesis on the grid nodes, sharing one Legendre table on the
    ring angles; the distribution values pass the same imaginary-residue
    check as evaluate_many.  A complex integral blames a non-Hermitian `a`
    (DomainError beyond fano.HERMITICITY_TOL), else raises ConsistencyError.
    """
    ts = t.s.twice_value
    if grid.band_limit < ts:
        raise BandLimitError(
            f"grid band limit {grid.band_limit} is below 2s = {ts}; the sphere "
            "average would not be exact"
        )
    a = _require_array(a, "a", "entry", complex)
    if a.shape != (ts + 1, ts + 1):
        raise DomainError(
            f"operator shape {a.shape} does not match the spin-{ts}/2 space"
        )
    table = _table(kind, ts)
    # the operator resolution carries 1/(2s+1); its classical image inherits it
    inverse_weight = _SQRT4PI / (table * (ts + 1.0))
    weighted = np.stack([
        t.as_array() * _signed(kind, ts, table),
        operator_components(a) * _signed(kind, ts, inverse_weight),
    ])
    # one synthesis for the distribution and the operator's classical image,
    # so the two share one Legendre table
    w_vals, a_classical = _synthesize(weighted, grid.node_thetas, grid.node_phis)
    integrand = _require_real(w_vals / _SQRT4PI, f"evaluate({kind.value})") * a_classical
    try:
        return _real_scalar(integrate(grid, integrand), f"expectation({kind.value})")
    except ConsistencyError:
        defect = float(np.max(np.abs(a - a.conj().T)))
        if defect > HERMITICITY_TOL:
            raise DomainError(f"a: expected a Hermitian operator (max |a - a^dag| = "
                              f"{defect:.3e}, tolerance {HERMITICITY_TOL:g})") from None
        raise


def singlet_profile(kind: DistributionKind, s, theta12):
    """Joint singlet distribution as a function of the angle between the two
    directions:

    W(theta12) = (1/(4 pi)^2) sum_k (-1)^k (2k+1) c_k^2 P_k(cos theta12).

    Accepts angles of any shape.  P_k = sqrt(4 pi / (2k+1)) Pbar[k, 0], the
    q = 0 column of angular's half table, its factor moved onto the c_k^2.
    """
    ts = require_spin(s, lo=1)
    theta12 = require_angle(theta12, "theta12")
    pbar = _norm_legendre_table(ts, np.cos(theta12).reshape(-1), 0)[:, 0]
    k = np.arange(ts + 1)
    odd = 2 * k + 1
    with np.errstate(over="ignore"):
        coeffs = _finite(kind, ts, (-1.0) ** k * odd * _table(kind, ts) ** 2)
    vals = (coeffs * np.sqrt(4.0 * math.pi / odd) @ pbar) / (4.0 * math.pi) ** 2
    return float(vals[0]) if theta12.ndim == 0 else vals.reshape(theta12.shape)


def correlation_exact(s, a, b) -> float:
    """Closed-form joint spin correlation -s(s+1)/3 (a . b) for the singlet."""
    ts = require_spin(s)
    av, bv = _direction(a, "a"), _direction(b, "b")
    s_val = ts / 2.0
    return -s_val * (s_val + 1.0) / 3.0 * float(np.dot(av, bv))


def correlation(kind: DistributionKind, s, a, b, grid: SphereGrid) -> float:
    """Quadrature value of <(S1 . a)(S2 . b)> in the spin-s singlet.

    The integrand weights the joint distribution with the kind's classical
    vectors: magnitude s (P), s+1 (Q) or sqrt(s(s+1)) (F), with P and Q
    reading directions as n(pi-theta, phi).  Exact (to roundoff) whenever
    the grid integrates products of band 2s and band 1 harmonics, i.e. for
    band_limit >= s.  Coarser grids alias to wrong values, so they raise
    BandLimitError, as does band_limit < 2.

    Each side's classical component along d is a band-1 function, so only
    its projections onto ranks 0 and 1 enter.  Its coordinate i is a ring
    factor (sin t, sin t, z_sign cos t) times an azimuth factor (cos p,
    sin p, 1), so the quadrature sum a_kq = sum_n w_n f_n conj(Y_kq(n)) is
    sum_i magnitude d_i times sum_r w_r Y_k|q|(t_r, 0) (ring factor i) times
    sum_c (azimuth factor i) (-1)^q (q < 0) exp(-i q p_c): O(R + C) for R
    rings and C azimuths, its ring and azimuth Gram sums kept on the grid
    from its first correlation.  The [k, 1 + q] arrays are contracted with
    the singlet's t^{kk}_{q,-q} and the kind's c_k^2 (no c_k beyond c_1, so
    every kind answers at any spin).  The roundoff bound is first order, an
    eps a rounding (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., 2002, ch. 3): a term of a_kq meets at most R + 3 roundings in
    its ring sum, C + 2 in its azimuth sum and 11 after, so a_kq is within
    (R + C + 16) eps of its sums taken in absolute values; the contraction
    carries that and adds 15 eps of its terms' absolute sum (7 in c_1^2 /
    4 pi, 3 in products, 5 in additions).  A bound beyond 1e-9 s(s+1)/3, or
    an imaginary residue beyond 1e-9, raises ConsistencyError.
    """
    ts = require_spin(s, lo=1)
    if grid.band_limit < 2 or 2 * grid.band_limit < ts:
        raise BandLimitError(
            f"grid band limit {grid.band_limit} is too coarse for 2s = {ts}; "
            "correlation needs band >= 2 and 2 * band >= 2s"
        )
    magnitude, z_sign = _spin_scale(kind, ts)
    d = np.array([_direction(a, "a"), _direction(b, "b")]) * [1.0, 1.0, z_sign] * magnitude
    ring, gram = grid._correlation_sums  # built on the grid's first correlation
    sums = _Y_RANK1 * ring[:, _RING_ROWS, _RING_COLUMNS] * (gram @ _PHASE)
    # each side's a_kq, and its bound: (R + C + 16) eps its sums of absolute values
    sides = np.array([d, np.abs(d) * ((grid.n_theta + grid.n_phi + 16) * _EPS)]) @ sums
    (left, right), (left_err, right_err) = sides.reshape(2, 2, 2, 3).tolist()
    # side 1's (k, q) meets side 2's (k, -q): sigma(k, q) c_k sigma(k, -q) c_k = c_k^2
    total, bound, abs_total = 0j, 0.0, 0.0
    for k, (signs, c) in enumerate(zip(_SINGLET_RANK1, _table(kind, ts, 1).tolist())):
        for i, sign in enumerate(signs):
            coupling = sign * (c * c) / (4.0 * math.pi)
            l, r = left[k][i], right[k][2 - i]
            dl, dr = left_err[k][i].real, right_err[k][2 - i].real
            term = coupling * l * r
            total, abs_total = total + term, abs_total + abs(term)
            # |LR - L'R'| <= |L'| dR + dL |R'| + dL dR
            bound += abs(coupling) * (abs(l) * dr + dl * abs(r) + dl * dr)
    bound += 15 * _EPS * abs_total
    tolerance = _CORRELATION_RTOL * ts * (ts + 2.0) / 12.0  # s(s+1)/3 = 2s (2s + 2) / 12
    if not bound <= tolerance:
        raise ConsistencyError(
            f"correlation({kind.value}): roundoff bound {bound:.3e} exceeds "
            f"tolerance {tolerance:.3e} ({_CORRELATION_RTOL:g} s(s+1)/3)"
        )
    return _real_scalar(total, f"correlation({kind.value})")


def classical_limit_table(kind: DistributionKind, k: int, s_list) -> list[float]:
    """coefficient(kind, s, k) for each listed spin; approaches 1 as s grows."""
    return [coefficient(kind, s, k) for s in s_list]
