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
(angular._synthesize): the Legendre sum runs on the distinct colatitudes
only and the azimuthal sum on the distinct azimuths, O(K^2 R + K N) for R
distinct colatitudes among N points with K = 2s, so O(K^3) on a band-K
grid; no harmonic table over all points is built.  The joint form applies
it along side 2's labels, then side 1's.  Coefficient tables are immutable
and cached per spin, all three kinds in one entry of a byte-bounded
_RankCache, so everything here is safe for concurrent use.

The singlet correlation never forms the joint distribution on the grid: it
projects each side's classical vector (_spin_vector, behind
classical_spin_vector, the one statement of each kind's magnitude and
orientation) onto harmonics ring by
ring (quadrature.project) and contracts the two [k, 2s + q] arrays with the
singlet's coefficients, O(K^3) for a grid of band K.  It needs band >= s
(BandLimitError otherwise; coarser grids alias).  Its roundoff bound
travels with it, and a result the bound cannot certify to 1e-9 s(s+1)/3
raises ConsistencyError (P from 2s = 26 on, on band-2s grids).  A P
coefficient that a call would return or use and that overflows the float
range is refused with DomainError (_finite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .angular import (
    HalfInteger,
    _RankCache,
    _synthesize,
    legendre_sequence,
    require_angle,
    require_int,
    require_spin,
)
from .errors import BandLimitError, ConsistencyError, DomainError, ValidationError
from .fano import (
    CoupledFanoTensorSet,
    DensityMatrix,
    FanoTensorSet,
    _frozen,
    _owned,
    _singlet_coefficients,
)
from .quadrature import SphereGrid, integrate, project
from .tensor_ops import operator_components

__all__ = [
    "DistributionKind",
    "SpinCoherentState",
    "DirectionVector",
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


# keyed by twice-spin; one entry holds all three kinds, 24 (2s + 1) bytes
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
    """Maximal-weight spin state rotated to point along (theta, phi)."""

    s: HalfInteger
    theta: float
    phi: float
    amplitudes: np.ndarray

    def __post_init__(self):
        ts = require_spin(self.s)
        amplitudes = _owned(self.amplitudes)
        if amplitudes.shape != (ts + 1,):
            raise ValidationError(
                f"coherent state amplitudes of shape {amplitudes.shape}, expected ({ts + 1},)"
            )
        norm = float(np.sum(np.abs(amplitudes) ** 2))
        if not abs(norm - 1.0) <= 1e-12:
            raise ConsistencyError(f"coherent state norm {norm} deviates from 1")
        object.__setattr__(self, "s", HalfInteger(ts))
        object.__setattr__(self, "theta", float(require_angle(self.theta, "theta")))
        object.__setattr__(self, "phi", float(require_angle(self.phi, "phi")))
        object.__setattr__(self, "amplitudes", amplitudes)


def coherent_state(s, theta: float, phi: float) -> SpinCoherentState:
    """Spin coherent (Bloch) state with amplitudes

    <s m|theta phi> = sqrt(C(2s, s+m)) cos(theta/2)^(s-m) sin(theta/2)^(s+m)
                       exp(-i (s+m) phi)

    in the descending-m ordering.  theta = 0 gives |s, -s>; theta = pi gives
    |s, +s> up to the phase exp(-i 2s phi).  Works at any spin.
    """
    ts = require_spin(s)
    theta = float(require_angle(theta, "theta")) % (2.0 * math.pi)
    phi = float(require_angle(phi, "phi")) % (2.0 * math.pi)
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
    return SpinCoherentState(HalfInteger(ts), theta, phi, _frozen(amps))


@dataclass(frozen=True)
class DirectionVector:
    """Unit vector on the sphere (validated to 1e-12)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for comp in (self.x, self.y, self.z):
            if not math.isfinite(comp):
                raise DomainError("direction components must be finite")
        norm = math.sqrt(self.x**2 + self.y**2 + self.z**2)
        if abs(norm - 1.0) > 1e-12:
            raise DomainError(f"direction must be a unit vector, |v| = {norm:.15g}")

    @classmethod
    def from_any(cls, v) -> "DirectionVector":
        if isinstance(v, DirectionVector):
            return v
        arr = np.asarray(v, dtype=float).reshape(-1)
        if arr.shape != (3,):
            raise DomainError(f"direction must have three components, got {v!r}")
        return cls(float(arr[0]), float(arr[1]), float(arr[2]))

    @classmethod
    def normalized(cls, v) -> "DirectionVector":
        arr = np.asarray(v, dtype=float).reshape(-1)
        if arr.shape != (3,):
            raise DomainError(f"direction must have three components, got {v!r}")
        norm = float(np.linalg.norm(arr))
        if norm <= 0.0 or not math.isfinite(norm):
            raise DomainError("cannot normalize a zero or non-finite vector")
        arr = arr / norm
        return cls(float(arr[0]), float(arr[1]), float(arr[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


def q_direct(rho: DensityMatrix, theta: float, phi: float) -> float:
    """Q function straight from its definition,

    Q(theta, phi) = (2s+1)/(4 pi) <theta phi| rho |theta phi>.

    Nonnegative up to roundoff; independent route against evaluate(Q, ...).
    """
    scs = coherent_state(rho.s, theta, phi)
    a = scs.amplitudes
    overlap = complex(np.conj(a) @ rho.matrix @ a)
    return (rho.dim / (4.0 * math.pi)) * overlap.real


def _sign_matrix(kind: DistributionKind, ts: int) -> np.ndarray:
    """sigma(k, q) as a [k, 2s + q] array: (-1)^(k+q), the singlet's
    coefficients, for P and Q (zero where |q| > k); all ones for F."""
    if kind is DistributionKind.F:
        return np.ones((ts + 1, 2 * ts + 1))
    return _singlet_coefficients(ts)


def _weights(kind: DistributionKind, ts: int) -> np.ndarray:
    """The kind's label weights sigma(k, q) c_k as a [k, 2s + q] array."""
    return _sign_matrix(kind, ts) * _table(kind, ts)[:, None]


def _require_real(values, context: str):
    """Real part of an array or scalar whose imaginary residue is within
    _IMAG_TOL (ConsistencyError otherwise)."""
    residue = float(np.max(np.abs(np.imag(values)), initial=0.0))
    if not residue <= _IMAG_TOL:
        raise ConsistencyError(f"{context}: imaginary residue {residue:.3e} exceeds {_IMAG_TOL}")
    return np.real(values)


def evaluate_many(kind: DistributionKind, t: FanoTensorSet, theta, phi) -> np.ndarray:
    """Vectorized distribution values at paired angle arrays.

    One ring-wise synthesis (angular._synthesize): the Legendre table is
    built on the distinct colatitudes only, so a band-K grid costs O(K^3)
    rather than O(K^2 N).  The full complex sum is formed and its imaginary
    residue must stay within 1e-9 (ConsistencyError otherwise).
    """
    theta, phi = require_angle(theta, "theta"), require_angle(phi, "phi")
    weighted = t.as_array() * _weights(kind, t.s.twice_value)
    vals = _synthesize(weighted, theta, phi) / _SQRT4PI
    return _require_real(vals, f"evaluate({kind.value})")


def evaluate(kind: DistributionKind, t: FanoTensorSet, theta: float, phi: float) -> float:
    """Distribution value at a single point of the sphere."""
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
    w1 = _weights(kind, t12.s1.twice_value)
    w2 = _weights(kind, t12.s2.twice_value)
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
    return float(
        evaluate_bipartite_many(kind, t12, [theta1], [phi1], [theta2], [phi2])[0, 0]
    )


def _bloch_vector(theta: np.ndarray, phi: np.ndarray, flip_z: bool) -> np.ndarray:
    sin_t = np.sin(theta)
    z = -np.cos(theta) if flip_z else np.cos(theta)
    return np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), z], axis=-1)


def classical_spin_vector(kind: DistributionKind, s, theta, phi) -> np.ndarray:
    """Classical spin vector the kind associates with a point of the sphere.

    P maps to s * n(pi-theta, phi), Q to (s+1) * n(pi-theta, phi), F to
    sqrt(s(s+1)) * n(theta, phi), with n(pi-theta, phi) =
    (sin t cos p, sin t sin p, -cos t).  theta and phi may be equal-shape
    arrays; the vector is then the last axis.
    """
    theta, phi = require_angle(theta, "theta"), require_angle(phi, "phi")
    return _spin_vector(kind, require_spin(s), theta, phi)


def _spin_vector(kind: DistributionKind, ts: int, theta, phi) -> np.ndarray:
    """classical_spin_vector at twice-spin ts, for angle arrays already checked."""
    s_val = ts / 2.0
    if _require_kind(kind) is DistributionKind.P:
        return s_val * _bloch_vector(theta, phi, flip_z=True)
    if kind is DistributionKind.Q:
        return (s_val + 1.0) * _bloch_vector(theta, phi, flip_z=True)
    return math.sqrt(s_val * (s_val + 1.0)) * _bloch_vector(theta, phi, flip_z=False)


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
    check as evaluate_many.
    """
    ts = t.s.twice_value
    if grid.band_limit < ts:
        raise BandLimitError(
            f"grid band limit {grid.band_limit} is below 2s = {ts}; the sphere "
            "average would not be exact"
        )
    a = np.asarray(a, dtype=complex)
    if a.shape != (ts + 1, ts + 1):
        raise DomainError(
            f"operator shape {a.shape} does not match the spin-{ts}/2 space"
        )
    table = _table(kind, ts)
    # the operator resolution carries 1/(2s+1); its classical image inherits it
    inverse_weight = _SQRT4PI / (table * (ts + 1.0))
    weighted = np.stack([
        t.as_array() * _weights(kind, ts),
        operator_components(a) * _sign_matrix(kind, ts) * inverse_weight[:, None],
    ])
    # one synthesis for the distribution and the operator's classical image,
    # so the two share one Legendre table
    w_vals, a_classical = _synthesize(weighted, grid.node_thetas, grid.node_phis)
    integrand = _require_real(w_vals / _SQRT4PI, f"evaluate({kind.value})") * a_classical
    return float(_require_real(integrate(grid, integrand), f"expectation({kind.value})"))


def singlet_profile(kind: DistributionKind, s, theta12):
    """Joint singlet distribution as a function of the angle between the two
    directions:

    W(theta12) = (1/(4 pi)^2) sum_k (-1)^k (2k+1) c_k^2 P_k(cos theta12).

    Accepts a scalar or array of angles.
    """
    ts = require_spin(s, lo=1)
    theta12 = require_angle(theta12, "theta12")
    scalar = theta12.ndim == 0
    x = np.cos(np.atleast_1d(theta12))
    p = legendre_sequence(ts, x)
    c = _table(kind, ts)
    k = np.arange(ts + 1)
    signs = np.where(k % 2 == 0, 1.0, -1.0)
    with np.errstate(over="ignore"):
        coeffs = signs * (2 * k + 1) * c**2
    vals = (_finite(kind, ts, coeffs) @ p) / (4.0 * math.pi) ** 2
    return float(vals[0]) if scalar else vals


def correlation_exact(s, a, b) -> float:
    """Closed-form joint spin correlation -s(s+1)/3 (a . b) for the singlet."""
    ts = require_spin(s)
    av = DirectionVector.from_any(a).as_array()
    bv = DirectionVector.from_any(b).as_array()
    s_val = ts / 2.0
    return -s_val * (s_val + 1.0) / 3.0 * float(av @ bv)


def correlation(kind: DistributionKind, s, a, b, grid: SphereGrid) -> float:
    """Quadrature value of <(S1 . a)(S2 . b)> in the spin-s singlet.

    The integrand weights the joint distribution with the kind's classical
    vectors: magnitude s (P), s+1 (Q) or sqrt(s(s+1)) (F), with P and Q
    reading directions as n(pi-theta, phi).  Exact (to roundoff) whenever
    the grid integrates products of band 2s and band 1 harmonics, i.e. for
    band_limit >= s.  Coarser grids alias to wrong values, so they raise
    BandLimitError, as does band_limit < 2.

    Each side's classical component along a (b) is projected onto harmonics
    (quadrature.project), and the two [k, 2s + q] arrays are contracted with
    the singlet's coefficients t^{kk}_{q,-q} and the kind's weights.  This
    is the quadrature sum left @ W12 @ right with the products grouped
    differently, equal on every grid, in O(K^3) time and O(K^2 n_theta)
    memory; the N x N joint matrix is never formed.  The projections' roundoff
    bounds are carried through the contraction; ConsistencyError is raised
    when the result's bound exceeds 1e-9 s(s+1)/3.  P reaches it from
    2s = 26 on band-2s grids, because its c_k^2 grow like 16^s.
    """
    ts = require_spin(s, lo=1)
    if grid.band_limit < 2 or 2 * grid.band_limit < ts:
        raise BandLimitError(
            f"grid band limit {grid.band_limit} is too coarse for 2s = {ts}; "
            "correlation needs band >= 2 and 2 * band >= 2s"
        )
    av = DirectionVector.from_any(a).as_array()
    bv = DirectionVector.from_any(b).as_array()
    s_val = ts / 2.0
    # the kind's weights sigma(k, q) c_k and sigma(k, -q) c_k multiply to c_k^2,
    # refused before the projections if they overflow
    with np.errstate(over="ignore"):
        c_squared = _finite(kind, ts, _table(kind, ts) ** 2)[:, None]
    vectors = _spin_vector(kind, ts, grid.node_thetas, grid.node_phis)
    (left, right), (left_err, right_err) = project(
        grid, np.stack([vectors @ av, vectors @ bv]), ts
    )
    # side 1's column 2s + q meets side 2's column 2s - q
    right, right_err = right[:, ::-1], right_err[:, ::-1]
    coupling = _singlet_coefficients(ts) * c_squared / (4.0 * math.pi)
    terms = coupling * left * right
    # per term |LR - L'R'| <= |L'| dR + dL |R'| + dL dR, plus the sum's rounding
    pair_err = np.abs(left) * right_err + left_err * np.abs(right) + left_err * right_err
    bound = float(
        np.sum(np.abs(coupling) * pair_err)
        + terms.size * np.finfo(float).eps * np.sum(np.abs(terms))
    )
    tolerance = _CORRELATION_RTOL * s_val * (s_val + 1.0) / 3.0
    if not bound <= tolerance:
        raise ConsistencyError(
            f"correlation({kind.value}): roundoff bound {bound:.3e} exceeds "
            f"tolerance {tolerance:.3e} ({_CORRELATION_RTOL:g} s(s+1)/3)"
        )
    return float(_require_real(np.sum(terms), f"correlation({kind.value})"))


def classical_limit_table(kind: DistributionKind, k: int, s_list) -> list[float]:
    """coefficient(kind, s, k) for each listed spin; approaches 1 as s grows."""
    return [coefficient(kind, s, k) for s in s_list]
