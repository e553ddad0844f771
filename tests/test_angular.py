import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import eval_legendre

from spinphase import (
    DomainError,
    FanoTensorSet,
    HalfInteger,
    build_grid,
    clebsch_gordan,
    rotate_tensors,
    spherical_harmonic,
    wigner_D,
    wigner_D_matrix,
    wigner_d,
)
from conftest import harmonic_table, norm_legendre_table_oracle, signed_table
from spinphase import angular
from spinphase.angular import (
    _legendre_coefficients,
    _norm_legendre_table,
    _q_signs,
    _rank_blocks,
    _RankCache,
    _synthesize,
)

# ---------------------------------------------------------------- oracles


def exact_log_factorial(n: int) -> float:
    return math.log(math.factorial(n))


def ladder_spin_matrices(ts: int):
    """Sz and S+ in the descending-m basis, from the ladder formula."""
    n = ts + 1
    s = ts / 2.0
    sz = np.diag([(ts - 2 * i) / 2.0 for i in range(n)]).astype(complex)
    sp_ = np.zeros((n, n), dtype=complex)
    for i in range(1, n):
        m = s - i
        sp_[i - 1, i] = math.sqrt(s * (s + 1) - m * (m + 1))
    return sz, sp_


def racah_cg_scalar(ts1, ts2, ts, tm1, tm2, tm):
    """The label-by-label Racah sum the array kernel replaced, transcribed as
    it stood: the bit-identity oracle for clebsch_gordan and the tensor bands.
    Twice-value labels that pass every selection rule."""
    lf = angular._log_factorial
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


def jy_eigenbasis(tk: int) -> tuple[np.ndarray, np.ndarray]:
    """The per-rank J_y eigenbasis the rank blocks replaced, transcribed as it
    stood: J_x's eigenvectors U by the dense eigh, stored as G = sigma U split
    into even and odd rows."""
    n = tk + 1
    half_jp = 0.5 * angular._ladder(tk)
    _, vecs = np.linalg.eigh(np.diag(half_jp, 1) + np.diag(half_jp, -1))
    sigma = np.where(np.arange(n) % 4 < 2, 1.0, -1.0)
    g = sigma[:, None] * vecs
    return np.ascontiguousarray(g[::2]), np.ascontiguousarray(g[1::2])


def apply_d_copying(tk: int, beta: float, v: np.ndarray) -> np.ndarray:
    """d^k(beta) @ v by the per-rank route, transcribed as it stood before it
    wrote in place, took its phase table from the caller and ran in rank
    blocks: the dense-eigh basis, a contiguous copy of v, a fresh
    exp(i beta mu) and a new output array.  The independent roundoff oracle
    for the Wigner functions and rotate_tensors."""
    even, odd = jy_eigenbasis(tk)
    complex_v = np.iscomplexobj(v)
    cols = np.ascontiguousarray(v).reshape(tk + 1, -1)
    cols = cols.view(float) if complex_v else cols
    y = odd.T @ cols[1::2] * 1j
    y += even.T @ cols[::2]
    y *= np.exp(1j * beta * np.arange(-0.5 * tk, 0.5 * tk + 1.0))[:, None]
    out = np.empty(cols.shape)
    out[::2] = even @ y.real
    out[1::2] = odd @ y.imag
    return (out.view(complex) if complex_v else out).reshape(v.shape)


def rotation_by_exponentials(ts: int, alpha: float, beta: float, gamma: float):
    """exp(-i a Sz) exp(-i b Sy) exp(-i g Sz) built by matrix exponentials."""
    sz, sp_ = ladder_spin_matrices(ts)
    sy = (sp_ - sp_.conj().T) / 2j
    return expm(-1j * alpha * sz) @ expm(-1j * beta * sy) @ expm(-1j * gamma * sz)


# ---------------------------------------------------------- log factorial


def test_log_factorial_trivial():
    assert angular._log_factorial(0) == 0.0
    assert angular._log_factorial(1) == 0.0


def test_log_factorial_ten():
    # ln(3628800), from the exact integer product
    assert angular._log_factorial(10) == pytest.approx(15.104412573075516, rel=1e-15)


def test_log_factorial_matches_exact_up_to_400():
    for n in range(2, 401):
        exact = exact_log_factorial(n)
        assert abs(angular._log_factorial(n) - exact) <= 1e-14 * exact


# ------------------------------------------------------------ HalfInteger


def test_half_integer_basics():
    h = HalfInteger.from_value(1.5)
    assert h.twice_value == 3
    assert h.value == 1.5
    assert not h.is_integer
    assert str(h) == "3/2"
    assert str(HalfInteger(4)) == "2"


def test_half_integer_rejects_non_half():
    with pytest.raises(DomainError):
        HalfInteger.from_value(0.3)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_half_integer_rejects_non_finite_naming_value(value):
    with pytest.raises(DomainError, match=f"^value={value!r}: expected a half-integer"):
        HalfInteger.from_value(value)
    with pytest.raises(DomainError, match=repr(value)):
        angular.require_spin(value)


@given(st.integers(min_value=-200, max_value=200))
def test_half_integer_roundtrip(tv):
    h = HalfInteger(tv)
    assert HalfInteger.from_value(h.value).twice_value == tv


# -------------------------------------------------------- Clebsch-Gordan


def test_cg_spin_zero_coupling_is_identity():
    for ts in range(0, 7):
        for tm in range(-ts, ts + 1, 2):
            assert clebsch_gordan(ts / 2, 0, ts / 2, tm / 2, 0, tm / 2) == pytest.approx(
                1.0, abs=1e-14
            )


def test_cg_stretched_values():
    # c(s k s; s 0 s) = (2s)! sqrt((2s+1) / ((2s-k)! (2s+k+1)!))
    assert clebsch_gordan(0.5, 1, 0.5, 0.5, 0, 0.5) == pytest.approx(
        0.5773502691896258, abs=1e-12
    )
    assert clebsch_gordan(1, 2, 1, 1, 0, 1) == pytest.approx(0.3162277660168379, abs=1e-12)
    lf = angular._log_factorial
    for ts in range(1, 11):
        for k in range(0, ts + 1):
            closed = math.exp(lf(ts) + 0.5 * (math.log(ts + 1.0) - lf(ts - k) - lf(ts + k + 1)))
            got = clebsch_gordan(ts / 2, k, ts / 2, ts / 2, 0, ts / 2)
            assert got == pytest.approx(closed, rel=1e-12)


def test_cg_singlet_from_total_spin_diagonalization():
    # brute force: diagonalize S_total^2 on the product of two spin-1/2
    # systems and read the zero-eigenvalue vector's components
    sz, sp_ = ladder_spin_matrices(1)
    sm = sp_.conj().T
    sx = (sp_ + sm) / 2
    sy = (sp_ - sm) / 2j
    eye = np.eye(2)
    total = [np.kron(op, eye) + np.kron(eye, op) for op in (sx, sy, sz)]
    s2 = sum(op @ op for op in total)
    evals, evecs = np.linalg.eigh(s2)
    idx = int(np.argmin(np.abs(evals)))
    assert abs(evals[idx]) < 1e-12
    vec = evecs[:, idx]
    if vec[1].real < 0:
        vec = -vec
    # product basis order: (+,+), (+,-), (-,+), (-,-)
    assert clebsch_gordan(0.5, 0.5, 0, 0.5, -0.5, 0) == pytest.approx(
        vec[1].real, abs=1e-12
    )
    assert clebsch_gordan(0.5, 0.5, 0, 0.5, -0.5, 0) == pytest.approx(
        0.7071067811865476, abs=1e-12
    )
    assert clebsch_gordan(0.5, 0.5, 0, -0.5, 0.5, 0) == pytest.approx(
        vec[2].real, abs=1e-12
    )


def test_cg_selection_rules_return_zero():
    assert clebsch_gordan(0.5, 0.5, 1, 0.5, 0.5, 0) == 0.0  # m != m1 + m2
    assert clebsch_gordan(0.5, 0.5, 2, 0.5, -0.5, 0) == 0.0  # triangle violated
    assert clebsch_gordan(1, 1, 2, 1, 0, 0) == 0.0  # m != m1 + m2
    assert clebsch_gordan(1, 1, 3, 1, 1, 2) == 0.0  # s beyond s1 + s2


def random_cg_labels(rng, count, ts_max=40):
    """Twice-value labels (ts1, ts2, ts, tm1, tm2, tm) with valid pairings:
    unequal and half-integer spins up to 2s = ts_max, about one in four
    breaking a selection rule (m != m1 + m2, the triangle or its parity)."""
    labels = []
    while len(labels) < count:
        ts1, ts2 = (int(v) for v in rng.integers(0, ts_max + 1, 2))
        tm1 = ts1 - 2 * int(rng.integers(0, ts1 + 1))
        tm2 = ts2 - 2 * int(rng.integers(0, ts2 + 1))
        if rng.random() < 0.75:
            ts = abs(ts1 - ts2) + 2 * int(rng.integers(0, min(ts1, ts2) + 1))
            tm = tm1 + tm2
        else:
            ts = int(rng.integers(0, 2 * ts_max + 1))
            tm = ts - 2 * int(rng.integers(0, ts + 1))
        if abs(tm) <= ts and (tm - ts) % 2 == 0:
            labels.append((ts1, ts2, ts, tm1, tm2, tm))
    return labels


# <s1 0; s2 0 | s 0> with s1 + s2 + s odd: zero only through the sum's cancellation
CANCELLATION_ZEROS = [(2, 2, 2, 0, 0, 0), (4, 4, 2, 0, 0, 0), (2, 4, 4, 0, 0, 0), (6, 8, 8, 0, 0, 0)]


def test_cg_bytes_equal_scalar_racah_sum():
    rng = np.random.default_rng(1401)
    # spins up to 2s = 1000 reach factorials beyond the 500-entry table (lgamma)
    labels = random_cg_labels(rng, 2400) + random_cg_labels(rng, 60, 1000) + CANCELLATION_ZEROS
    kinds = set()
    for ts1, ts2, ts, tm1, tm2, tm in labels:
        got = clebsch_gordan(ts1 / 2, ts2 / 2, ts / 2, tm1 / 2, tm2 / 2, tm / 2)
        valid = tm1 + tm2 == tm and abs(ts1 - ts2) <= ts <= ts1 + ts2
        valid = valid and (ts1 + ts2 + ts) % 2 == 0
        expected = racah_cg_scalar(ts1, ts2, ts, tm1, tm2, tm) if valid else 0.0
        assert np.float64(got).tobytes() == np.float64(expected).tobytes(), (ts1, ts2, ts, tm1, tm2)
        kinds.add((valid, got == 0.0, ts1 % 2 == 1, ts1 != ts2))
    # nonzero and zero values, half-integer and unequal spins all occur
    assert {(True, False), (True, True), (False, True)} <= {k[:2] for k in kinds}
    assert {k[2] for k in kinds} == {True, False} and {k[3] for k in kinds} == {True, False}
    for ts1, ts2, ts, tm1, tm2, tm in CANCELLATION_ZEROS:
        assert clebsch_gordan(ts1 / 2, ts2 / 2, ts / 2, 0, 0, 0) == 0.0


def test_cg_pairing_domain_errors():
    with pytest.raises(DomainError):
        clebsch_gordan(0.5, 1, 0.5, 0.0, 0, 0.5)  # parity mismatch m1 vs s1
    with pytest.raises(DomainError):
        clebsch_gordan(1, 1, 1, 2, 0, 1)  # |m1| > s1
    with pytest.raises(DomainError):
        clebsch_gordan(-1, 1, 1, 0, 0, 0)  # negative spin


def _valid_spins(limit_ts):
    for ts1 in range(limit_ts + 1):
        for ts2 in range(limit_ts + 1):
            yield ts1, ts2


def test_cg_orthogonality_small_sweep():
    for ts1, ts2 in _valid_spins(4):
        dim = (ts1 + 1) * (ts2 + 1)
        mat = np.zeros((dim, dim))
        cols = []
        for ts in range(abs(ts1 - ts2), ts1 + ts2 + 1, 2):
            for tm in range(ts, -ts - 1, -2):
                cols.append((ts, tm))
        for j, (ts, tm) in enumerate(cols):
            row = 0
            for tm1 in range(ts1, -ts1 - 1, -2):
                for tm2 in range(ts2, -ts2 - 1, -2):
                    mat[row, j] = clebsch_gordan(
                        ts1 / 2, ts2 / 2, ts / 2, tm1 / 2, tm2 / 2, (tm1 + tm2) / 2
                    ) if tm1 + tm2 == tm else 0.0
                    row += 1
        gram = mat.T @ mat
        assert np.max(np.abs(gram - np.eye(dim))) < 1e-12


def test_cg_symmetry_relations():
    # the three standard symmetries, swept over all small-spin labels
    for ts1, ts2 in _valid_spins(6):
        for ts in range(abs(ts1 - ts2), ts1 + ts2 + 1, 2):
            phase_12 = -1.0 if ((ts1 + ts2 - ts) // 2) % 2 else 1.0
            for tm1 in range(-ts1, ts1 + 1, 2):
                for tm2 in range(-ts2, ts2 + 1, 2):
                    tm = tm1 + tm2
                    if abs(tm) > ts:
                        continue
                    base = clebsch_gordan(
                        ts1 / 2, ts2 / 2, ts / 2, tm1 / 2, tm2 / 2, tm / 2
                    )
                    flipped = clebsch_gordan(
                        ts1 / 2, ts2 / 2, ts / 2, -tm1 / 2, -tm2 / 2, -tm / 2
                    )
                    swapped = clebsch_gordan(
                        ts2 / 2, ts1 / 2, ts / 2, tm2 / 2, tm1 / 2, tm / 2
                    )
                    assert base == pytest.approx(phase_12 * flipped, abs=1e-12)
                    assert base == pytest.approx(phase_12 * swapped, abs=1e-12)
                    # exchange of the second and third slots
                    phase_13 = -1.0 if ((ts1 - tm1) // 2) % 2 else 1.0
                    scale = math.sqrt((ts + 1.0) / (ts2 + 1.0))
                    exchanged = clebsch_gordan(
                        ts1 / 2, ts / 2, ts2 / 2, tm1 / 2, -tm / 2, -tm2 / 2
                    )
                    assert base == pytest.approx(
                        phase_13 * scale * exchanged, abs=1e-12
                    )


def test_cg_diagonal_sum_rule():
    for ts in range(0, 11):
        for k in range(0, ts + 1):
            total = math.fsum(
                clebsch_gordan(ts / 2, k, ts / 2, tm / 2, 0, tm / 2)
                for tm in range(-ts, ts + 1, 2)
            )
            expected = (ts + 1.0) if k == 0 else 0.0
            assert total == pytest.approx(expected, abs=1e-12)


# --------------------------------------------------------------- Legendre


def legendre(k: int, x: float) -> float:
    """P_k(x) = sqrt(4 pi / (2k+1)) Pbar[k, 0], from the library's one
    Legendre recurrence at a scalar x."""
    pbar = _norm_legendre_table(k, np.array([x]), 0)[k, 0, 0]
    return math.sqrt(4.0 * math.pi / (2 * k + 1)) * float(pbar)


def test_legendre_trivial():
    # the normalization's roundoff: P_0 is 1 - 1.1e-16 here
    assert legendre(0, 0.3) == pytest.approx(1.0, abs=2.3e-16)
    assert legendre(1, -0.25) == pytest.approx(-0.25, abs=1e-16)


def test_legendre_closed_forms():
    # quadratic and cubic closed forms as the oracle
    for x in (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0):
        assert legendre(2, x) == pytest.approx((3 * x * x - 1) / 2, abs=1e-15)
        assert legendre(3, x) == pytest.approx((5 * x**3 - 3 * x) / 2, abs=1e-15)
    assert legendre(2, 0.5) == pytest.approx(-0.125, abs=1e-15)


def test_legendre_endpoint_values_high_degree():
    for k in (10, 50, 200):
        assert legendre(k, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert legendre(k, -1.0) == pytest.approx((-1.0) ** k, abs=1e-12)


@given(st.integers(min_value=0, max_value=60), st.floats(min_value=-1.0, max_value=1.0))
@settings(max_examples=80, deadline=None)
def test_legendre_bounded(k, x):
    assert abs(legendre(k, x)) <= 1.0 + 1e-12


# ---------------------------------------------------- spherical harmonics


def test_harmonic_constant_mode():
    for theta, phi in [(0.1, 0.0), (1.2, 2.0), (3.0, 5.5)]:
        assert spherical_harmonic(0, 0, theta, phi) == pytest.approx(
            0.28209479177387814, abs=1e-15
        )


def test_harmonic_dipole_pole_value():
    # sqrt(3 / 4 pi) from the normalization oracle
    assert spherical_harmonic(1, 0, 0.0, 0.0).real == pytest.approx(
        math.sqrt(3.0 / (4.0 * math.pi)), abs=1e-15
    )


def test_harmonic_conjugation_symmetry(rng):
    for _ in range(20):
        k = int(rng.integers(0, 13))
        q = int(rng.integers(-k, k + 1)) if k else 0
        theta = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        y = spherical_harmonic(k, q, theta, phi)
        y_neg = spherical_harmonic(k, -q, theta, phi)
        assert np.conj(y) == pytest.approx((-1.0) ** q * y_neg, abs=1e-13)


def test_harmonic_parity_symmetry(rng):
    # Y_kq(theta, phi) = (-1)^k Y_kq(pi - theta, pi + phi)
    for _ in range(20):
        k = int(rng.integers(0, 10))
        q = int(rng.integers(-k, k + 1)) if k else 0
        theta = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        lhs = spherical_harmonic(k, q, theta, phi)
        rhs = (-1.0) ** k * spherical_harmonic(k, q, math.pi - theta, math.pi + phi)
        assert lhs == pytest.approx(rhs, abs=1e-13)


def test_addition_theorem(rng):
    # sum_q Y_kq(1) Y*_kq(2) = (2k+1)/(4 pi) P_k(cos angle_12)
    for _ in range(100):
        k = int(rng.integers(0, 13))
        t1, t2 = rng.uniform(0, math.pi, 2)
        p1, p2 = rng.uniform(0, 2 * math.pi, 2)
        total = sum(
            spherical_harmonic(k, q, t1, p1) * np.conj(spherical_harmonic(k, q, t2, p2))
            for q in range(-k, k + 1)
        )
        cos12 = math.cos(t1) * math.cos(t2) + math.sin(t1) * math.sin(t2) * math.cos(p1 - p2)
        expected = (2 * k + 1) / (4 * math.pi) * eval_legendre(k, cos12)
        assert total.real == pytest.approx(expected, abs=1e-12)
        assert abs(total.imag) < 1e-12


def test_harmonic_table_matches_scalar(rng):
    thetas = rng.uniform(0, math.pi, 5)
    phis = rng.uniform(0, 2 * math.pi, 5)
    table = harmonic_table(6, thetas, phis)
    for k in range(7):
        for q in range(-k, k + 1):
            for n in range(5):
                assert table[k, 6 + q, n] == pytest.approx(
                    spherical_harmonic(k, q, thetas[n], phis[n]), abs=1e-13
                )


def test_harmonic_high_degree_accuracy():
    # closed form for the zonal harmonic: Y_k0 = sqrt((2k+1)/4pi) P_k(cos t)
    for k in (50, 100):
        for theta in (0.3, 1.0, 2.2):
            got = spherical_harmonic(k, 0, theta, 0.7)
            expected = math.sqrt((2 * k + 1) / (4 * math.pi)) * eval_legendre(k, math.cos(theta))
            assert got.real == pytest.approx(expected, abs=1e-12)
            assert abs(got.imag) < 1e-15


def test_legendre_high_degree_scipy_oracle():
    for k in (50, 120, 200):
        for x in (-0.9, -0.3, 0.0, 0.3, 0.7, 0.99):
            assert abs(legendre(k, x) - eval_legendre(k, x)) < 1e-12


def test_harmonic_scipy_oracle(rng):
    from scipy.special import sph_harm_y

    for _ in range(30):
        k = int(rng.integers(0, 101))
        q = int(rng.integers(-k, k + 1)) if k else 0
        theta = rng.uniform(0.05, math.pi - 0.05)
        phi = rng.uniform(0, 2 * math.pi)
        assert spherical_harmonic(k, q, theta, phi) == pytest.approx(
            complex(sph_harm_y(k, q, theta, phi)), abs=1e-12
        )


@pytest.mark.scale
def test_harmonics_match_scipy_up_to_rank_200(rng):
    # scipy's sph_harm_y(k, q, theta, phi) shares the physics convention and
    # the Condon-Shortley phase; agreement degrades like k eps (7e-14 at 200)
    from scipy.special import sph_harm_y

    k_max = 200
    thetas = np.concatenate([[0.0, math.pi], np.arccos(rng.uniform(-1.0, 1.0, 6))])
    phis = np.concatenate([[0.0, 2.0], rng.uniform(0, 2 * math.pi, 6)])
    k = np.arange(k_max + 1)[:, None, None]
    q = np.arange(-k_max, k_max + 1)[None, :, None]
    valid = np.abs(q) <= k
    reference = np.where(valid, sph_harm_y(k, np.where(valid, q, 0), thetas, phis), 0.0)
    bound = 1e-15 * (k + 1.0)
    assert np.all(np.abs(harmonic_table(k_max, thetas, phis) - reference) <= bound)
    for _ in range(200):
        kk = int(rng.integers(0, k_max + 1))
        qq = int(rng.integers(-kk, kk + 1))
        n = int(rng.integers(0, thetas.size))
        got = spherical_harmonic(kk, qq, thetas[n], phis[n])
        assert abs(got - reference[kk, k_max + qq, n]) <= bound[kk, 0, 0], (kk, qq, n)


def norm_legendre_table_loop(k_max, x):
    """The degree recurrence one (q, k) entry at a time."""
    out = np.zeros((k_max + 1, k_max + 1, x.shape[0]))
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    out[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for q in range(k_max + 1):
        if q > 0:
            out[q, q] = -math.sqrt((2.0 * q + 1.0) / (2.0 * q)) * sin_t * out[q - 1, q - 1]
        if q + 1 <= k_max:
            out[q + 1, q] = math.sqrt(2.0 * q + 3.0) * x * out[q, q]
        for k in range(q + 2, k_max + 1):
            a = math.sqrt((4.0 * k * k - 1.0) / (k * k - q * q))
            b = math.sqrt(((k - 1.0) ** 2 - q * q) / (4.0 * (k - 1.0) ** 2 - 1.0))
            out[k, q] = a * (x * out[k - 1, q] - b * out[k - 2, q])
    return out


@pytest.mark.parametrize("k_max", [0, 1, 2, 5, 24, 64])
def test_norm_legendre_table_equals_loop(k_max, rng):
    # the half table is the recurrence itself
    x = np.concatenate([[-1.0, 1.0, 0.0], rng.uniform(-1.0, 1.0, 13)])
    assert np.array_equal(_norm_legendre_table(k_max, x), norm_legendre_table_loop(k_max, x))


@pytest.mark.parametrize("k_max", [0, 1, 2, 5, 24, 64, 200])
def test_norm_legendre_table_equals_oracle(k_max, rng):
    # the whole table, bit for bit, against the per-call build; twice, so the
    # second call reads the cached recurrence coefficients
    x = np.concatenate([[-1.0, 1.0, 0.0], rng.uniform(-1.0, 1.0, 13), np.cos(rng.uniform(0, 3, 8))])
    expected = norm_legendre_table_oracle(k_max, x)
    assert np.array_equal(_norm_legendre_table(k_max, x), expected)
    assert np.array_equal(_norm_legendre_table(k_max, x), expected)
    assert k_max in _legendre_coefficients.cache_info()["keys"]


def test_legendre_coefficient_cache_is_bounded_and_read_only():
    assert isinstance(_legendre_coefficients, _RankCache)
    # one entry at k_max = 200 is about 0.65 MB: a spin sweep keeps ~15 of them
    assert _legendre_coefficients.max_bytes == 10_000_000
    entry = _legendre_coefficients(200)
    assert 0.6e6 < sum(c.nbytes for c in entry) < 0.7e6
    assert not any(c.flags.writeable for c in entry)


@pytest.mark.parametrize("k_max", [0, 1, 2, 5, 24, 64])
def test_norm_legendre_table_signed_layout(k_max, rng):
    # only Pbar[k, q = 0..q_max] is stored, zero where q > k, and a q_max
    # table is the full table's leading columns bit for bit; the q < 0 half
    # is the sign vector (-1)^q alone
    x = np.concatenate([[-1.0, 1.0, 0.0], rng.uniform(-1.0, 1.0, 13)])
    full = _norm_legendre_table(k_max, x)
    k = np.arange(k_max + 1)[:, None]
    for q_max in sorted({0, 1, k_max // 2, k_max - 1, k_max} & set(range(k_max + 1))):
        table = _norm_legendre_table(k_max, x, q_max)
        assert table.shape == (k_max + 1, q_max + 1, x.size)
        assert np.all(table[np.arange(q_max + 1) > k] == 0.0)
        assert np.array_equal(table, full[:, : q_max + 1]), q_max
    q = np.arange(-k_max, k_max + 1)
    assert np.array_equal(_q_signs(q), np.where(q < 0, (-1.0) ** np.abs(q), 1.0))


@pytest.mark.parametrize("k", range(21))
def test_spherical_harmonic_equals_table(k, rng):
    thetas = np.concatenate([[0.0, math.pi], rng.uniform(0, math.pi, 4)])
    phis = np.concatenate([[0.0, 1.3], rng.uniform(0, 2 * math.pi, 4)])
    table = harmonic_table(k, thetas, phis)
    for n, (theta, phi) in enumerate(zip(thetas, phis)):
        for q in range(-k, k + 1):
            assert spherical_harmonic(k, q, theta, phi) == table[k, k + q, n]


def test_harmonic_domain():
    with pytest.raises(DomainError):
        spherical_harmonic(2, 3, 0.1, 0.1)
    with pytest.raises(DomainError):
        spherical_harmonic(-1, 0, 0.1, 0.1)


# ------------------------------------------------------- Wigner rotations


def test_wigner_identity_rotation():
    for tk in (1, 2, 3, 4):
        k = tk / 2.0
        for tqp in range(-tk, tk + 1, 2):
            for tq in range(-tk, tk + 1, 2):
                expected = 1.0 if tqp == tq else 0.0
                assert wigner_D(k, tqp / 2, tq / 2, 0, 0, 0) == pytest.approx(
                    expected, abs=1e-14
                )


def test_wigner_d1_00_is_cos_beta():
    for beta in (0.0, 0.3, 1.2, 2.5, math.pi):
        assert wigner_d(1, 0, 0, beta) == pytest.approx(math.cos(beta), abs=1e-14)


# twice-ranks 1..3, 0 (d = 1, outside the rank blocks) and the first and last
# of blocks of both parities (eight ranks each, 8b + 1..8b + 8 less p / 2)
@pytest.mark.parametrize("ts", [1, 2, 3, 0, 15, 16, 17, 18, 31, 33, 34])
def test_wigner_matrix_matches_exponential_oracle(ts, rng):
    for _ in range(5):
        alpha = rng.uniform(0, 2 * math.pi)
        beta = rng.uniform(0, math.pi)
        gamma = rng.uniform(0, 2 * math.pi)
        oracle = rotation_by_exponentials(ts, alpha, beta, gamma)
        got = wigner_D_matrix(ts / 2, alpha, beta, gamma)
        assert np.max(np.abs(got - oracle)) < 1e-12


@pytest.mark.parametrize("ts", [1, 2, 7, 40, 101, pytest.param(401, marks=pytest.mark.scale)])
def test_wigner_elements_equal_matrix(ts, rng):
    alpha, beta, gamma = rng.uniform(0, 2 * math.pi, 3)
    full = wigner_D_matrix(ts / 2, alpha, beta, gamma)
    small = wigner_D_matrix(ts / 2, 0.0, beta, 0.0).real
    for a, b in rng.integers(0, ts + 1, (30, 2)):
        qp, q = (ts - 2 * a) / 2, (ts - 2 * b) / 2
        assert abs(wigner_D(ts / 2, qp, q, alpha, beta, gamma) - full[a, b]) <= 1e-14
        assert abs(wigner_d(ts / 2, qp, q, beta) - small[a, b]) <= 1e-14


@pytest.mark.parametrize("k", [1, 2, 5, 10, 50])
def test_wigner_matrix_unitary(k, rng):
    alpha = rng.uniform(0, 2 * math.pi)
    beta = rng.uniform(0, math.pi)
    gamma = rng.uniform(0, 2 * math.pi)
    d = wigner_D_matrix(k, alpha, beta, gamma)
    assert np.max(np.abs(d @ d.conj().T - np.eye(2 * k + 1))) < 1e-10


def random_tensor_values(rng, ts: int) -> np.ndarray:
    """A valid [k, 2s + q] tensor-set array: t^0_0 = 1, zero where |q| > k,
    conj(t^k_q) = (-1)^q t^k_{-q}."""
    k = np.arange(ts + 1)[:, None]
    q = np.arange(-ts, ts + 1)
    a = rng.normal(size=(ts + 1, 2 * ts + 1)) + 1j * rng.normal(size=(ts + 1, 2 * ts + 1))
    a = 0.5 * (a + (-1.0) ** q * np.conj(a[:, ::-1]))
    a[np.abs(q) > k] = 0.0
    a[0, ts] = 1.0
    return a


def test_jy_eigenbasis_cache_is_bounded(rng):
    _rank_blocks.cache_clear()
    try:
        # keyed by (parity, block) alone: new angles add no entries, and
        # ranks 1 and 2 share block 0 of the integer ranks
        for beta in rng.uniform(0.0, math.pi, 300):
            for k in (0.5, 1, 2):
                wigner_D_matrix(k, 0.0, beta, 0.0)
        assert set(_rank_blocks.cache_info()["keys"]) == {(0, 0), (1, 0)}

        # every rank k <= 256, integer and half-integer, is twice-rank <= 512:
        # blocks 0..31 of each parity, [8, n, (n + 1) // 2] doubles for n = 16b +
        # 17 - p, unbounded 188.2 MB
        for tk in range(1, 513):
            wigner_d(tk / 2, tk / 2, tk / 2, 0.3)
        info = _rank_blocks.cache_info()
        assert info["bytes"] <= info["max_bytes"] <= 100e6
        for p, b in info["keys"]:
            n = 16 * b + 17 - p
            assert _rank_blocks((p, b))[0].shape == (8, n, (n + 1) // 2)
        held = sum(sum(a.nbytes for a in _rank_blocks(key)) for key in info["keys"])
        assert held == info["bytes"]

        # one rotation at 2s = 200 touches the integer ranks 1..200, blocks
        # (0, 0..24) of 8 (16b + 17) (8b + 9) doubles, 45.8 MB: all stay cached
        t = FanoTensorSet(100, random_tensor_values(rng, 200))
        rotate_tensors(t, 0.1, 0.2, 0.3)
        keys = {(0, b) for b in range(25)}
        assert keys <= set(_rank_blocks.cache_info()["keys"])
        assert sum(_rank_blocks(key)[0].nbytes for key in keys) == 45_761_600
        misses = _rank_blocks.cache_info()["misses"]
        rotate_tensors(t, 0.4, 0.5, 0.6)
        assert _rank_blocks.cache_info()["misses"] == misses
    finally:
        _rank_blocks.cache_clear()


def test_rank_cache_accounting_under_threads():
    # a budget of three rank-8 entries forces evictions on nearly every call
    cache = _RankCache(lambda tk: (np.zeros(tk + 1), np.zeros((tk + 1, tk + 1))), 3 * 9 * 10 * 8)
    errors = []

    def hammer(seed):
        rng = np.random.default_rng(seed)
        try:
            for tk in rng.integers(0, 9, 2000):
                evals, vecs = cache(int(tk))
                assert vecs.shape == (tk + 1, tk + 1)
        except Exception as exc:  # a thread's exception would not fail the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(seed,)) for seed in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not errors
    info = cache.cache_info()
    assert info["hits"] + info["misses"] == 6 * 2000
    assert info["bytes"] <= info["max_bytes"]
    assert info["bytes"] == sum(sum(a.nbytes for a in cache(tk)) for tk in info["keys"])


@pytest.mark.scale
@pytest.mark.parametrize("ts", [64, 101, 128, 199, 200])
def test_wigner_matrix_matches_expm_at_large_rank(ts, rng):
    for _ in range(2):
        alpha = rng.uniform(0, 2 * math.pi)
        beta = rng.uniform(0, math.pi)
        gamma = rng.uniform(0, 2 * math.pi)
        oracle = rotation_by_exponentials(ts, alpha, beta, gamma)
        got = wigner_D_matrix(ts / 2, alpha, beta, gamma)
        assert np.max(np.abs(got - oracle)) <= 1e-13


@pytest.mark.parametrize(
    "ts, bound", [(48, 1e-14), pytest.param(200, 1.2e-14, marks=pytest.mark.scale)]
)
def test_wigner_D_matrix_matches_expm_with_exact_eigenvalues(ts, bound, rng):
    # each bound sits between the two ways to take J_y's eigenvalues: the
    # exact -k..k give maxima of 2.3e-15 (twice-rank 48) and 5.8e-15 (200)
    # here, an eigensolver's own (error ~ k eps) 1.8e-14 and 1.7e-14
    _, sp_ = ladder_spin_matrices(ts)
    sy = (sp_ - sp_.conj().T) / 2j
    worst = max(
        np.max(np.abs(wigner_D_matrix(ts / 2, 0.0, beta, 0.0) - expm(-1j * beta * sy)))
        for beta in rng.uniform(0.0, 2 * math.pi, 12)
    )
    assert worst <= bound


@pytest.mark.parametrize("tk", [*range(49), 96])
def test_wigner_values_equal_copying_route(tk, rng):
    # the rank blocks against the per-rank dense-eigh route for every element
    # function, at twice-ranks 0..48 and 96: each is within ~1e-14 of expm
    # (test_wigner_D_matrix_matches_expm_with_exact_eigenvalues), and they
    # differ by at most 7.4e-15 here; a wrong sign, slot, parity or padding
    # is off by O(1)
    alpha, beta, gamma = rng.uniform(-2 * math.pi, 2 * math.pi, 3)
    d = apply_d_copying(tk, beta, np.eye(tk + 1))
    tq_axis = tk - 2 * np.arange(tk + 1)
    left, right = np.exp(-0.5j * tq_axis * alpha), np.exp(-0.5j * tq_axis * gamma)
    expected = left[:, None] * d * right[None, :]
    got = wigner_D_matrix(tk / 2, alpha, beta, gamma)
    assert np.max(np.abs(got - expected)) <= 2e-14
    pairs = {(0, 0), (0, tk), (tk, 0), (tk, tk)}
    pairs |= {tuple(map(int, p)) for p in rng.integers(0, tk + 1, (8, 2))}
    for a, b in sorted(pairs):
        column = np.zeros(tk + 1)
        column[b] = 1.0
        d_ab = float(apply_d_copying(tk, beta, column)[a])
        qp, q = (tk - 2 * a) / 2, (tk - 2 * b) / 2
        assert abs(wigner_d(tk / 2, qp, q, beta) - d_ab) <= 2e-14
        phase = -0.5 * ((tk - 2 * a) * alpha + (tk - 2 * b) * gamma)
        expected_D = d_ab * (math.cos(phase) + 1j * math.sin(phase))
        assert abs(wigner_D(tk / 2, qp, q, alpha, beta, gamma) - expected_D) <= 2e-14


@pytest.mark.scale
def test_wigner_d_top_column_closed_form_past_the_rescale():
    # at rank 550 the recurrence grows from its edge by about 2^550 = 4e165,
    # whose square would overflow the column norm without the rescale:
    # d^j_{m', j}(beta) = sqrt(C(2j, j - m')) cos^(j + m')(beta / 2)
    # sin^(j - m')(beta / 2), and d stays orthogonal
    tk, beta = 1100, 1.1
    j = tk / 2
    d = wigner_D_matrix(j, 0.0, beta, 0.0).real
    mp = j - np.arange(tk + 1)
    log_binom = [math.lgamma(tk + 1) - math.lgamma(j + m + 1) - math.lgamma(j - m + 1) for m in mp]
    top = np.exp(
        0.5 * np.array(log_binom)
        + (j + mp) * math.log(math.cos(beta / 2))
        + (j - mp) * math.log(math.sin(beta / 2))
    )
    assert np.max(np.abs(d[:, 0] - top)) <= 1e-13
    assert np.max(np.abs(d @ d.T - np.eye(tk + 1))) <= 1e-13


def test_apply_d_writes_in_place(rng):
    # twice-rank 4 is slot 1 of block (0, 0): rows 6..10 of its 17.  In place
    # over a real matrix, a complex vector, a reversed view and a strided
    # slice of a wider array (as rotate_tensors' work rows), within roundoff
    # of the per-rank copying route (8.9e-16 at most here); rows outside the
    # slot, zero on entry, stay zero and nothing outside v is written
    g, rows, phase = _rank_blocks((0, 0))[0][1:2], slice(6, 11), angular._phases(16, 0.7)[8:]
    wide = rng.normal(size=(3, 30)) + 1j * rng.normal(size=(3, 30))
    work = wide.copy()
    cases = [np.zeros((1, 17, 3)), np.zeros((1, 17), complex)]
    cases += [np.zeros((1, 17), complex)[:, ::-1], work[1:2, 7:24]]
    for v in cases:
        v[0, : rows.start] = v[0, rows.stop :] = 0.0
        v[0, rows] = rng.normal(size=v[0, rows].shape) + (1j if v.dtype == complex else 0)
        expected = apply_d_copying(4, 0.7, v[0, rows].copy())
        assert angular._apply_d(g, phase, v) is v
        assert np.max(np.abs(v[0, rows] - expected)) <= 4e-15
        assert not v[0, : rows.start].any() and not v[0, rows.stop :].any()
    assert np.array_equal(work[::2], wide[::2])
    assert np.array_equal(work[1, :7], wide[1, :7]) and np.array_equal(work[1, 24:], wide[1, 24:])


def test_phases_middle_entries_are_lower_rank_tables():
    top = angular._phases(48, 1.3)
    for tk in range(0, 49, 2):
        middle = top[(48 - tk) // 2 : (48 + tk) // 2 + 1]
        assert middle.tobytes() == angular._phases(tk, 1.3).tobytes()


def test_wigner_domain():
    with pytest.raises(DomainError):
        wigner_D(1, 2, 0, 0.1, 0.2, 0.3)
    with pytest.raises(DomainError):
        wigner_d(1, 0.5, 0, 0.1)  # parity mismatch with integer rank


def unblocked_synthesis(a, theta, phi):
    """The einsum synthesis in one step, both [2K + 1, N] gathers at once."""
    k_max = a.shape[-2] - 1
    x, ring = np.unique(np.cos(theta), return_inverse=True)
    g = np.einsum("...kq,kqr->...qr", a, signed_table(k_max, x))
    phis, column = np.unique(phi, return_inverse=True)
    phase = np.exp(-1j * np.arange(-k_max, k_max + 1)[:, None] * phis)
    return np.einsum("...qn,qn->...n", g[..., ring], phase[:, column])


def synthesis_bound(a, theta):
    """Per-point roundoff bound c (3K + 2) eps sum_kq |a_kq| |T_kq(theta)|, c = 1.

    The recursive-summation bound of a k sum of K + 1 terms followed by a q
    sum of 2K + 1, so any two orders of the sums agree within it; the BLAS
    and einsum routes differ by under 0.2 of it in the cases below."""
    k_max = a.shape[-2] - 1
    x, ring = np.unique(np.cos(theta), return_inverse=True)
    t = np.abs(signed_table(k_max, x))
    per_ring = np.einsum("...kq,kqr->...r", np.abs(a), t)
    return (3 * k_max + 2) * np.finfo(float).eps * per_ring[..., ring]


def signed_table_synthesis(a, theta, phi):
    """_synthesize on the full signed table T[k, K + q, ring] with unsigned
    phases, one real product per q over the whole [q, k, ring] table: the
    two BLAS products' arithmetic, which the half table must keep bit for
    bit."""
    k_max, batch = a.shape[-2] - 1, a.shape[:-2]
    n_b = math.prod(batch)
    x, ring = np.unique(np.cos(theta), return_inverse=True)
    phis, column = np.unique(phi, return_inverse=True)
    phase = np.exp(-1j * np.arange(-k_max, k_max + 1)[:, None] * phis)
    a = np.moveaxis(a.reshape(n_b, k_max + 1, 2 * k_max + 1), -1, 0)  # [q, batch, k]
    g = np.concatenate([a.real, a.imag], 1) @ signed_table(k_max, x).transpose(1, 0, 2)
    g = g[:, :n_b] + 1j * g[:, n_b:]  # [q, batch, ring]
    if x.shape[0] * phis.shape[0] <= theta.shape[0]:
        cells = (g.reshape(g.shape[0], -1).T @ phase).reshape(n_b, -1)
        out = cells[:, ring * phis.shape[0] + column]
    else:
        out = np.einsum("qbn,qn->bn", g[:, :, ring], phase[:, column])
    return out.reshape(batch + theta.shape)


def assert_within_synthesis_bound(got, a, theta, phi):
    expected = unblocked_synthesis(a, theta, phi)
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected) <= synthesis_bound(a, theta))


def random_coefficients(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def synthesis_points(rng, ts, kind):
    """Point sets of both routes: the product-grid cells (a band-ts grid in
    order, shuffled, with repeats, a single point) and the per-point gather
    (scattered points, a grid plus 7 extra points)."""
    grid = build_grid(ts)
    theta, phi = grid.node_thetas, grid.node_phis
    if kind == "shuffled":
        order = rng.permutation(theta.shape[0])
        return theta[order], phi[order]
    if kind == "repeated":
        pick = rng.integers(0, theta.shape[0], 2 * theta.shape[0])
        return theta[pick], phi[pick]
    if kind == "single":
        return theta[-1:], phi[-1:]
    if kind == "scattered":
        return rng.uniform(0, math.pi, 40), rng.uniform(0, 2 * math.pi, 40)
    if kind == "grid+7":
        extra_theta, extra_phi = rng.uniform(0, math.pi, 7), rng.uniform(0, 2 * math.pi, 7)
        return np.concatenate([theta, extra_theta]), np.concatenate([phi, extra_phi])
    return theta, phi


@pytest.mark.parametrize(
    "kind", ["grid", "shuffled", "repeated", "single", "scattered", "grid+7"]
)
@pytest.mark.parametrize("batch", [(), (3,), (2, 2)])
@pytest.mark.parametrize(
    "ts", [0, 1, 2, 4, 5, 8, 16, 24, pytest.param(64, marks=pytest.mark.scale)]
)
def test_synthesize_matches_einsum_within_roundoff(ts, batch, kind, rng):
    a = random_coefficients(rng, batch + (ts + 1, 2 * ts + 1))
    theta, phi = synthesis_points(rng, ts, kind)
    got = _synthesize(a, theta, phi)
    assert_within_synthesis_bound(got, a, theta, phi)
    assert np.array_equal(got, signed_table_synthesis(a, theta, phi))


@pytest.mark.parametrize("budget", [1, 16 * 5 * 7, 16 * 5 * 40, 16_000_000])
@pytest.mark.parametrize("batch", [(), (3,), (2, 2)])
def test_synthesize_blocks_equal_one_step(budget, batch, rng, monkeypatch):
    # a grid plus scattered points takes the per-point gather; budgets of one
    # point per block, blocks that do not divide N, and one block, each
    # against the one-block result
    k_max = 2
    a = random_coefficients(rng, batch + (k_max + 1, 2 * k_max + 1))
    grid = build_grid(4)
    theta = np.concatenate([grid.node_thetas, rng.uniform(0, math.pi, 7)])
    phi = np.concatenate([grid.node_phis, rng.uniform(0, 2 * math.pi, 7)])
    one_block = _synthesize(a, theta, phi)
    monkeypatch.setattr(angular, "_SYNTHESIS_BLOCK_BYTES", budget)
    got = _synthesize(a, theta, phi)
    assert got.shape == batch + theta.shape
    assert np.array_equal(got, one_block)


def test_synthesize_no_points():
    assert _synthesize(np.ones((3, 5), dtype=complex), [], []).shape == (0,)


def synthesis_peak(a, theta, phi):
    tracemalloc.start()
    try:
        got = _synthesize(a, theta, phi)
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_synthesize_memory_at_spin_sixty_four(rng):
    # the per-point gathers of the einsum route peaked at 17 MB here
    k_max = 64
    a = random_coefficients(rng, (2, k_max + 1, 2 * k_max + 1))
    grid = build_grid(k_max)
    got, peak = synthesis_peak(a, grid.node_thetas, grid.node_phis)
    assert peak <= 8e6
    assert_within_synthesis_bound(got, a, grid.node_thetas, grid.node_phis)


@pytest.mark.scale
@pytest.mark.parametrize("ts", [128, 200])
def test_synthesize_equals_signed_table_route_at_large_spin(ts, rng):
    a = random_coefficients(rng, (2, ts + 1, 2 * ts + 1))
    for kind in ("grid", "scattered"):
        theta, phi = synthesis_points(rng, ts, kind)
        assert np.array_equal(_synthesize(a, theta, phi), signed_table_synthesis(a, theta, phi))


@pytest.mark.scale
def test_synthesize_memory_at_spin_one_twenty_eight(rng):
    # the two [2K + 1, N] gathers of the one-step sum alone take 2 x 137 MB here
    k_max = 128
    a = random_coefficients(rng, (k_max + 1, 2 * k_max + 1))
    grid = build_grid(k_max)
    got, peak = synthesis_peak(a, grid.node_thetas, grid.node_phis)
    assert peak <= 80e6
    assert_within_synthesis_bound(got, a, grid.node_thetas, grid.node_phis)
