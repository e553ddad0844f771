import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from spinphase import (
    DomainError,
    FanoTensorSet,
    HalfInteger,
    build_grid,
    clebsch_gordan,
    legendre_sequence,
    log_factorial,
    rotate_tensors,
    spherical_harmonic,
    wigner_D,
    wigner_D_matrix,
    wigner_d,
)
from conftest import harmonic_table, norm_legendre_table_oracle
from spinphase import angular
from spinphase.angular import (
    _jy_eigenbasis,
    _legendre_coefficients,
    _norm_legendre_table,
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


def rotation_by_exponentials(ts: int, alpha: float, beta: float, gamma: float):
    """exp(-i a Sz) exp(-i b Sy) exp(-i g Sz) built by matrix exponentials."""
    sz, sp_ = ladder_spin_matrices(ts)
    sy = (sp_ - sp_.conj().T) / 2j
    return expm(-1j * alpha * sz) @ expm(-1j * beta * sy) @ expm(-1j * gamma * sz)


# ---------------------------------------------------------- log factorial


def test_log_factorial_trivial():
    assert log_factorial(0) == 0.0
    assert log_factorial(1) == 0.0


def test_log_factorial_ten():
    # ln(3628800), from the exact integer product
    assert log_factorial(10) == pytest.approx(15.104412573075516, rel=1e-15)


def test_log_factorial_matches_exact_up_to_400():
    for n in range(2, 401):
        exact = exact_log_factorial(n)
        assert abs(log_factorial(n) - exact) <= 1e-14 * exact


def test_log_factorial_domain():
    with pytest.raises(DomainError):
        log_factorial(-1)
    with pytest.raises(DomainError):
        log_factorial(2.5)


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
    for ts in range(1, 11):
        for k in range(0, ts + 1):
            closed = math.exp(
                log_factorial(ts)
                + 0.5 * (math.log(ts + 1.0) - log_factorial(ts - k) - log_factorial(ts + k + 1))
            )
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
    """P_k(x), the last entry of the library's sequence at a scalar x."""
    return float(legendre_sequence(k, x)[k])


def test_legendre_trivial():
    assert legendre(0, 0.3) == 1.0
    assert legendre(1, -0.25) == -0.25


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


def test_legendre_sequence_matches_scalar():
    # the array form against one scalar x at a time
    xs = np.linspace(-1, 1, 7)
    seq = legendre_sequence(6, xs)
    for k in range(7):
        for i, x in enumerate(xs):
            assert seq[k, i] == pytest.approx(legendre(k, float(x)), abs=1e-14)


def test_legendre_domain():
    with pytest.raises(DomainError):
        legendre_sequence(2, 1.5)
    with pytest.raises(DomainError):
        legendre_sequence(-1, 0.0)
    for bad_k in (True, 2.0, 1.5, "2"):
        with pytest.raises(DomainError):
            legendre_sequence(bad_k, 0.0)


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
        expected = (2 * k + 1) / (4 * math.pi) * legendre(k, cos12)
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
            expected = math.sqrt((2 * k + 1) / (4 * math.pi)) * legendre(k, math.cos(theta))
            assert got.real == pytest.approx(expected, abs=1e-12)
            assert abs(got.imag) < 1e-15


def test_legendre_high_degree_scipy_oracle():
    from scipy.special import eval_legendre

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
    # the q >= 0 half, columns k_max + q, is the recurrence itself
    x = np.concatenate([[-1.0, 1.0, 0.0], rng.uniform(-1.0, 1.0, 13)])
    table = _norm_legendre_table(k_max, x)
    assert np.array_equal(table[:, k_max:], norm_legendre_table_loop(k_max, x))


@pytest.mark.parametrize("k_max", [0, 1, 2, 5, 24, 64, 200])
def test_norm_legendre_table_equals_oracle(k_max, rng):
    # the whole signed table, bit for bit, against the per-call build; twice,
    # so the second call reads the cached recurrence coefficients
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
    # T[k, k_max + q] = Y_kq(theta, 0): column k_max - q is (-1)^q times
    # column k_max + q, exactly, and every entry with |q| > k is zero
    x = np.concatenate([[-1.0, 1.0, 0.0], rng.uniform(-1.0, 1.0, 13)])
    table = _norm_legendre_table(k_max, x)
    assert table.shape == (k_max + 1, 2 * k_max + 1, x.size)
    for q in range(1, k_max + 1):
        sign = -1.0 if q % 2 else 1.0
        assert np.array_equal(table[:, k_max - q], sign * table[:, k_max + q]), q
    k = np.arange(k_max + 1)[:, None]
    q = np.arange(-k_max, k_max + 1)
    assert np.all(table[np.abs(q) > k] == 0.0)


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


@pytest.mark.parametrize("ts", [1, 2, 3])
def test_wigner_matrix_matches_exponential_oracle(ts, rng):
    for _ in range(5):
        alpha = rng.uniform(0, 2 * math.pi)
        beta = rng.uniform(0, math.pi)
        gamma = rng.uniform(0, 2 * math.pi)
        oracle = rotation_by_exponentials(ts, alpha, beta, gamma)
        got = wigner_D_matrix(ts / 2, alpha, beta, gamma)
        assert np.max(np.abs(got - oracle)) < 1e-12


@pytest.mark.parametrize("ts", [1, 2, 7, 40, 101])
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


def test_small_d_cache_is_bounded(rng):
    _jy_eigenbasis.cache_clear()
    try:
        # the cache is keyed by twice-rank alone: new angles add no entries
        for beta in rng.uniform(0.0, math.pi, 300):
            wigner_D_matrix(1, 0.0, beta, 0.0)
            wigner_D_matrix(2, 0.0, beta, 0.0)
        assert set(_jy_eigenbasis.cache_info()["keys"]) == {2, 4}

        # every rank k <= 200, integer and half-integer, is twice-rank <= 400:
        # unbounded that would be sum_{n <= 401} n^2 doubles = 172.6 MB
        for tk in range(401):
            _jy_eigenbasis(tk)
        info = _jy_eigenbasis.cache_info()
        assert info["bytes"] <= info["max_bytes"] <= 100e6
        held = sum(sum(a.nbytes for a in _jy_eigenbasis(tk)) for tk in info["keys"])
        assert held == info["bytes"]

        # one rotation at 2s = 200 touches the integer ranks 1..200, which take
        # sum_{k <= 200} (2k + 1)^2 doubles = 86.6 MB: all stay cached
        t = FanoTensorSet(100, random_tensor_values(rng, 200))
        rotate_tensors(t, 0.1, 0.2, 0.3)
        assert {2 * k for k in range(1, 201)} <= set(_jy_eigenbasis.cache_info()["keys"])
        misses = _jy_eigenbasis.cache_info()["misses"]
        rotate_tensors(t, 0.4, 0.5, 0.6)
        assert _jy_eigenbasis.cache_info()["misses"] == misses
    finally:
        _jy_eigenbasis.cache_clear()


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
def test_small_d_matches_expm_with_exact_eigenvalues(ts, bound, rng):
    # each bound sits between the two ways to take J_y's eigenvalues: the
    # exact -k..k give maxima of 4.9e-15 (twice-rank 48) and 7.5-8.6e-15
    # (200) here, the eigensolver's own (error ~ k eps) 1.8e-14 and 1.7e-14
    _, sp_ = ladder_spin_matrices(ts)
    sy = (sp_ - sp_.conj().T) / 2j
    worst = max(
        np.max(np.abs(wigner_D_matrix(ts / 2, 0.0, beta, 0.0) - expm(-1j * beta * sy)))
        for beta in rng.uniform(0.0, 2 * math.pi, 12)
    )
    assert worst <= bound


def test_wigner_domain():
    with pytest.raises(DomainError):
        wigner_D(1, 2, 0, 0.1, 0.2, 0.3)
    with pytest.raises(DomainError):
        wigner_d(1, 0.5, 0, 0.1)  # parity mismatch with integer rank


def unblocked_synthesis(a, theta, phi):
    """_synthesize's q sum in one step, both [2K + 1, N] gathers at once."""
    k_max = a.shape[-2] - 1
    x, ring = np.unique(np.cos(theta), return_inverse=True)
    g = np.einsum("...kq,kqr->...qr", a, _norm_legendre_table(k_max, x))
    phis, column = np.unique(phi, return_inverse=True)
    phase = np.exp(-1j * np.arange(-k_max, k_max + 1)[:, None] * phis)
    return np.einsum("...qn,qn->...n", g[..., ring], phase[:, column])


def random_coefficients(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("budget", [1, 16 * 5 * 7, 16 * 5 * 40, 16_000_000])
@pytest.mark.parametrize("batch", [(), (3,), (2, 2)])
def test_synthesize_blocks_equal_one_step(budget, batch, rng, monkeypatch):
    # budgets of one point per block, blocks that do not divide N, and one block
    k_max = 2
    a = random_coefficients(rng, batch + (k_max + 1, 2 * k_max + 1))
    grid = build_grid(4)
    theta = np.concatenate([grid.node_thetas, rng.uniform(0, math.pi, 7)])
    phi = np.concatenate([grid.node_phis, rng.uniform(0, 2 * math.pi, 7)])
    monkeypatch.setattr(angular, "_SYNTHESIS_BLOCK_BYTES", budget)
    got = _synthesize(a, theta, phi)
    assert got.shape == batch + theta.shape
    assert np.array_equal(got, unblocked_synthesis(a, theta, phi))


def test_synthesize_no_points():
    assert _synthesize(np.ones((3, 5), dtype=complex), [], []).shape == (0,)


@pytest.mark.scale
def test_synthesize_memory_at_spin_one_twenty_eight(rng):
    # the two [2K + 1, N] gathers of the one-step sum alone take 2 x 137 MB here
    k_max = 128
    a = random_coefficients(rng, (k_max + 1, 2 * k_max + 1))
    grid = build_grid(k_max)
    tracemalloc.start()
    try:
        got = _synthesize(a, grid.node_thetas, grid.node_phis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80e6
    assert np.array_equal(got, unblocked_synthesis(a, grid.node_thetas, grid.node_phis))
