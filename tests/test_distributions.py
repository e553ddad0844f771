import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinphase import (
    BandLimitError,
    ConsistencyError,
    DensityMatrix,
    DistributionKind,
    DomainError,
    FanoTensorSet,
    SpinCoherentState,
    build_grid,
    classical_limit_table,
    classical_spin_vector,
    coefficient,
    coefficient_table,
    coherent_state,
    correlation,
    correlation_exact,
    decompose,
    decompose_bipartite,
    evaluate,
    evaluate_bipartite,
    evaluate_bipartite_many,
    evaluate_many,
    expectation,
    integrate,
    project,
    q_direct,
    singlet_profile,
    singlet_tensors,
    spin_operators,
    tau_matrix,
)
from conftest import harmonic_table, random_bipartite_density, random_density, random_direction
from spinphase import distributions
from spinphase.angular import _RankCache
from spinphase.distributions import _require_real, _signed, _tables
from spinphase.fano import _labels

P, Q, F = DistributionKind.P, DistributionKind.Q, DistributionKind.F
FOUR_PI = 4.0 * math.pi

# ---------------------------------------------------------------- oracles


def coefficient_squared_exact(kind, ts, k):
    """Exact rational value of c_k^2 from integer factorials."""
    fact = math.factorial
    if kind is P:
        return Fraction(fact(ts - k) * fact(ts + k + 1), (ts + 1) * fact(ts) ** 2)
    if kind is Q:
        return 1 / Fraction(fact(ts - k) * fact(ts + k + 1), (ts + 1) * fact(ts) ** 2)
    return Fraction(
        fact(ts + k + 1), fact(ts - k) * (ts + 1) * ts**k * (ts + 2) ** k
    )


def sign_matrix_loop(kind, ts):
    """sigma(k, q) as a [k, 2s + q] array, label by label: (-1)^(k+q) for P
    and Q, zero where |q| > k; all ones for F."""
    if kind is F:
        return np.ones((ts + 1, 2 * ts + 1))
    out = np.zeros((ts + 1, 2 * ts + 1))
    for k in range(ts + 1):
        for q in range(-k, k + 1):
            out[k, ts + q] = -1.0 if (k + q) % 2 else 1.0
    return out


def scs_overlap_oracle(rho, theta, phi):
    a = coherent_state(rho.s, theta, phi).amplitudes
    return (np.conj(a) @ rho.matrix @ a).real


def q_direct_bipartite_oracle(rho12, th1, ph1, th2, ph2):
    a1 = coherent_state(rho12.s1, th1, ph1).amplitudes
    a2 = coherent_state(rho12.s2, th2, ph2).amplitudes
    amp = np.kron(a1, a2)
    scale = rho12.dim1 * rho12.dim2 / FOUR_PI**2
    return scale * (np.conj(amp) @ rho12.matrix @ amp).real


# ------------------------------------------------------------ coefficients


@pytest.mark.parametrize("kind", list(DistributionKind))
@pytest.mark.parametrize("ts", [1, 2, 3, 4, 10, 50])
def test_coefficient_rank_zero_is_one(kind, ts):
    assert coefficient(kind, ts / 2, 0) == pytest.approx(1.0, abs=1e-12)


def test_coefficient_spin_half_values():
    assert coefficient(P, 0.5, 1) == pytest.approx(1.7320508075688772, rel=1e-13)
    assert coefficient(Q, 0.5, 1) == pytest.approx(0.5773502691896258, rel=1e-13)
    assert coefficient(F, 0.5, 1) == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize("kind", list(DistributionKind))
@pytest.mark.parametrize("ts", [1, 2, 4, 10, 50, 100, 200])
def test_coefficient_matches_exact_rational_oracle(kind, ts):
    for k in sorted(k for k in {0, 1, 2, 4, 10, ts} if k <= ts):
        exact = coefficient_squared_exact(kind, ts, k)
        got_sq = coefficient(kind, ts / 2, k) ** 2
        assert abs(got_sq - float(exact)) <= 3e-12 * float(exact)


def test_coefficient_p_q_are_inverses():
    for ts in (1, 2, 3, 4, 8):
        for k in range(ts + 1):
            prod = coefficient(P, ts / 2, k) * coefficient(Q, ts / 2, k)
            assert prod == pytest.approx(1.0, rel=1e-13)


def test_coefficient_positivity_and_table():
    for kind in DistributionKind:
        table = coefficient_table(kind, 2.0)
        assert len(table) == 5
        assert all(c > 0 for c in table)
        assert table[0] == pytest.approx(1.0, abs=1e-12)


def test_f_rank_one_coefficient_is_exactly_one():
    for ts in range(1, 201):
        assert coefficient(F, ts / 2, 1) == 1.0, ts


def test_coefficient_domain():
    with pytest.raises(DomainError):
        coefficient(P, 0.5, 2)
    with pytest.raises(DomainError):
        coefficient(P, 0.5, -1)


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_coefficient_non_finite_spin_is_domain_error(s):
    with pytest.raises(DomainError, match=repr(s)):
        coefficient(P, s, 1)


def test_kind_from_string():
    assert [DistributionKind.from_string(n) for n in ("p", "Q", "f")] == [P, Q, F]
    with pytest.raises(DomainError, match="unknown distribution kind 'x'"):
        DistributionKind.from_string("x")


def test_spin_zero_degenerate_state():
    t0 = decompose(DensityMatrix(0, np.eye(1)))
    for kind in DistributionKind:
        assert coefficient(kind, 0, 0) == pytest.approx(1.0, abs=1e-14)
        assert evaluate(kind, t0, 0.3, 0.4) == pytest.approx(1 / FOUR_PI, abs=1e-13)


def test_classical_limit_table_examples():
    assert classical_limit_table(Q, 0, [0.5, 1, 5]) == pytest.approx([1.0, 1.0, 1.0])
    p1 = classical_limit_table(P, 1, [0.5, 1, 2, 4, 8, 16])
    assert p1[0] == pytest.approx(math.sqrt(3), rel=1e-12)
    gaps = [abs(v - 1) for v in p1]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert abs(classical_limit_table(F, 2, [100])[0] - 1.0) < 2e-2


def test_classical_limit_table_domain_error_names_entry():
    with pytest.raises(DomainError, match="k=3"):
        classical_limit_table(P, 3, [2.0, 1.0])


# --------------------------------------------------------- coherent states


def test_coherent_state_poles():
    scs = coherent_state(1.5, 0.0, 0.4)
    assert abs(scs.amplitudes[-1] - 1.0) < 1e-14  # all weight on m = -s
    assert np.max(np.abs(scs.amplitudes[:-1])) < 1e-14
    phi = 0.9
    scs_pi = coherent_state(1.5, math.pi, phi)
    # all weight on m = +s up to the phase exp(-i 2s phi)
    assert abs(abs(scs_pi.amplitudes[0]) - 1.0) < 1e-13
    assert scs_pi.amplitudes[0] == pytest.approx(np.exp(-1j * 3 * phi), abs=1e-13)


@pytest.mark.parametrize("ts", [1, 2, 3, 5])
def test_coherent_state_spin_direction(ts, rng):
    s = ts / 2.0
    ops = spin_operators(s)
    for _ in range(5):
        theta = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        a = coherent_state(s, theta, phi).amplitudes
        vec = np.array([(np.conj(a) @ (op @ a)).real for op in ops])
        expected = s * np.array(
            [
                math.sin(theta) * math.cos(phi),
                math.sin(theta) * math.sin(phi),
                -math.cos(theta),
            ]
        )
        assert np.max(np.abs(vec - expected)) < 1e-12


@given(
    st.integers(min_value=1, max_value=40),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=-10.0, max_value=10.0),
)
@settings(max_examples=60, deadline=None)
def test_coherent_state_normalized(ts, theta, phi):
    scs = coherent_state(ts / 2.0, theta, phi)
    assert abs(np.sum(np.abs(scs.amplitudes) ** 2) - 1.0) < 1e-12


def test_scs_tensor_expectation_closed_form(rng):
    # <theta phi| tau^k_q |theta phi> = sqrt(4 pi) (-1)^(k+q) c^Q_k Y_kq
    from spinphase import spherical_harmonic

    for ts in (1, 2, 3, 4):
        s = ts / 2.0
        theta = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        a = coherent_state(s, theta, phi).amplitudes
        for k in range(ts + 1):
            ck = coefficient(Q, s, k)
            for q in range(-k, k + 1):
                lhs = np.conj(a) @ (tau_matrix(s, k, q) @ a)
                rhs = (
                    math.sqrt(FOUR_PI)
                    * (-1.0) ** (k + q)
                    * ck
                    * spherical_harmonic(k, q, theta, phi)
                )
                assert lhs == pytest.approx(rhs, abs=1e-12)


def _coherent_amplitudes_by_binomial(ts, theta, phi):
    # the closed form term by term, exact binomials; overflows from 2s ~ 1030
    theta, phi = theta % (2 * math.pi), phi % (2 * math.pi)
    c, sn = math.cos(0.5 * theta), math.sin(0.5 * theta)
    return np.array([
        math.sqrt(math.comb(ts, i)) * c**i * sn ** (ts - i) * np.exp(-1j * (ts - i) * phi)
        for i in range(ts + 1)
    ])


@pytest.mark.parametrize("ts", [0, 1, 2, 7, 40, 121, 200])
def test_coherent_state_matches_binomial_closed_form(ts):
    for theta, phi in ((0.0, 0.3), (0.4, 1.1), (1.6, 2.9), (math.pi, 0.5), (4.1, 5.9)):
        amplitudes = coherent_state(ts / 2, theta, phi).amplitudes
        expected = _coherent_amplitudes_by_binomial(ts, theta, phi)
        assert np.max(np.abs(amplitudes - expected)) <= 1e-14


@pytest.mark.parametrize("ts", [1100, 2000, 20000])
def test_coherent_state_at_large_spin_against_mpmath(ts):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for theta, phi in ((0.3, 0.7), (1.9, 2.0), (4.4, 5.5)):
        amplitudes = coherent_state(ts / 2, theta, phi).amplitudes
        assert abs(np.sum(np.abs(amplitudes) ** 2) - 1.0) <= 1e-15
        c, sn = mpmath.cos(mpmath.mpf(theta) / 2), mpmath.sin(mpmath.mpf(theta) / 2)
        mode = int(np.argmax(np.abs(amplitudes)))
        width = int(3 * math.sqrt(ts))
        for i in {0, max(0, mode - width), mode, min(ts, mode + width), ts}:
            exact = (
                mpmath.sqrt(mpmath.binomial(ts, i)) * c**i * sn ** (ts - i)
                * mpmath.expj(-(ts - i) * mpmath.mpf(phi))
            )
            assert abs(amplitudes[i] - complex(exact)) <= 1e-12, (theta, i)


def test_coherent_state_is_its_spin_and_angles():
    state = SpinCoherentState(1, 0.4, 0.2)
    assert coherent_state(1, 0.4, 0.2) == state
    assert hash(coherent_state(1, 0.4, 0.2)) == hash(state)
    assert coherent_state(1, 0.5, 0.2) != state
    assert SpinCoherentState(1, -0.5, 0.2) == SpinCoherentState(1, 2 * math.pi - 0.5, 0.2)
    assert not state.amplitudes.flags.writeable
    with pytest.raises(TypeError):
        SpinCoherentState(1, 0.4, 0.2, state.amplitudes)


def test_imaginary_residue_check_refuses_nan():
    with pytest.raises(ConsistencyError, match="imaginary residue nan"):
        _require_real(np.array([1.0, complex(0.0, math.nan)]), "evaluate(Q)")


def test_p_coefficients_refused_where_they_overflow():
    # c_2s of P overflows from 2s = 1027 on, c_2s^2 from 515 and (2k + 1) c_2s^2,
    # a term of the singlet profile, from 510
    assert math.isfinite(coefficient(P, 513, 1026))
    assert math.isfinite(coefficient(P, 1000, 1))
    for call in (lambda: coefficient(P, 513.5, 1027), lambda: coefficient_table(P, 513.5)):
        with pytest.raises(DomainError, match="^P coefficients at 2s = 1027 .* k=1027 on"):
            call()
    assert np.all(np.isfinite(singlet_profile(P, 254.5, [0.0, 1.0])))
    with pytest.raises(DomainError, match="^P coefficients at 2s = 510 .* k=510 on"):
        singlet_profile(P, 255, [0.0, 1.0])
    # correlation reads c_0 and c_1 only, so P answers where c_2s^2 overflows
    got = correlation(P, 257.5, [0, 0, 1], [0, 0, 1], build_grid(258))
    assert got == pytest.approx(correlation_exact(257.5, [0, 0, 1], [0, 0, 1]), rel=1e-12)


# ------------------------------------------------------------------ Q / P


def test_q_direct_maximally_mixed():
    rho = DensityMatrix(1.0, np.eye(3) / 3)
    for theta, phi in [(0.0, 0.0), (1.0, 2.0), (2.9, 4.0)]:
        assert q_direct(rho, theta, phi) == pytest.approx(1 / FOUR_PI, abs=1e-13)


def test_q_direct_self_overlap_peak():
    theta0, phi0 = 1.1, 0.7
    a = coherent_state(1.5, theta0, phi0).amplitudes
    rho = DensityMatrix(1.5, np.outer(a, a.conj()))
    assert q_direct(rho, theta0, phi0) == pytest.approx(4 / FOUR_PI, abs=1e-12)


def test_q_direct_nonnegative(rng):
    rho = random_density(rng, 3)
    for _ in range(50):
        val = q_direct(rho, rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        assert val >= -1e-12


@pytest.mark.parametrize("ts", [1, 2, 3, 4])
def test_evaluate_q_matches_direct_oracle(ts, rng):
    rho = random_density(rng, ts)
    t = decompose(rho)
    grid = build_grid(ts)
    vals = evaluate_many(Q, t, grid.node_thetas, grid.node_phis)
    for n in range(grid.n_nodes):
        direct = q_direct(rho, grid.node_thetas[n], grid.node_phis[n])
        assert vals[n] == pytest.approx(direct, abs=1e-10)


def test_evaluate_maximally_mixed_constant():
    t = decompose(DensityMatrix(1.5, np.eye(4) / 4))
    for kind in DistributionKind:
        assert evaluate(kind, t, 0.3, 0.4) == pytest.approx(1 / FOUR_PI, abs=1e-13)
        assert evaluate(kind, t, 2.0, 5.1) == pytest.approx(1 / FOUR_PI, abs=1e-13)


@pytest.mark.parametrize("ts", [1, 2, 3, 4])
def test_normalization_all_kinds(ts, rng):
    rho = random_density(rng, ts)
    t = decompose(rho)
    grid = build_grid(ts)
    for kind in DistributionKind:
        total = integrate(grid, evaluate_many(kind, t, grid.node_thetas, grid.node_phis))
        assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("ts", [1, 2, 3])
def test_p_moment_reproduction(ts, rng):
    # quadrature of the P distribution against coherent-state tensor
    # expectations recovers every coefficient
    s = ts / 2.0
    rho = random_density(rng, ts)
    t = decompose(rho)
    grid = build_grid(ts)
    w = evaluate_many(P, t, grid.node_thetas, grid.node_phis)
    amps = [
        coherent_state(s, th, ph).amplitudes
        for th, ph in zip(grid.node_thetas, grid.node_phis)
    ]
    for k in range(ts + 1):
        for q in range(-k, k + 1):
            tau = tau_matrix(s, k, q)
            f = np.array([np.conj(a) @ (tau @ a) for a in amps])
            integral = complex(
                math.fsum(grid.weights * (w * f).real),
                math.fsum(grid.weights * (w * f).imag),
            )
            assert integral == pytest.approx(t.value(k, q), abs=1e-10)


# ------------------------------------------------------ ring-wise synthesis


def harmonic_table_values(kind, t, theta, phi):
    """sum_kq sigma c_k t^k_q conj(Y_kq) / sqrt(4 pi) over the full table."""
    ts = t.s.twice_value
    weighted = t.as_array() * sign_matrix_loop(kind, ts) * coefficient_table(kind, ts / 2)[:, None]
    y = harmonic_table(ts, theta, phi)
    return np.einsum("ab,abn->n", weighted, np.conj(y)) / math.sqrt(FOUR_PI)


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def point_set(name, ts, rng):
    if name == "scattered":
        return np.arccos(rng.uniform(-1.0, 1.0, 40)), rng.uniform(0.0, 2 * math.pi, 40)
    if name == "grid":
        grid = build_grid(ts)
        return grid.node_thetas, grid.node_phis
    if name == "repeated":
        return rng.choice(rng.uniform(0, math.pi, 3), 30), rng.choice([0.0, 1.1, 4.0], 30)
    # both poles at several azimuths, beside interior points
    return np.array([0.0, math.pi, 0.0, math.pi, 0.7]), np.array([0.0, 0.0, 2.5, 4.1, 2.5])


@pytest.mark.parametrize("points", ["scattered", "grid", "repeated", "poles"])
@pytest.mark.parametrize("ts", [1, 4, 7, 12])
def test_evaluate_many_equals_harmonic_table_route(points, ts, rng):
    t = decompose(random_density(rng, ts))
    theta, phi = point_set(points, ts, rng)
    for kind in DistributionKind:
        ref = harmonic_table_values(kind, t, theta, phi)
        got = evaluate_many(kind, t, theta, phi)
        assert got.shape == theta.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref))), kind


def test_evaluate_many_rejects_unpaired_angles(rng):
    t = decompose(random_density(rng, 2))
    with pytest.raises(DomainError):
        evaluate_many(Q, t, [0.1, 0.2, 0.3], [0.0, 1.0])


def test_evaluate_many_names_imaginary_residue():
    # t^(2s)_0 = 4e-13 i passes validation (conjugation defect 8e-13 <= 1e-12),
    # but P's weights at 2s = 24 lift it to ~3e-7, above the 1e-9 residue limit
    ts = 24
    values = np.zeros((ts + 1, 2 * ts + 1), dtype=complex)
    values[0, ts] = 1.0
    values[ts, ts] = 4e-13j
    t = FanoTensorSet(ts / 2, values)
    grid = build_grid(ts)
    residue = np.max(np.abs(harmonic_table_values(P, t, grid.node_thetas, grid.node_phis).imag))
    assert residue > 1e-9
    with pytest.raises(ConsistencyError, match="imaginary residue") as exc:
        evaluate_many(P, t, grid.node_thetas, grid.node_phis)
    message = str(exc.value)
    assert "1e-09" in message
    reported = float(message.split("imaginary residue ")[1].split()[0])
    assert reported == pytest.approx(residue, rel=1e-3)


@pytest.mark.parametrize("ts", [1, 2, 3, 8])
def test_expectation_matches_trace_all_kinds(ts, rng):
    rho = random_density(rng, ts)
    t = decompose(rho)
    a = random_hermitian(rng, ts + 1)
    _, _, sz = spin_operators(ts / 2)
    grid = build_grid(ts)
    for kind in DistributionKind:
        for op in (sz, a):
            ref = np.trace(rho.matrix @ op).real
            assert expectation(kind, t, op, grid) == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("ts", [16, 24, 32])
def test_expectation_matches_trace_up_to_spin_sixteen(ts, rng):
    # P's values fail the 1e-9 imaginary-residue check from 2s = 24 on, and
    # Q's classical image of a generic operator grows like 1/c_k; only the
    # well-conditioned pairs are held to roundoff here
    rho = random_density(rng, ts)
    t = decompose(rho)
    a = random_hermitian(rng, ts + 1)
    _, _, sz = spin_operators(ts / 2)
    grid = build_grid(ts)
    for kind in (Q, F):
        ref = np.trace(rho.matrix @ sz).real
        assert expectation(kind, t, sz, grid) == pytest.approx(ref, abs=1e-12), kind
    ref = np.trace(rho.matrix @ a).real
    assert expectation(F, t, a, grid) == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("call", ["evaluate_many", "expectation"])
def test_synthesis_memory_at_spin_thirty_two(call, rng):
    ts = 32
    t = decompose(random_density(rng, ts))
    grid = build_grid(ts)
    _, _, sz = spin_operators(ts / 2)
    tracemalloc.start()
    try:
        if call == "evaluate_many":
            evaluate_many(Q, t, grid.node_thetas, grid.node_phis)
        else:
            expectation(Q, t, sz, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


# -------------------------------------------------------------- bipartite


def test_bipartite_product_tensors_factorize(rng):
    rho_a = random_density(rng, 1)
    rho_b = random_density(rng, 2)
    from spinphase import BipartiteDensityMatrix

    rho12 = BipartiteDensityMatrix(0.5, 1.0, np.kron(rho_a.matrix, rho_b.matrix))
    t12 = decompose_bipartite(rho12)
    ta, tb = decompose(rho_a), decompose(rho_b)
    for _ in range(10):
        th1, ph1 = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        th2, ph2 = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        for kind in DistributionKind:
            joint = evaluate_bipartite(kind, t12, th1, ph1, th2, ph2)
            product = evaluate(kind, ta, th1, ph1) * evaluate(kind, tb, th2, ph2)
            assert joint == pytest.approx(FOUR_PI * product / FOUR_PI, abs=1e-12)
            assert joint == pytest.approx(product, abs=1e-12)


def test_bipartite_q_matches_product_scs_oracle(rng):
    rho12 = random_bipartite_density(rng, 1, 1)
    t12 = decompose_bipartite(rho12)
    for _ in range(20):
        th1, ph1 = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        th2, ph2 = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        got = evaluate_bipartite(Q, t12, th1, ph1, th2, ph2)
        oracle = q_direct_bipartite_oracle(rho12, th1, ph1, th2, ph2)
        assert got == pytest.approx(oracle, abs=1e-10)


def einsum_bipartite_values(kind, t12, theta1, phi1, theta2, phi2):
    """The joint values as one contraction with both full harmonic tables."""
    ts1, ts2 = t12.s1.twice_value, t12.s2.twice_value
    w1 = sign_matrix_loop(kind, ts1) * coefficient_table(kind, ts1 / 2)[:, None]
    w2 = sign_matrix_loop(kind, ts2) * coefficient_table(kind, ts2 / 2)[:, None]
    t4w = t12.as_array() * w1[:, :, None, None] * w2[None, None, :, :]
    y1 = np.conj(harmonic_table(ts1, theta1, phi1))
    y2 = np.conj(harmonic_table(ts2, theta2, phi2))
    return np.einsum("abcd,abn,cdm->nm", t4w, y1, y2, optimize=True) / FOUR_PI


@pytest.mark.parametrize("ts1, ts2", [(1, 1), (2, 3), (4, 4)])
def test_evaluate_bipartite_many_equals_einsum_route(ts1, ts2, rng):
    t12 = decompose_bipartite(random_bipartite_density(rng, ts1, ts2))
    theta1, phi1 = point_set("scattered", ts1, rng)
    theta2, phi2 = point_set("grid", ts2, rng)
    for kind in DistributionKind:
        ref = einsum_bipartite_values(kind, t12, theta1, phi1, theta2, phi2)
        got = evaluate_bipartite_many(kind, t12, theta1, phi1, theta2, phi2)
        assert got.shape == (theta1.size, theta2.size)
        assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref))), kind


@pytest.mark.parametrize("ts", [1, 2])
def test_singlet_joint_depends_only_on_relative_angle(ts, rng):
    t12 = singlet_tensors(ts / 2)
    for kind in DistributionKind:
        # two direction pairs with the same relative angle
        th = rng.uniform(0.3, math.pi - 0.3)
        v1 = evaluate_bipartite(kind, t12, 0.0, 0.0, th, 0.0)
        v2 = evaluate_bipartite(
            kind, t12, math.pi / 2, 1.0, math.pi / 2, 1.0 + th
        )
        assert v1 == pytest.approx(v2, abs=1e-12)


@pytest.mark.parametrize("ts", [1, 2])
def test_singlet_marginal_is_uniform(ts, rng):
    t12 = singlet_tensors(ts / 2)
    grid = build_grid(ts)
    for kind in DistributionKind:
        for _ in range(5):
            th1 = rng.uniform(0, math.pi)
            ph1 = rng.uniform(0, 2 * math.pi)
            vals = evaluate_bipartite_many(
                kind, t12, [th1], [ph1], grid.node_thetas, grid.node_phis
            )
            marginal = math.fsum(grid.weights * vals[0])
            assert marginal == pytest.approx(1 / FOUR_PI, abs=1e-10)


# ------------------------------------------------------- classical vectors


def test_classical_spin_vector_examples():
    assert np.allclose(classical_spin_vector(P, 0.5, 0.0, 0.0), [0, 0, -0.5], atol=1e-15)
    assert np.allclose(
        classical_spin_vector(F, 0.5, 0.0, 0.0), [0, 0, 0.8660254037844386], atol=1e-12
    )
    assert np.allclose(
        classical_spin_vector(Q, 1.0, math.pi / 2, 0.0), [2, 0, 0], atol=1e-12
    )


# ------------------------------------------------------------- expectation


@pytest.mark.parametrize("kind", list(DistributionKind))
def test_expectation_identity_is_one(kind, rng):
    t = decompose(random_density(rng, 2))
    grid = build_grid(2)
    assert expectation(kind, t, np.eye(3), grid) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("ts", [1, 2, 3])
def test_expectation_sz_on_stretched_state(ts):
    n = ts + 1
    mat = np.zeros((n, n), dtype=complex)
    mat[0, 0] = 1.0
    t = decompose(DensityMatrix(ts / 2, mat))
    grid = build_grid(ts)
    _, _, sz = spin_operators(ts / 2)
    for kind in DistributionKind:
        assert expectation(kind, t, sz, grid) == pytest.approx(ts / 2.0, abs=1e-10)


def test_expectation_recovers_tensor_coefficient(rng):
    rho = random_density(rng, 2)
    t = decompose(rho)
    grid = build_grid(2)
    tau20 = tau_matrix(1.0, 2, 0)
    for kind in DistributionKind:
        got = expectation(kind, t, tau20, grid)
        assert got == pytest.approx(t.value(2, 0).real, abs=1e-10)


def test_expectation_band_limit_error(rng):
    t = decompose(random_density(rng, 4))
    with pytest.raises(BandLimitError):
        expectation(P, t, np.eye(5), build_grid(3))


def test_expectation_names_imaginary_residue_and_tolerance(rng, monkeypatch):
    # a Hermitian A's integral keeps a roundoff residue, which a zero
    # tolerance refuses as an internal defect; the maximally mixed state's
    # values are real, so the integral's check is the one that fails
    monkeypatch.setattr(distributions, "_IMAG_TOL", 0.0)
    t = decompose(DensityMatrix(2, np.eye(5) / 5))
    for kind in DistributionKind:
        message = rf"^expectation\({kind.value}\): imaginary residue \S+ exceeds 0\.0$"
        with pytest.raises(ConsistencyError, match=message):
            expectation(kind, t, random_hermitian(rng, 5), build_grid(4))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_expectation_refuses_non_hermitian_operator(seed):
    # Tr(rho A) is complex for a non-Hermitian A: the input is at fault, and
    # the refusal names A's defect and the tolerance
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    defect = np.max(np.abs(a - a.conj().T))
    t = decompose(DensityMatrix(2, np.eye(5) / 5))
    for kind in DistributionKind:
        with pytest.raises(DomainError) as exc:
            expectation(kind, t, a, build_grid(4))
        assert str(exc.value) == (
            f"a: expected a Hermitian operator (max |a - a^dag| = {defect:.3e}, tolerance 1e-12)"
        )
    # i I: Tr(rho A) = i, a residue of 1
    with pytest.raises(DomainError, match=r"^a: .* = 2\.000e\+00, tolerance 1e-12\)$"):
        expectation(Q, t, 1j * np.eye(5), build_grid(4))


def test_coefficient_tables_share_one_cache_entry_per_spin():
    assert isinstance(_tables, _RankCache)
    entry = _tables(7)
    for table, kind in zip(entry, DistributionKind):
        assert coefficient_table(kind, 3.5) is table


def on_labels(ts):
    """The mask |q| <= k of a [k, 2s + q] array; the entries beyond meet the
    tensor set's exact zeros."""
    return np.abs(np.arange(-ts, ts + 1)) <= np.arange(ts + 1)[:, None]


@pytest.mark.parametrize("kind", list(DistributionKind))
def test_sign_matrix_matches_loop(kind):
    # sigma(k, q) alone, from the two sign vectors, on the labels |q| <= k
    for ts in range(13):
        labels = on_labels(ts)
        got = np.broadcast_to(_signed(kind, ts, np.ones(ts + 1)), labels.shape)
        assert np.array_equal(got[labels], sign_matrix_loop(kind, ts)[labels])


def test_weights_cached_per_kind_and_spin():
    # sigma(k, q) c_k is formed per call from one cached entry per spin,
    # which holds every kind's c_k, and fano's cached signs (-1)^q
    entry = _tables(9)
    assert entry is _tables(9) and len(entry) == 3
    signs = _labels(9)[1]
    assert signs is _labels(9)[1] and not signs.flags.writeable
    assert np.array_equal(signs, (-1.0) ** np.arange(-9, 10))
    labels = on_labels(9)
    for kind in DistributionKind:
        c = coefficient_table(kind, 4.5)
        got = np.broadcast_to(_signed(kind, 9, c), labels.shape)
        assert np.array_equal(got[labels], (sign_matrix_loop(kind, 9) * c[:, None])[labels])
    # P's table overflows from 2s = 1027 on: evaluation is refused as the table is
    values = np.zeros((1031, 2061), dtype=complex)
    values[0, 1030] = 1.0
    message = "^P coefficients at 2s = 1030 overflow the float range from k=1030 on$"
    with pytest.raises(DomainError, match=message):
        evaluate_many(P, FanoTensorSet(515, values), [0.3], [0.2])


def test_distributions_hold_one_cache():
    # the coefficient tables and signs; label weights are formed per call
    caches = [v for v in vars(distributions).values() if isinstance(v, _RankCache)]
    assert caches == [_tables]


# ----------------------------------------------------------------- profile


def test_profile_spin_half_closed_forms():
    for theta in np.linspace(0, 2 * math.pi, 17):
        assert singlet_profile(P, 0.5, theta) == pytest.approx(
            (1 - 9 * math.cos(theta)) / FOUR_PI**2, abs=1e-14
        )
        assert singlet_profile(Q, 0.5, theta) == pytest.approx(
            (1 - math.cos(theta)) / FOUR_PI**2, abs=1e-14
        )
        assert singlet_profile(F, 0.5, theta) == pytest.approx(
            (1 - 3 * math.cos(theta)) / FOUR_PI**2, abs=1e-14
        )


def test_profile_reference_points():
    assert singlet_profile(Q, 0.5, math.pi) == pytest.approx(
        2 / FOUR_PI**2, rel=1e-12
    )
    assert singlet_profile(F, 0.5, math.pi) == pytest.approx(
        4 / FOUR_PI**2, rel=1e-12
    )


@pytest.mark.parametrize("ts", [1, 2, 3, 4])
def test_profile_matches_joint_evaluation(ts, rng):
    t12 = singlet_tensors(ts / 2)
    for kind in DistributionKind:
        for _ in range(10):
            th1, th2 = rng.uniform(0, math.pi, 2)
            ph1, ph2 = rng.uniform(0, 2 * math.pi, 2)
            cos12 = math.cos(th1) * math.cos(th2) + math.sin(th1) * math.sin(
                th2
            ) * math.cos(ph1 - ph2)
            joint = evaluate_bipartite(kind, t12, th1, ph1, th2, ph2)
            prof = singlet_profile(kind, ts / 2, math.acos(max(-1.0, min(1.0, cos12))))
            assert joint == pytest.approx(prof, abs=1e-12)


def test_profile_peak_at_antipodal_angle():
    degrees = np.arange(0.0, 360.0, 0.5)
    rad = np.deg2rad(degrees)
    for ts in (1, 4):
        for kind in DistributionKind:
            vals = singlet_profile(kind, ts / 2, rad)
            assert degrees[int(np.argmax(vals))] == pytest.approx(180.0)


def test_profile_p_negative_near_zero_for_spin_half():
    assert singlet_profile(P, 0.5, 0.0) == pytest.approx(-8 / FOUR_PI**2, rel=1e-12)


def test_profile_q_nonnegative():
    rad = np.deg2rad(np.arange(0.0, 360.5, 0.5))
    for ts in (1, 2, 3, 4):
        assert np.min(singlet_profile(Q, ts / 2, rad)) >= -1e-12


@given(st.floats(min_value=0.0, max_value=2 * math.pi))
@settings(max_examples=50, deadline=None)
def test_profile_symmetric_about_pi(theta):
    a = singlet_profile(F, 1.0, theta)
    b = singlet_profile(F, 1.0, 2 * math.pi - theta)
    assert a == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize("shape", [(3, 3), (2, 3), (2, 1, 4)])
def test_profile_of_an_n_d_array_equals_scalar_calls(shape, rng):
    # the k sum contracts k whatever the angles' shape: a 3 x 3 array once
    # differed from scalar calls by 0.040 at 2s = 2, and a 2 x 3 one raised
    theta = rng.uniform(0.0, 2 * math.pi, shape)
    for kind in DistributionKind:
        got = singlet_profile(kind, 1.0, theta)
        assert got.shape == shape
        expected = [singlet_profile(kind, 1.0, float(t)) for t in theta.ravel()]
        assert got.ravel() == pytest.approx(expected, abs=1e-15)


def test_profile_domain():
    with pytest.raises(DomainError):
        singlet_profile(P, 0.0, 1.0)


# ------------------------------------------------------------- correlation


def test_correlation_parallel_spin_half():
    grid = build_grid(2)
    z = [0.0, 0.0, 1.0]
    for kind in DistributionKind:
        assert correlation(kind, 0.5, z, z, grid) == pytest.approx(-0.25, abs=1e-10)


def test_correlation_orthogonal_vanishes():
    grid = build_grid(4)
    a, b = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
    for ts in (1, 2, 3, 4):
        for kind in DistributionKind:
            assert correlation(kind, ts / 2, a, b, grid) == pytest.approx(
                0.0, abs=1e-10
            )


def test_correlation_antiparallel_spin_two():
    grid = build_grid(4)
    a, b = [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]
    for kind in DistributionKind:
        assert correlation(kind, 2.0, a, b, grid) == pytest.approx(2.0, abs=1e-10)


def test_correlation_random_directions(rng):
    for ts in (1, 2, 3):
        grid = build_grid(max(2, ts))
        a, b = random_direction(rng), random_direction(rng)
        exact = correlation_exact(ts / 2, a, b)
        for kind in DistributionKind:
            assert correlation(kind, ts / 2, a, b, grid) == pytest.approx(
                exact, abs=1e-10
            )


def test_correlation_band_limit_error():
    with pytest.raises(BandLimitError):
        correlation(P, 0.5, [0, 0, 1.0], [0, 0, 1.0], build_grid(1))


def test_correlation_requires_unit_vectors():
    grid = build_grid(2)
    with pytest.raises(DomainError):
        correlation(P, 0.5, [0, 0, 2.0], [0, 0, 1.0], grid)
    # the norm is taken without squaring, so it does not overflow to inf
    with pytest.raises(DomainError, match=r"\(\|a\| = 1e\+200, tolerance 1e-12\)$"):
        correlation(Q, 1, [1e200, 0, 0], [0.0, 0.0, 1.0], grid)


def joint_matrix_correlation(kind, ts, a, b, grid):
    """prefactor * left @ W12 @ right with the full N x N joint distribution."""
    s = ts / 2
    prefactor = {P: s * s, Q: (s + 1) ** 2, F: s * (s + 1)}[kind]
    theta, phi = grid.node_thetas, grid.node_phis
    # n(theta, phi), with P and Q reading n(pi - theta, phi)
    z = np.cos(theta) if kind is F else np.cos(math.pi - theta)
    nodes = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), z], axis=-1)
    w12 = evaluate_bipartite_many(
        kind, singlet_tensors(s), grid.node_thetas, grid.node_phis,
        grid.node_thetas, grid.node_phis,
    )
    return prefactor * (grid.weights * (nodes @ a)) @ w12 @ (grid.weights * (nodes @ b))


@pytest.mark.parametrize("kind", list(DistributionKind))
@pytest.mark.parametrize("ts", [1, 2, 3, 5, 8])
def test_correlation_equals_joint_matrix_route(kind, ts, rng):
    # band 2 lies below 2s for 2s = 3, where the phi DFT aliases; grids of
    # band < s are refused (test_correlation_refuses_grids_below_band_s)
    for band in sorted(b for b in {2, max(2, ts), ts + 3} if 2 * b >= ts):
        grid = build_grid(band)
        a, b = random_direction(rng), random_direction(rng)
        ref = joint_matrix_correlation(kind, ts, a, b, grid)
        got = correlation(kind, ts / 2, a, b, grid)
        assert abs(got - ref) <= 1e-12 * abs(ref), (band, got, ref)


def node_vector_correlation(kind, ts, a, b, grid):
    """correlation's value from the [N, 3] node vectors of classical_spin_vector
    and a numpy contraction of the [2, 3] projections (the route before ring x
    azimuth factors, transcribed)."""
    vectors = classical_spin_vector(kind, ts / 2, grid.node_thetas, grid.node_phis)
    (left, right), _ = project(grid, np.stack([vectors @ a, vectors @ b]), 1)
    k, q = np.arange(2)[:, None], np.arange(-1, 2)
    singlet = np.where(np.abs(q) > k, 0.0, np.where((k + q) % 2, -1.0, 1.0))
    coupling = singlet * coefficient_table(kind, ts / 2)[:2, None] ** 2 / (4.0 * math.pi)
    return float(np.real(np.sum(coupling * left * right[:, ::-1])))


@pytest.mark.parametrize("kind", list(DistributionKind))
@pytest.mark.parametrize("ts", [1, 2, 3, 7, 16, 64, 400])
def test_correlation_matches_node_vector_integrand(kind, ts):
    rng = np.random.default_rng(1000 + ts)
    z, x = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    u = random_direction(rng)
    pairs = [(u, u), (u, -u), (z, x), (random_direction(rng), random_direction(rng)),
             (random_direction(rng), random_direction(rng))]
    grid = build_grid(max(2, (ts + 1) // 2))
    scale = ts / 2 * (ts / 2 + 1) / 3
    for a, b in pairs:
        got = correlation(kind, ts / 2, a, b, grid)
        assert abs(got - node_vector_correlation(kind, ts, a, b, grid)) <= 1e-14 * scale


def projection_correlation(kind, ts, a, b, grid):
    """(value, roundoff bound) by correlation's route before the ring x azimuth
    sums, transcribed: each side's component as [R, C] node values from ring
    and azimuth factors, projected onto ranks 0 and 1 by quadrature.project
    (one FFT per ring, N eps bound for N nodes), and contracted in Python
    scalars with the projections' bounds carried through."""
    d = np.array([a, b], dtype=float)
    magnitude, z_sign = distributions._spin_scale(kind, ts)
    sin_t, cos_t = magnitude * np.sin(grid.thetas), (magnitude * z_sign) * np.cos(grid.thetas)
    azimuths = d[:, :2] @ np.array([np.cos(grid.phis), np.sin(grid.phis)])
    sides = sin_t[:, None] * azimuths[:, None, :] + (d[:, 2:] * cos_t)[..., None]
    (left, right), (left_err, right_err) = project(grid, sides.reshape(2, -1), 1)
    left, right, left_err, right_err = (x.tolist() for x in (left, right, left_err, right_err))
    total, bound, abs_total = 0j, 0.0, 0.0
    c = coefficient_table(kind, ts / 2)[:2].tolist()
    for k, signs in enumerate(distributions._SINGLET_RANK1):
        for i, sign in enumerate(signs):
            coupling = sign * (c[k] * c[k]) / (4.0 * math.pi)
            l, r, dl, dr = left[k][i], right[k][2 - i], left_err[k][i], right_err[k][2 - i]
            term = coupling * l * r
            total += term
            abs_total += abs(term)
            bound += abs(coupling) * (abs(l) * dr + dl * abs(r) + dl * dr)
    return total.real, bound + 6 * np.finfo(float).eps * abs_total


def correlation_bound(monkeypatch, kind, ts, a, b, grid):
    """correlation's roundoff bound, read from the refusal that a zero
    tolerance forces; the message shows it to four digits."""
    with monkeypatch.context() as m:
        m.setattr(distributions, "_CORRELATION_RTOL", 0.0)
        with pytest.raises(ConsistencyError) as exc:
            correlation(kind, ts / 2, a, b, grid)
    return float(str(exc.value).split("roundoff bound ")[1].split()[0])


@pytest.mark.parametrize("ts", [1, 2, 3, 5, 8, 16, 24, 64, 400])
def test_correlation_matches_projection_route(ts, monkeypatch):
    rng = np.random.default_rng(2900 + ts)
    z, x = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    u = random_direction(rng)
    pairs = [(u, u), (u, -u), (z, x), (random_direction(rng), random_direction(rng)),
             (random_direction(rng), random_direction(rng))]
    scale = ts / 2 * (ts / 2 + 1) / 3
    # the coarsest exact grid (the CLI's) and the band-2s one
    for band in sorted({max(2, (ts + 1) // 2), max(2, ts)}):
        grid = build_grid(band)
        for kind in DistributionKind:
            for a, b in pairs:
                old, old_bound = projection_correlation(kind, ts, a, b, grid)
                # every case here is one the old bound accepts, so it must answer
                assert old_bound <= 1e-9 * scale
                got = correlation(kind, ts / 2, a, b, grid)
                assert abs(got - old) <= 1e-14 * scale, (band, kind, got, old)
                # the four digits shown may round the bound up by 5e-4 of itself
                bound = correlation_bound(monkeypatch, kind, ts, a, b, grid) * (1 - 5e-4)
                assert bound >= abs(got - correlation_exact(ts / 2, a, b)), (band, kind)


@pytest.mark.parametrize("kind", list(DistributionKind))
@pytest.mark.parametrize("ts, band", [(5, 2), (8, 3), (64, 2)])
def test_correlation_refuses_grids_below_band_s(kind, ts, band):
    # band < s aliases the band-2s x band-1 product, so the sum would be
    # wrong: for a = b = z, F at 2s = 64 on band 2 would give -7758 against
    # the closed form -352, and P at 2s = 8 on band 3 -8321 against -6.67
    with pytest.raises(BandLimitError) as exc:
        correlation(kind, ts / 2, [0, 0, 1.0], [0, 0, 1.0], build_grid(band))
    message = str(exc.value)
    assert f"band limit {band}" in message and f"2s = {ts}" in message
    assert "2 * band >= 2s" in message


@pytest.mark.parametrize("kind", list(DistributionKind))
def test_correlation_accepts_band_s(kind, rng):
    a, b = random_direction(rng), random_direction(rng)
    got = correlation(kind, 4.0, a, b, build_grid(4))
    assert abs(got - correlation_exact(4.0, a, b)) <= 1e-9 * 4 * 5 / 3


@pytest.mark.parametrize("kind", list(DistributionKind))
def test_correlation_closed_form_up_to_spin_twelve(kind, rng):
    for ts in range(1, 25):
        s = ts / 2
        a, b = random_direction(rng), random_direction(rng)
        got = correlation(kind, s, a, b, build_grid(max(2, ts)))
        assert abs(got - correlation_exact(s, a, b)) <= 1e-9 * s * (s + 1) / 3, ts


@pytest.mark.parametrize("ts", [32, 40])
def test_correlation_p_guard_refuses_uncertified_values(ts):
    # P's c_k^2 grow like 16^s: times the roundoff of the rank k >= 2
    # projections, they would miss by ~3e-6 at 2s = 40; ranks 0 and 1 do not
    s, a, b = ts / 2, [0, 0, 1.0], [0, 0.6, 0.8]
    got = correlation(P, s, a, b, build_grid(ts))
    assert got == pytest.approx(correlation_exact(s, a, b), rel=1e-12)


@pytest.mark.scale
def test_correlation_p_guard_names_bound_and_tolerance(monkeypatch):
    # a tolerance no roundoff bound meets forces the refusal
    monkeypatch.setattr(distributions, "_CORRELATION_RTOL", 1e-40)
    with pytest.raises(ConsistencyError) as exc:
        correlation(P, 32.0, [0, 0, 1.0], [0, 0, 1.0], build_grid(64))
    message = str(exc.value)
    bound = float(message.split("roundoff bound ")[1].split()[0])
    tolerance = float(message.split("tolerance ")[1].split()[0])
    assert tolerance == pytest.approx(1e-40 * 32 * 33 / 3, rel=1e-3)
    assert bound > tolerance
    assert message.endswith("(1e-40 s(s+1)/3)")


@pytest.mark.scale
@pytest.mark.parametrize("kind", [Q, F, P])
@pytest.mark.parametrize("ts", [64, 128, 200])
def test_correlation_closed_form_at_large_spin(kind, ts, rng):
    s = ts / 2
    a, b = random_direction(rng), random_direction(rng)
    got = correlation(kind, s, a, b, build_grid(ts))
    assert abs(got - correlation_exact(s, a, b)) <= 1e-9 * s * (s + 1) / 3


@pytest.mark.scale
@pytest.mark.parametrize("kind", [P, Q, F])
def test_correlation_answers_at_twice_spin_1007_on_band_2s(kind):
    # an N eps bound for the N nodes refused every kind here (8.474e-05
    # against 8.467e-05); the per-stage (R + C + 16) eps bound answers
    a, b = [0, 0, 1.0], [0, math.sqrt(0.5), math.sqrt(0.5)]
    got = correlation(kind, 503.5, a, b, build_grid(1007))
    assert got == pytest.approx(correlation_exact(503.5, a, b), rel=1e-12)


@pytest.mark.scale
def test_correlation_memory_at_twice_spin_2000():
    # ring and azimuth sums over R = 1001 and C = 2002 nodes: 0.19-0.33 MB
    # measured; the [2, R, C] node values alone would take 32 MB
    grid = build_grid(1000)
    tracemalloc.start()
    try:
        correlation(F, 1000.0, [0, 0, 1.0], [0, 1.0, 0], grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1e6


@pytest.mark.scale
@pytest.mark.parametrize("kind", [Q, F])
def test_correlation_memory_at_spin_thirty_two(kind):
    # ring and azimuth sums, O(R + C): 16-26 kB measured, the first call at
    # a spin with its coefficient tables
    grid = build_grid(64)
    tracemalloc.start()
    try:
        correlation(kind, 32.0, [0, 0, 1.0], [0, 1.0, 0], grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100e6


@pytest.mark.scale
def test_correlation_memory_at_spin_sixty_four():
    # ring and azimuth sums, O(R + C): 38 kB measured
    grid = build_grid(128)
    tracemalloc.start()
    try:
        correlation(F, 64.0, [0, 0, 1.0], [0, 1.0, 0], grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 45e6


@pytest.mark.scale
@pytest.mark.parametrize("kind", [P, F])
def test_correlation_memory_at_spin_one_hundred(kind):
    # ring and azimuth sums, O(R + C): 42-56 kB measured
    grid = build_grid(200)
    tracemalloc.start()
    try:
        correlation(kind, 100.0, [0, 0, 1.0], [0, 1.0, 0], grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6

