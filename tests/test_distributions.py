import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinphase import (
    BandLimitError,
    DensityMatrix,
    DirectionVector,
    DistributionKind,
    DomainError,
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
    q_direct,
    singlet_profile,
    singlet_tensors,
    spin_operators,
    tau_matrix,
)
from conftest import random_bipartite_density, random_density, random_direction

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


def test_direction_vector_validation():
    with pytest.raises(DomainError):
        DirectionVector(1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        DirectionVector.normalized([0.0, 0.0, 0.0])
    d = DirectionVector.normalized([3.0, 0.0, 4.0])
    assert d.as_array() == pytest.approx([0.6, 0.0, 0.8])


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
