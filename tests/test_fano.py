import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinphase import (
    BipartiteDensityMatrix,
    CoupledFanoTensorSet,
    DensityMatrix,
    FanoTensorSet,
    ValidationError,
    clebsch_gordan,
    decompose,
    decompose_bipartite,
    is_product,
    reconstruct,
    reconstruct_bipartite,
    reduce,
    rotate_tensors,
    singlet_density,
    singlet_tensors,
    tau_matrix,
    wigner_D_matrix,
)
from conftest import random_bipartite_density, random_density
from test_tensor_ops import all_labels

# ---------------------------------------------------------------- oracles


def trace_oracle(rho_matrix, tau):
    """Plain double-loop trace, independent of the einsum route."""
    n = rho_matrix.shape[0]
    total = 0.0 + 0.0j
    for a in range(n):
        for b in range(n):
            total += rho_matrix[a, b] * tau[b, a]
    return total


def kron_trace_oracle(rho_matrix, tau1, tau2):
    return np.trace(rho_matrix @ np.kron(tau1, tau2))


def partial_trace_oracle(rho_matrix, n1, n2, which):
    if which == 1:
        out = np.zeros((n1, n1), dtype=complex)
        for i in range(n1):
            for k in range(n1):
                for j in range(n2):
                    out[i, k] += rho_matrix[i * n2 + j, k * n2 + j]
    else:
        out = np.zeros((n2, n2), dtype=complex)
        for j in range(n2):
            for l in range(n2):
                for i in range(n1):
                    out[j, l] += rho_matrix[i * n2 + j, i * n2 + l]
    return out


# ------------------------------------------------------------- validation


def test_density_rejects_non_hermitian():
    bad = np.array([[0.5, 0.2], [0.1, 0.5]], dtype=complex)
    with pytest.raises(ValidationError, match="hermiticity"):
        DensityMatrix(0.5, bad)


@pytest.mark.parametrize(
    "matrix, message",
    [
        (
            [[0.5, 3.1e-11], [0.0, 0.5]],
            r"hermiticity violated \(max \|M - M\^dag\| = 3\.100e-11, tolerance 1e-12\)",
        ),
        (
            [[0.5, 0.0], [0.0, 0.5 + 4e-12]],
            r"unit trace violated \(measured trace = 1\.000000000004\+0\.000e\+00j, "
            r"\|trace - 1\| = 4\.000e-12, tolerance 1e-12\)",
        ),
        (
            [[1.002, 0.0], [0.0, -0.002]],
            r"positivity violated \(smallest eigenvalue = -2\.000e-03, floor -1e-10\)",
        ),
    ],
)
def test_density_errors_name_measured_value_and_tolerance(matrix, message):
    with pytest.raises(ValidationError, match=message):
        DensityMatrix(0.5, np.array(matrix, dtype=complex))


def test_density_rejects_bad_trace_with_measured_value():
    bad = np.eye(2, dtype=complex)
    with pytest.raises(ValidationError, match="trace"):
        DensityMatrix(0.5, bad)
    try:
        DensityMatrix(0.5, bad)
    except ValidationError as exc:
        assert "2" in str(exc)  # the measured trace appears in the message


def test_density_rejects_negative_eigenvalue():
    bad = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValidationError, match="positivity"):
        DensityMatrix(0.5, bad)


def test_density_rejects_dimension_mismatch():
    with pytest.raises(ValidationError, match="dimension"):
        DensityMatrix(0.5, np.eye(3) / 3)


# tensor-set arrays are [k, 2s + q]: for s = 1/2 the columns are q = -1, 0, 1


def test_tensor_set_rejects_incomplete():
    with pytest.raises(ValidationError, match="missing"):
        FanoTensorSet(0.5, np.array([[0.0, 1.0, 0.0]]))  # only label (0, 0)


def test_tensor_set_rejects_broken_hermiticity():
    vals = np.array([[0.0, 1.0, 0.0], [0.1 + 0.1j, 0.2, 0.1 + 0.1j]])
    with pytest.raises(ValidationError, match="hermiticity"):
        FanoTensorSet(0.5, vals)


def test_tensor_set_error_names_label_defect_and_tolerance():
    vals = np.array([[0.0, 1.0, 0.0], [0.1 + 0.1j, 0.2, 0.1 + 0.1j]])
    with pytest.raises(
        ValidationError, match=r"\(k=1, q=1\): .* = 2\.000e-01 exceeds tolerance 1e-12"
    ):
        FanoTensorSet(0.5, vals)


def test_tensor_set_rejects_bad_normalization():
    vals = np.array([[0.0, 0.9, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValidationError, match="normalization"):
        FanoTensorSet(0.5, vals)


# -------------------------------------------------------------- decompose


@pytest.mark.parametrize("ts", [1, 2, 3])
def test_decompose_maximally_mixed(ts):
    rho = DensityMatrix(ts / 2, np.eye(ts + 1) / (ts + 1))
    t = decompose(rho)
    expected = np.zeros((ts + 1, 2 * ts + 1))
    expected[0, ts] = 1.0  # label (0, 0)
    assert t.values == pytest.approx(expected, abs=1e-13)


def test_decompose_stretched_state():
    m = np.zeros((2, 2), dtype=complex)
    m[0, 0] = 1.0
    t = decompose(DensityMatrix(0.5, m))
    assert t.value(1, 0) == pytest.approx(1.0, abs=1e-13)


def test_decompose_matches_trace_oracle(rng):
    rho = random_density(rng, 2)
    t = decompose(rho)
    for k in range(3):
        for q in range(-k, k + 1):
            expected = trace_oracle(rho.matrix, tau_matrix(1, k, q))
            assert t.value(k, q) == pytest.approx(expected, abs=1e-12)


def test_decompose_satisfies_invariants(rng):
    for ts in (1, 2, 3, 4):
        t = decompose(random_density(rng, ts))
        assert t.value(0, 0) == pytest.approx(1.0, abs=1e-12)
        q = np.arange(-ts, ts + 1)
        # reversing the columns maps q to -q
        assert np.conj(t.values) == pytest.approx(
            (-1.0) ** q * t.values[:, ::-1], abs=1e-12
        )


# ------------------------------------------------------------ reconstruct


def test_reconstruct_trivial_set():
    vals = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    rho = reconstruct(FanoTensorSet(0.5, vals))
    assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-14)


@pytest.mark.parametrize("ts", [1, 2, 3, 4, 5, 6])
def test_roundtrip_random_states(ts, rng):
    for _ in range(10):
        rho = random_density(rng, ts)
        back = reconstruct(decompose(rho))
        assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-12


# -------------------------------------------------------------- bipartite


def test_bipartite_product_state_factorizes(rng):
    rho_a = random_density(rng, 1)
    rho_b = random_density(rng, 2)
    rho12 = BipartiteDensityMatrix(0.5, 1.0, np.kron(rho_a.matrix, rho_b.matrix))
    t12 = decompose_bipartite(rho12)
    ta = decompose(rho_a)
    tb = decompose(rho_b)
    product = np.multiply.outer(ta.values, tb.values)
    assert t12.values == pytest.approx(product, abs=1e-12)


@pytest.mark.parametrize("ts1,ts2", [(1, 1), (1, 2), (3, 2)])
def test_bipartite_matches_kron_trace_oracle(ts1, ts2, rng):
    rho12 = random_bipartite_density(rng, ts1, ts2)
    t12 = decompose_bipartite(rho12)
    for k1, q1 in all_labels(ts1):
        for k2, q2 in all_labels(ts2):
            expected = kron_trace_oracle(
                rho12.matrix, tau_matrix(ts1 / 2, k1, q1), tau_matrix(ts2 / 2, k2, q2)
            )
            assert t12.value(k1, q1, k2, q2) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("ts1,ts2", [(1, 1), (1, 2), (2, 2)])
def test_bipartite_roundtrip(ts1, ts2, rng):
    for _ in range(5):
        rho12 = random_bipartite_density(rng, ts1, ts2)
        back = reconstruct_bipartite(decompose_bipartite(rho12))
        assert np.max(np.abs(back.matrix - rho12.matrix)) < 1e-12


# ---------------------------------------------------------------- reduce


def test_reduce_product_state(rng):
    rho_a = random_density(rng, 1)
    rho_b = random_density(rng, 2)
    rho12 = BipartiteDensityMatrix(0.5, 1.0, np.kron(rho_a.matrix, rho_b.matrix))
    assert np.max(np.abs(reduce(rho12, 1).matrix - rho_a.matrix)) < 1e-13
    assert np.max(np.abs(reduce(rho12, 2).matrix - rho_b.matrix)) < 1e-13


@pytest.mark.parametrize("ts", [1, 2, 3])
def test_reduce_singlet_is_maximally_mixed(ts):
    rho12 = singlet_density(ts / 2)
    for which in (1, 2):
        red = reduce(rho12, which)
        assert np.max(np.abs(red.matrix - np.eye(ts + 1) / (ts + 1))) < 1e-13


def test_reduce_matches_loop_oracle(rng):
    rho12 = random_bipartite_density(rng, 1, 2)
    for which in (1, 2):
        got = reduce(rho12, which).matrix
        expected = partial_trace_oracle(rho12.matrix, 2, 3, which)
        assert np.max(np.abs(got - expected)) < 1e-13
        assert abs(np.trace(got) - 1.0) < 1e-12


def test_reduce_consistent_with_coupled_restriction(rng):
    rho12 = random_bipartite_density(rng, 2, 1)
    t12 = decompose_bipartite(rho12)
    t1 = decompose(reduce(rho12, 1))
    t2 = decompose(reduce(rho12, 2))
    # labels (k, q, 0, 0) and (0, 0, k, q)
    assert t1.values == pytest.approx(t12.values[:, :, 0, 1], abs=1e-12)
    assert t2.values == pytest.approx(t12.values[0, 2, :, :], abs=1e-12)


# ------------------------------------------------------------- is_product


def test_is_product_for_product_state(rng):
    rho12 = BipartiteDensityMatrix(
        0.5, 0.5, np.kron(random_density(rng, 1).matrix, random_density(rng, 1).matrix)
    )
    assert is_product(decompose_bipartite(rho12), 1e-10)


def test_is_product_rejects_singlet():
    t12 = singlet_tensors(0.5)
    assert not is_product(t12, 1e-10)
    # witness label: the rank-1 diagonal coefficient is -1 with zero marginals
    assert t12.value(1, 0, 1, 0) == pytest.approx(-1.0)
    assert t12.value(1, 0, 0, 0) == 0.0


def test_is_product_weakly_mixed_singlet():
    mixed = np.eye(4) / 4.0
    singlet = singlet_density(0.5).matrix
    rho12 = BipartiteDensityMatrix(0.5, 0.5, 0.99 * mixed + 0.01 * singlet)
    t12 = decompose_bipartite(rho12)
    assert not is_product(t12, 1e-10)
    assert is_product(t12, 0.02)


# --------------------------------------------------------------- rotation


def test_rotate_identity_is_noop(rng):
    t = decompose(random_density(rng, 3))
    t_rot = rotate_tensors(t, 0.0, 0.0, 0.0)
    assert t_rot.values == pytest.approx(t.values, abs=1e-13)


def test_rotate_flips_axial_dipole():
    vals = np.array([[0.0, 1.0, 0.0], [0.0, 0.4, 0.0]])
    t = FanoTensorSet(0.5, vals)
    t_rot = rotate_tensors(t, 0.0, math.pi, 0.0)
    assert t_rot.value(1, 0) == pytest.approx(-0.4, abs=1e-13)


@pytest.mark.parametrize("ts", [1, 2, 3, 4, 8, 16, 24, 32])
def test_rotate_matches_conjugation_oracle(ts, rng):
    for _ in range(3):
        rho = random_density(rng, ts)
        t = decompose(rho)
        angles = (
            rng.uniform(0, 2 * math.pi),
            rng.uniform(0, math.pi),
            rng.uniform(0, 2 * math.pi),
        )
        rot = wigner_D_matrix(ts / 2, *angles)
        rotated_rho = DensityMatrix(ts / 2, rot @ rho.matrix @ rot.conj().T)
        expected = decompose(rotated_rho)
        got = rotate_tensors(t, *angles)
        assert got.values == pytest.approx(expected.values, abs=1e-9)


def conjugate_d_route(t, alpha, beta, gamma):
    """Rank by rank conj(D^k) @ t^k with the public D matrices."""
    ts = t.s.twice_value
    out = t.values.copy()
    for k in range(1, ts + 1):
        cols = slice(ts - k, ts + k + 1)
        # wigner_D_matrix orders q = k..-k, the reverse of the array columns
        d = wigner_D_matrix(k, alpha, beta, gamma)
        out[k, cols] = (np.conj(d) @ t.values[k, cols][::-1])[::-1]
    return out


@pytest.mark.parametrize("ts", [1, 4, 13, 24, 32])
def test_rotate_matches_d_matrix_route_over_beta(ts, rng):
    t = decompose(random_density(rng, ts))
    scale = np.max(np.abs(t.values))
    for beta in np.linspace(0.0, 2.0 * math.pi, 25):
        alpha, gamma = rng.uniform(0, 2 * math.pi, 2)
        expected = conjugate_d_route(t, alpha, beta, gamma)
        got = rotate_tensors(t, alpha, beta, gamma).values
        assert np.max(np.abs(got - expected)) <= 1e-14 * scale


# ---------------------------------------------------------------- singlet


def test_singlet_density_spin_half_entries():
    mat = singlet_density(0.5).matrix
    expected = np.zeros((4, 4))
    expected[1, 1] = expected[2, 2] = 0.5
    expected[1, 2] = expected[2, 1] = -0.5
    assert np.max(np.abs(mat - expected)) < 1e-14


@pytest.mark.parametrize("ts", [1, 2, 3])
def test_singlet_density_pure_unit_trace(ts):
    rho = singlet_density(ts / 2)
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-13
    assert np.max(np.abs(rho.matrix @ rho.matrix - rho.matrix)) < 1e-12


@pytest.mark.parametrize("ts", [1, 2, 3])
def test_singlet_density_rotationally_invariant(ts, rng):
    rho = singlet_density(ts / 2)
    angles = (
        rng.uniform(0, 2 * math.pi),
        rng.uniform(0, math.pi),
        rng.uniform(0, 2 * math.pi),
    )
    rot = wigner_D_matrix(ts / 2, *angles)
    big = np.kron(rot, rot)
    assert np.max(np.abs(big @ rho.matrix - rho.matrix @ big)) < 1e-10


def test_singlet_density_spin_one_matches_coupling_oracle():
    # |(s s) 0 0> = sum_m c(s s 0; m -m 0) |m, -m>
    ts = 2
    n = ts + 1
    vec = np.zeros(n * n, dtype=complex)
    for i in range(n):
        m = (ts - 2 * i) / 2.0
        vec[i * n + (ts - i)] = clebsch_gordan(1, 1, 0, m, -m, 0)
    oracle = np.outer(vec, vec.conj())
    assert np.max(np.abs(singlet_density(1).matrix - oracle)) < 1e-13


def test_singlet_tensors_closed_form_values():
    t12 = singlet_tensors(0.5)
    assert t12.value(0, 0, 0, 0) == pytest.approx(1.0)
    assert t12.value(1, 1, 1, -1) == pytest.approx(1.0)
    assert t12.value(1, 0, 1, 0) == pytest.approx(-1.0)
    k1, c1, k2, c2 = np.indices(t12.values.shape)
    # q1 = c1 - 1 and q2 = c2 - 1, so q1 != -q2 is c1 + c2 != 2
    off_pattern = (k1 != k2) | (c1 + c2 != 2)
    assert np.all(t12.values[off_pattern] == 0.0)


@pytest.mark.parametrize("ts", [1, 2])
def test_singlet_tensors_match_decomposition(ts):
    closed = singlet_tensors(ts / 2)
    brute = decompose_bipartite(singlet_density(ts / 2))
    assert closed.values == pytest.approx(brute.values, abs=1e-12)


@pytest.mark.parametrize("ts", [1, 2, 3])
def test_singlet_tensors_invariant_under_joint_rotation(ts, rng):
    t12 = singlet_tensors(ts / 2)
    angles = (
        rng.uniform(0, 2 * math.pi),
        rng.uniform(0, math.pi),
        rng.uniform(0, 2 * math.pi),
    )
    # rotate both label pairs with the same conjugated rank matrices
    for k1 in range(ts + 1):
        d1 = np.conj(wigner_D_matrix(k1, *angles))
        for k2 in range(ts + 1):
            d2 = np.conj(wigner_D_matrix(k2, *angles))
            block = np.array(
                [
                    [t12.value(k1, k1 - i, k2, k2 - j) for j in range(2 * k2 + 1)]
                    for i in range(2 * k1 + 1)
                ]
            )
            rotated = d1 @ block @ d2.T
            assert np.max(np.abs(rotated - block)) < 1e-9


def test_coupled_tensor_set_validation():
    good = singlet_tensors(0.5)
    # drop the q2 = -1 column, which holds label (1, 1, 1, -1)
    vals = np.delete(good.values, 0, axis=3)
    with pytest.raises(ValidationError, match="incomplete"):
        CoupledFanoTensorSet(0.5, 0.5, vals)


def test_coupled_tensor_set_error_names_label_defect_and_tolerance():
    vals = singlet_tensors(0.5).values.copy()
    vals[1, 2, 1, 0] += 1e-6  # label (1, 1, 1, -1); its mirror is (1, -1, 1, 1)
    with pytest.raises(
        ValidationError,
        match=r"\(k1=1, q1=1, k2=1, q2=-1\): .* = 1\.000e-06 exceeds tolerance 1e-12",
    ):
        CoupledFanoTensorSet(0.5, 0.5, vals)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_decompose_bullets_hold_for_any_state(seed):
    rng = np.random.default_rng(seed)
    ts = int(rng.integers(1, 5))
    t = decompose(random_density(rng, ts))
    assert abs(t.value(0, 0) - 1.0) < 1e-12
    q = np.arange(-ts, ts + 1)
    # reversing the columns maps q to -q
    assert np.all(np.abs(np.conj(t.values) - (-1.0) ** q * t.values[:, ::-1]) < 1e-12)
