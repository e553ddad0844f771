import math

import numpy as np
import pytest

from spinphase import (
    DomainError,
    clebsch_gordan,
    operator_components,
    operator_from_components,
    spin_operators,
    tau_matrix,
    wigner_D,
    wigner_D_matrix,
)
from spinphase.angular import _RankCache
from spinphase.tensor_ops import _bands, _build_bands
from test_angular import ladder_spin_matrices

# ---------------------------------------------------------------- oracles


def random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def all_labels(ts):
    for k in range(ts + 1):
        for q in range(-k, k + 1):
            yield k, q


def bands_from_clebsch_gordan(ts):
    """Each band entry from the public, validated clebsch_gordan."""
    n = ts + 1
    out = []
    for q in range(-ts, ts + 1):
        size = n - abs(q)
        band = np.zeros((size, size))
        for k in range(abs(q), n):
            for j in range(size):
                tm = ts - 2 * (j + max(q, 0))
                band[k - abs(q), j] = math.sqrt(2.0 * k + 1.0) * clebsch_gordan(
                    ts / 2, k, ts / 2, tm / 2, q, tm / 2 + q
                )
        out.append(band)
    return out


# ------------------------------------------------------------------ bands


@pytest.mark.parametrize("ts", range(13))
def test_bands_equal_clebsch_gordan_build(ts):
    got = _build_bands(ts)
    expected = bands_from_clebsch_gordan(ts)
    assert len(got) == len(expected)
    for band, ref in zip(got, expected):
        assert np.array_equal(band, ref)


def band_bytes(ts):
    """8 sum_q (n - |q|)^2 bytes: one spin's bands."""
    n = ts + 1
    return 8 * sum((n - abs(q)) ** 2 for q in range(-ts, ts + 1))


def test_bands_cache_is_bounded_by_bytes():
    assert isinstance(_bands, _RankCache)
    assert _bands.max_bytes == 100_000_000
    # 43.3 MB at 2s = 200: both factors of a 2s = 200 bipartite state fit,
    # three spins that size do not
    assert 2 * band_bytes(200) <= _bands.max_bytes < 3 * band_bytes(200)
    for ts in range(6):
        assert sum(b.nbytes for b in _bands(ts)) == band_bytes(ts)


def test_band_cache_evicts_oldest_and_counts_bytes():
    # a budget of the 2s = 6 and 2s = 5 entries together; 2s = 8 alone is bigger
    cache = _RankCache(_build_bands, max_bytes=band_bytes(6) + band_bytes(5))
    cache(6)
    cache(5)
    assert cache.cache_info()["keys"] == (6, 5)
    assert cache.cache_info()["bytes"] == band_bytes(6) + band_bytes(5)
    cache(6)  # a hit moves 6 to the newest end
    cache(4)  # evicts 5, the oldest
    info = cache.cache_info()
    assert info["keys"] == (6, 4)
    assert info["bytes"] == band_bytes(6) + band_bytes(4)
    assert (info["hits"], info["misses"]) == (1, 3)
    cache(8)  # over budget on its own: every older entry goes, the newest stays
    info = cache.cache_info()
    assert info["keys"] == (8,)
    assert info["bytes"] == band_bytes(8) > info["max_bytes"]
    for got, ref in zip(cache(8), _build_bands(8)):
        assert np.array_equal(got, ref)


# ------------------------------------------------------------------ tau


@pytest.mark.parametrize("ts", [0, 1, 2, 3, 4])
def test_tau_rank_zero_is_identity(ts):
    assert np.allclose(tau_matrix(ts / 2, 0, 0), np.eye(ts + 1), atol=1e-15)


def test_tau_spin_half_rank_one_diagonal():
    got = tau_matrix(0.5, 1, 0)
    assert np.allclose(got, np.diag([1.0, -1.0]), atol=1e-14)


@pytest.mark.parametrize("ts", [1, 2, 3, 4, 5])
def test_tau_traceless_above_rank_zero(ts):
    for k, q in all_labels(ts):
        if k == 0:
            continue
        assert abs(np.trace(tau_matrix(ts / 2, k, q))) < 1e-13


@pytest.mark.parametrize("ts", [1, 2, 3])
def test_tau_single_band_structure(ts):
    n = ts + 1
    for k, q in all_labels(ts):
        mat = tau_matrix(ts / 2, k, q)
        for ip in range(n):
            for i in range(n):
                if ip != i - q and mat[ip, i] != 0:
                    pytest.fail(f"off-band entry at k={k} q={q} ({ip},{i})")


@pytest.mark.parametrize("ts", [1, 2, 3, 4, 5])
def test_tau_orthonormality(ts):
    labels = list(all_labels(ts))
    stack = np.array([tau_matrix(ts / 2, k, q) for k, q in labels])
    gram = np.einsum("aij,bij->ab", stack, stack.conj())
    assert np.max(np.abs(gram - (ts + 1) * np.eye(len(labels)))) < 1e-10


@pytest.mark.parametrize("ts", [1, 2, 3, 4, 5])
def test_tau_hermiticity(ts):
    for k, q in all_labels(ts):
        lhs = tau_matrix(ts / 2, k, q).conj().T
        rhs = (-1.0) ** q * tau_matrix(ts / 2, k, -q)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("ts", [1, 2, 3, 4])
def test_tau_rotation_covariance(ts, rng):
    s = ts / 2
    for _ in range(3):
        angles = (
            rng.uniform(0, 2 * math.pi),
            rng.uniform(0, math.pi),
            rng.uniform(0, 2 * math.pi),
        )
        rot = wigner_D_matrix(s, *angles)
        for k, q in all_labels(ts):
            lhs = rot @ tau_matrix(s, k, q) @ rot.conj().T
            rhs = sum(
                wigner_D(k, qp, q, *angles) * tau_matrix(s, k, qp)
                for qp in range(-k, k + 1)
            )
            assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_tau_domain_errors():
    with pytest.raises(DomainError):
        tau_matrix(0.5, 2, 0)  # k > 2s
    with pytest.raises(DomainError):
        tau_matrix(1, 1, 2)  # |q| > k
    with pytest.raises(DomainError):
        tau_matrix(-0.5, 0, 0)


# ----------------------------------------------------------- components


@pytest.mark.parametrize("ts", [1, 2, 3])
def test_components_of_identity(ts):
    comps = operator_components(np.eye(ts + 1))
    expected = np.zeros((ts + 1, 2 * ts + 1))
    expected[0, ts] = ts + 1.0  # label (0, 0)
    assert comps == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("ts", [1, 2, 3])
def test_components_of_tensor_basis_element(ts):
    comps = operator_components(tau_matrix(ts / 2, 1, 0))
    expected = np.zeros((ts + 1, 2 * ts + 1))
    expected[1, ts] = ts + 1.0  # label (1, 0)
    assert comps == pytest.approx(expected, abs=1e-12)


def test_components_hermitian_symmetry(rng):
    # for Hermitian A the components obey conj(a^k_q) = (-1)^q a^k_{-q}
    a = random_matrix(rng, 3)
    a = a + a.conj().T
    comps = operator_components(a)  # layout [k, 2 + q]
    for k, q in all_labels(2):
        direct = np.einsum("ab,ba->", a, tau_matrix(1, k, q))
        assert comps[k, 2 + q] == pytest.approx(direct, abs=1e-12)
        assert np.conj(comps[k, 2 + q]) == pytest.approx(
            (-1.0) ** q * comps[k, 2 - q], abs=1e-12
        )


@pytest.mark.parametrize("ts", [1, 2, 3, 4, 5, 6])
def test_components_roundtrip_random(ts, rng):
    for _ in range(5):
        a = random_matrix(rng, ts + 1)
        back = operator_from_components(ts / 2, operator_components(a))
        assert np.max(np.abs(back - a)) < 1e-12


def test_components_rejects_non_square():
    with pytest.raises(DomainError):
        operator_components(np.zeros((2, 3)))


# ---------------------------------------------------------- spin matrices


def test_spin_half_is_half_pauli():
    sx, sy, sz = spin_operators(0.5)
    assert np.allclose(sx, np.array([[0, 0.5], [0.5, 0]]), atol=1e-14)
    assert np.allclose(sy, np.array([[0, -0.5j], [0.5j, 0]]), atol=1e-14)
    assert np.allclose(sz, np.diag([0.5, -0.5]), atol=1e-14)


def test_spin_one_matches_ladder_oracle():
    sz_l, sp_l = ladder_spin_matrices(2)
    sm_l = sp_l.conj().T
    sx, sy, sz = spin_operators(1)
    assert np.allclose(sx, (sp_l + sm_l) / 2, atol=1e-13)
    assert np.allclose(sy, (sp_l - sm_l) / 2j, atol=1e-13)
    assert np.allclose(sz, sz_l, atol=1e-13)
    assert np.allclose(np.diag(sz).real, [1.0, 0.0, -1.0], atol=1e-13)


@pytest.mark.parametrize("ts", [1, 2, 3, 4, 5, 6])
def test_spin_algebra(ts):
    s = ts / 2.0
    sx, sy, sz = spin_operators(s)
    for a, b, c in ((sx, sy, sz), (sy, sz, sx), (sz, sx, sy)):
        assert np.max(np.abs(a @ b - b @ a - 1j * c)) < 1e-12
    casimir = sx @ sx + sy @ sy + sz @ sz
    assert np.max(np.abs(casimir - s * (s + 1) * np.eye(ts + 1))) < 1e-12
    for op in (sx, sy, sz):
        assert np.max(np.abs(op - op.conj().T)) < 1e-12


def test_spin_operators_use_no_bands_and_hold_at_large_spin():
    before = _bands.cache_info()["misses"]
    s = 100.0  # 2s = 200
    sx, sy, sz = spin_operators(s)
    assert _bands.cache_info()["misses"] == before
    assert np.array_equal(sz, np.diag(s - np.arange(201)).astype(complex))
    casimir = sx @ sx + sy @ sy + sz @ sz
    assert np.max(np.abs(casimir - s * (s + 1) * np.eye(201))) <= 1e-14 * s * (s + 1)


def test_spin_zero_degenerates():
    sx, sy, sz = spin_operators(0)
    for op in (sx, sy, sz):
        assert op.shape == (1, 1)
        assert op[0, 0] == 0
