import math
import re
import tracemalloc

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
from spinphase import angular, tensor_ops
from spinphase.angular import _RankCache
from spinphase.tensor_ops import _bands, _build_bands
from test_angular import ladder_spin_matrices, racah_cg_scalar

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


def band_index(n, offset):
    """Row and column index arrays of the diagonal at the given offset."""
    j = np.arange(n - abs(offset))
    return j + max(-offset, 0), j + max(offset, 0)


def band_of(blocks, ts, q):
    """Band q (rows k = |q|..2s, column j the offset-q diagonal's entry j)
    read from its slot of the packed blocks: block |q| // 8, half 0 for
    q <= 0 and 1 for q > 0, slot |q| % 8, rows from k = |q|."""
    b, i = divmod(abs(q), 8)
    return blocks[b][int(q > 0), i, abs(q) - 8 * b :, : ts + 1 - abs(q)]


def packed(bands, ts):
    """Per-q bands (indexed by 2s + q) written into the packed layout: block
    b = |q| // 8 is [2, min(8, L), L, L], L = 2s + 1 - 8b, zero elsewhere."""
    n = ts + 1
    blocks = [np.zeros((2, min(8, n - b), n - b, n - b)) for b in range(0, n, 8)]
    for q, band in enumerate(bands, start=-ts):
        b, i = divmod(abs(q), 8)
        blocks[b][int(q > 0), i, abs(q) - 8 * b :, : n - abs(q)] = band
    return blocks


def trace_by_index(a):
    """operator_components as it read bands before the strided views,
    transcribed as it stood: np.diagonal and one complex product per q."""
    a = np.asarray(a, dtype=complex)
    ts = a.shape[-1] - 1
    out = np.zeros(a.shape[:-2] + (ts + 1, 2 * ts + 1), dtype=complex)
    for q in range(-ts, ts + 1):
        out[..., abs(q):, ts + q] = np.diagonal(a, -q, -2, -1) @ band_of(_bands(ts), ts, q).T
    return out


def resolution_by_index(ts, comps):
    """operator_from_components as it wrote bands before the strided views,
    transcribed as it stood: one complex product and fancy-index write per q."""
    n = ts + 1
    comps = np.asarray(comps, dtype=complex)
    out = np.zeros(comps.shape[:-2] + (n, n), dtype=complex)
    for q in range(-ts, ts + 1):
        rows, cols = band_index(n, -q)
        out[..., rows, cols] = comps[..., abs(q):, ts + q] @ band_of(_bands(ts), ts, q)
    out /= n
    return out


# ------------------------------------------------------------------ bands


@pytest.mark.parametrize("ts", range(13))
def test_bands_equal_clebsch_gordan_build(ts):
    got = _build_bands(ts)
    expected = packed(bands_from_clebsch_gordan(ts), ts)
    assert len(got) == len(expected) == -(-(ts + 1) // 8)
    for block, ref in zip(got, expected):
        assert block.shape == ref.shape and np.array_equal(block, ref)


def bands_from_scalar_racah(ts):
    """The band build the array kernel replaced, label by label, as it stood."""
    n = ts + 1
    out = []
    for q in range(-ts, ts + 1):
        size = n - abs(q)
        band = np.zeros((size, size))
        for k in range(abs(q), n):
            scale = math.sqrt(2.0 * k + 1.0)
            for j in range(size):
                tm = ts - 2 * (j + max(q, 0))
                band[k - abs(q), j] = scale * racah_cg_scalar(ts, 2 * k, ts, tm, 2 * q, tm + 2 * q)
        out.append(band)
    return out


def assert_bands_bytes_equal(ts):
    # every band value, and every zero of the padding, as the scalar build's
    got, expected = _build_bands(ts), packed(bands_from_scalar_racah(ts), ts)
    assert len(got) == len(expected)
    for block, ref in zip(got, expected):
        assert block.shape == ref.shape and block.tobytes() == ref.tobytes()


@pytest.mark.parametrize("ts", range(25))
def test_bands_bytes_equal_scalar_racah_build(ts):
    assert_bands_bytes_equal(ts)


@pytest.mark.scale
@pytest.mark.parametrize("ts", [44, 64])
def test_bands_bytes_equal_scalar_racah_build_at_scale(ts):
    assert_bands_bytes_equal(ts)


def band_terms(ts, q):
    """Terms of the Racah sums of band q: t runs over max(0, -d, -e)..min(a, b, c)."""
    k, j = np.meshgrid(np.arange(abs(q), ts + 1), np.arange(ts + 1 - abs(q)), indexing="ij")
    tm = ts - 2 * (j + max(q, 0))
    a, b, c, d, e = k, (ts - tm) // 2, k + q, (ts - 2 * k + tm) // 2, -q
    return int(np.sum(np.minimum(np.minimum(a, b), c) - np.maximum(0, -np.minimum(d, e)) + 1))


def test_blocked_band_build_bytes_equal(monkeypatch):
    # a budget of 1000 terms splits the labels of the larger bands at 2s = 32
    # into blocks, up to seven at q = 0 (6545 terms)
    assert band_terms(32, 0) == 6545 and sum(band_terms(32, q) > 1000 for q in range(33)) > 10
    monkeypatch.setattr(angular, "_RACAH_BLOCK_TERMS", 1000)
    assert_bands_bytes_equal(32)


def test_band_build_temporaries_follow_the_block_budget(monkeypatch):
    # the largest 2s = 24 band holds 2925 terms, one block at the default
    # budget; blocks of 300 terms hold a fraction of its temporaries.  The
    # packed band blocks, allocated first, are the result and not counted
    def peak_beyond_result():
        tracemalloc.start()
        try:
            bands = _build_bands(24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - sum(b.nbytes for b in bands)

    whole = peak_beyond_result()
    monkeypatch.setattr(angular, "_RACAH_BLOCK_TERMS", 300)
    assert peak_beyond_result() < 0.5 * whole


def band_bytes(ts):
    """16 sum_b h L^2 bytes, L = n - 8b and h = min(8, L): one spin's packed
    band blocks, zero padding and block 0's empty q = +0 slot included."""
    n = ts + 1
    return sum(16 * min(8, n - b) * (n - b) ** 2 for b in range(0, n, 8))


def test_bands_cache_is_bounded_by_bytes():
    assert isinstance(_bands, _RankCache)
    assert _bands.max_bytes == 100_000_000
    # 45.9 MB at 2s = 200 (the bands alone are 43.3 MB): both factors of a
    # 2s = 200 bipartite state fit, three spins that size do not
    assert band_bytes(200) == 45_929_616
    assert 2 * band_bytes(200) <= _bands.max_bytes < 3 * band_bytes(200)
    for ts in [*range(6), 8, 9, 17]:
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


def test_object_none_entries_convert_to_nan_and_are_refused_by_index():
    # numpy reads None as nan + nan j under a forced complex dtype, so an
    # object array holding None is refused as a NaN entry, not as unconvertible
    a = np.eye(3, dtype=object)
    a[1, 2] = None
    with pytest.raises(DomainError, match=r"^a\[1, 2\]=\(nan\+nanj\): expected a finite entry$"):
        operator_components(a)


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


def assert_same_bytes(got, expected):
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


# The blocked real products may sum in another order than one complex product
# per band, so trace and resolution are held to the per-band oracles within
# roundoff: 1e-14 of the largest |result|.  A wrong band, sign, slot or
# diagonal moves a result by O(1) of that.
ROUNDOFF = 1e-14


def assert_within_roundoff(got, expected):
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert np.max(np.abs(got - expected), initial=0.0) <= ROUNDOFF * np.max(np.abs(expected))


def assert_trace_and_resolution_match_per_band_route(ts, batch, rng):
    n = ts + 1
    a = rng.normal(size=batch + (n, n)) + 1j * rng.normal(size=batch + (n, n))
    comps = operator_components(a)
    assert_within_roundoff(comps, trace_by_index(a))
    assert_within_roundoff(operator_from_components(ts / 2, comps), resolution_by_index(ts, comps))


@pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
@pytest.mark.parametrize("ts", [*range(13), 24])
def test_trace_and_resolution_equal_index_route_bytes(ts, batch, rng):
    # the name says bytes; the bound is roundoff (ROUNDOFF above)
    assert_trace_and_resolution_match_per_band_route(ts, batch, rng)


@pytest.mark.scale
@pytest.mark.parametrize("ts", [64, 200])
def test_trace_and_resolution_match_per_band_route_at_scale(ts, rng):
    assert_trace_and_resolution_match_per_band_route(ts, (2,), rng)


@pytest.mark.parametrize("ts1, ts2", [(1, 2), (3, 3), (4, 1), (6, 6), (9, 17)])
def test_trace_and_resolution_equal_index_route_on_bipartite_views(ts1, ts2, rng):
    # the transposed views decompose_bipartite and reconstruct_bipartite pass,
    # held to roundoff as above; (9, 17) spans two and three band blocks
    n1, n2 = ts1 + 1, ts2 + 1
    rho = rng.normal(size=(n1 * n2, n1 * n2)) + 1j * rng.normal(size=(n1 * n2, n1 * n2))
    mat4 = rho.reshape(n1, n2, n1, n2).transpose(1, 3, 0, 2)
    partial = operator_components(mat4).transpose(2, 3, 0, 1)
    assert not mat4.flags.c_contiguous and not partial.flags.c_contiguous
    assert_within_roundoff(partial, trace_by_index(mat4).transpose(2, 3, 0, 1))
    t12 = operator_components(partial)
    assert_within_roundoff(t12, trace_by_index(partial))
    back = operator_from_components(ts2 / 2, t12).transpose(2, 3, 0, 1)
    assert_within_roundoff(back, resolution_by_index(ts2, t12).transpose(2, 3, 0, 1))
    assert_within_roundoff(operator_from_components(ts1 / 2, back), resolution_by_index(ts1, back))


@pytest.mark.parametrize("ts", [0, 1, 7, 8, 9, 16, 24])
def test_labels_past_their_rank_are_positive_zero(ts, rng):
    # |q| > k: never written, or the zero rows of a band slot, +0.0 either way
    n = ts + 1
    a = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
    comps = operator_components(a)
    past = np.abs(np.arange(-ts, ts + 1)) > np.arange(n)[:, None]
    zeros = comps[:, past]
    assert np.all(zeros == 0.0)
    assert not np.signbit(zeros.real).any() and not np.signbit(zeros.imag).any()


@pytest.mark.parametrize("shape", [(3, 3), (2, 4, 9, 9), (0, 5, 5), (2, 0, 3, 3)])
def test_trace_and_resolution_return_owned_c_contiguous_arrays(shape, rng):
    n = shape[-1]
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    comps = operator_components(a[..., ::-1, :].swapaxes(-1, -2))  # from a strided view
    back = operator_from_components((n - 1) / 2, comps)
    for out, end in ((comps, (n, 2 * n - 1)), (back, (n, n))):
        assert out.shape == shape[:-2] + end and out.dtype == complex
        assert out.flags.c_contiguous and out.flags.owndata


def test_chunked_batches_match_one_chunk(monkeypatch, rng):
    # a budget under one batch column runs a chunk per first-axis entry
    rho = rng.normal(size=(90, 90)) + 1j * rng.normal(size=(90, 90))
    mat4 = rho.reshape(9, 10, 9, 10).transpose(1, 3, 0, 2)
    whole = operator_components(mat4)
    back = operator_from_components(4, whole)
    monkeypatch.setattr(tensor_ops, "_CHUNK_BYTES", 1)
    assert_within_roundoff(operator_components(mat4), whole)
    assert_within_roundoff(operator_from_components(4, whole), back)


@pytest.mark.parametrize("ts", range(9))
def test_tau_matrix_equals_index_route_bytes(ts):
    n = ts + 1
    for k, q in all_labels(ts):
        expected = np.zeros((n, n), dtype=complex)
        expected[band_index(n, q)] = band_of(_bands(ts), ts, q)[k - abs(q)]
        assert_same_bytes(tau_matrix(ts / 2, k, q), expected)


def test_components_rejects_non_square():
    with pytest.raises(DomainError):
        operator_components(np.zeros((2, 3)))


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)])
def test_components_refuse_empty_operator_by_shape(shape):
    # n = 0 would give 2s = -1: refused by name, not by numpy's allocation
    message = rf"^operator must be at least 1 x 1 \(spin 0\), got shape {re.escape(str(shape))}$"
    with pytest.raises(DomainError, match=message):
        operator_components(np.zeros(shape))


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
