import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinphase import (
    BipartiteDensityMatrix,
    CoupledFanoTensorSet,
    DensityMatrix,
    DistributionKind,
    FanoTensorSet,
    ValidationError,
    clebsch_gordan,
    coefficient_table,
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
from spinphase.fano import EIGENVALUE_FLOOR
from test_angular import apply_d_copying, random_tensor_values
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


def full_array_rule(values, spins, what):
    """The tensor-set check as one computation over the whole array (the rule
    before blockwise validation): every label mask, the reversed conjugate
    and the defect are full-size.  Returns the accepted array or raises."""
    a = np.array(values, dtype=complex)
    expected = sum(((ts + 1, 2 * ts + 1) for ts in spins), ())
    if a.shape != expected:
        raise ValidationError(
            f"{what} incomplete, missing or extra labels: shape {a.shape}, expected {expected}"
        )
    flip = tuple(slice(None, None, -1 if ax % 2 else 1) for ax in range(a.ndim))

    def first_label(bad):
        index = np.argwhere(bad[flip])[0]
        names = ("k", "q") if len(spins) == 1 else ("k1", "q1", "k2", "q2")
        ints = [int(i) if ax % 2 == 0 else spins[ax // 2] - int(i) for ax, i in enumerate(index)]
        return "(" + ", ".join(f"{n}={v}" for n, v in zip(names, ints)) + ")"

    axes = np.ogrid[tuple(slice(0, d) for d in expected)]
    qs = [col - ts for col, ts in zip(axes[1::2], spins)]
    nonzero_outside = (sum(abs(q) > k for k, q in zip(axes[0::2], qs)) > 0) & (a != 0)
    if np.any(nonzero_outside):
        raise ValidationError(
            f"{what} has out-of-range labels: {first_label(nonzero_outside)} "
            "is nonzero, expected exactly 0"
        )
    origin = sum(((0, ts) for ts in spins), ())
    norm_defect = abs(a[origin] - 1.0)
    if not norm_defect <= 1e-12:
        raise ValidationError(
            f"{what}: normalization violated: rank-0 coefficient = {a[origin]:.15g}, "
            f"expected 1 (defect {norm_defect:.3e}, tolerance 1e-12)"
        )
    defect = np.abs(np.conj(a) - (1 - 2 * (sum(qs) % 2)) * a[flip])
    bad = ~(defect <= 1e-12)
    if np.any(bad):
        raise ValidationError(
            f"{what}: hermiticity (conjugation symmetry) violated, first at "
            f"{first_label(bad)}: largest |conj(t) - (-1)^q t_(-q)| = "
            f"{np.max(defect[bad]):.3e} exceeds tolerance 1e-12"
        )
    return a


def build_set(values, spins):
    """The tensor set of `values`, with every warning turned into an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if len(spins) == 1:
            return FanoTensorSet(spins[0] / 2, values)
        return CoupledFanoTensorSet(spins[0] / 2, spins[1] / 2, values)


def frozen_copy(values):
    out = np.array(values, dtype=complex)
    out.setflags(write=False)
    return out


def assert_same_verdict(values, spins):
    """The library's check and the full-array rule accept the same arrays
    and raise the same messages, for the values passed writeable (copied)
    and as a read-only array of their own (adopted); the library warns
    nothing on the way."""
    what = "tensor set" if len(spins) == 1 else "coupled tensor set"
    try:
        with np.errstate(invalid="ignore", over="ignore"):  # the oracle's inf - inf
            expected = full_array_rule(values, spins, what)
    except ValidationError as exc:
        for given_values in (values, frozen_copy(values)):
            with pytest.raises(ValidationError) as info:
                build_set(given_values, spins)
            assert str(info.value) == str(exc)
        return
    got = build_set(values, spins).values
    assert np.array_equal(got, expected)
    assert not got.flags.writeable
    adopted = frozen_copy(values)
    assert build_set(adopted, spins).values is adopted


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


def eigenvalue_positivity_rule(matrix, what):
    """The positivity rule by eigenvalues alone, as it stood before the
    Cholesky acceptance: None to accept, else the refusal message."""
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (matrix + matrix.conj().T))))
    if min_eig >= EIGENVALUE_FLOOR:
        return None
    return (
        f"{what}: positivity violated (smallest eigenvalue = {min_eig:.3e}, "
        f"floor {EIGENVALUE_FLOOR:g})"
    )


@pytest.mark.parametrize("offset", [1e-6, -1e-6, 1e-9, -1e-9])
@pytest.mark.parametrize("ts", [1, 4, 24])
def test_positivity_verdict_matches_eigenvalue_rule_near_floor(ts, offset, rng):
    # a random eigenbasis, smallest eigenvalue at floor + offset, trace 1
    n = ts + 1
    u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    lam = rng.uniform(0.5, 1.5, n)
    lam[0] = EIGENVALUE_FLOOR + offset
    lam[1:] *= (1.0 - lam[0]) / lam[1:].sum()
    m = (u * lam) @ u.conj().T
    m = 0.5 * (m + m.conj().T)
    expected = eigenvalue_positivity_rule(m, "density matrix")
    assert (expected is None) == (offset > 0)
    if expected is None:
        DensityMatrix(ts / 2, m)
    else:
        with pytest.raises(ValidationError) as info:
            DensityMatrix(ts / 2, m)
        assert str(info.value) == expected


def test_bipartite_refusal_message_matches_eigenvalue_rule():
    n = 9
    m = np.diag(np.r_[1.0 + 1e-3, -1e-3, np.zeros(n - 2)]).astype(complex)
    with pytest.raises(ValidationError) as info:
        BipartiteDensityMatrix(1, 1, m)
    assert str(info.value) == eigenvalue_positivity_rule(m, "bipartite density matrix")


def test_density_rejects_dimension_mismatch():
    with pytest.raises(ValidationError, match="dimension"):
        DensityMatrix(0.5, np.eye(3) / 3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(1, 1), (0, 2)], ids=["diagonal", "off-diagonal"])
@pytest.mark.parametrize("bipartite", [False, True], ids=["single", "bipartite"])
def test_density_rejects_non_finite_without_warnings(bipartite, where, value):
    # placed Hermitian, so only a check that NaN fails can refuse it
    m = np.array((singlet_density(0.5) if bipartite else DensityMatrix(1, np.eye(3) / 3)).matrix)
    m[where] = value
    m[where[::-1]] = np.conj(value)
    with pytest.raises(
        ValidationError, match=r"hermiticity violated \(max \|M - M\^dag\| = nan, tolerance 1e-12\)"
    ):
        BipartiteDensityMatrix(0.5, 0.5, m) if bipartite else DensityMatrix(1, m)


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


def valid_set(spins, seed=7):
    rng = np.random.default_rng(seed)
    if len(spins) == 1:
        return np.array(decompose(random_density(rng, spins[0])).values)
    return np.array(decompose_bipartite(random_bipartite_density(rng, *spins)).values)


def column_index(spins, label):
    """Array index of a label (k, q) or (k1, q1, k2, q2), in range or not."""
    return tuple(v if ax % 2 == 0 else spins[ax // 2] + v for ax, v in enumerate(label))


# NaN placed at q1 >= 0 and q1 < 0, in the first k1 block and the last, and
# at an out-of-range label; the coupled cases take equal and unequal spins
NAN_LABELS = [
    ((3,), (0, 0)),  # the single set's first block holds only t^0_0
    ((3,), (1, 1)),
    ((3,), (3, -2)),
    ((3,), (3, 3)),
    ((3,), (0, 2)),  # out of range
    ((2, 2), (0, 0, 1, 1)),
    ((2, 2), (0, 0, 2, -2)),
    ((2, 2), (2, 1, 0, 0)),
    ((2, 2), (2, -2, 2, 1)),
    ((2, 2), (0, 1, 0, 0)),  # out of range in q1
    ((2, 2), (2, 0, 1, -2)),  # out of range in q2
    ((1, 3), (0, 0, 3, -1)),
    ((1, 3), (1, 1, 2, 2)),
    ((1, 3), (1, -1, 0, 0)),
    ((1, 3), (0, -1, 3, 3)),  # out of range in q1
    ((3, 1), (0, 0, 1, 1)),
    ((3, 1), (3, -3, 1, 0)),
    ((3, 1), (3, 2, 0, 0)),
    ((3, 1), (2, 1, 0, -1)),  # out of range in q2
]


@pytest.mark.parametrize("spins, label", NAN_LABELS)
def test_tensor_set_rejects_nan(spins, label):
    vals = valid_set(spins)
    vals[column_index(spins, label)] = np.nan
    with pytest.raises(ValidationError):
        build_set(vals, spins)
    assert_same_verdict(vals, spins)


@pytest.mark.parametrize("spins", [(3,), (2, 2), (1, 3), (3, 1)])
def test_tensor_set_nan_defect_outlives_later_finite_defects(spins):
    # a NaN in the first block and a finite defect in the last: the largest
    # defect reported stays nan, as a running maximum that drops NaN would not
    vals = valid_set(spins)
    first = (1, 1) if len(spins) == 1 else (0, 0, 1, 1)
    last = (spins[0], -1) if len(spins) == 1 else (spins[0], -1, spins[1], 0)
    vals[column_index(spins, first)] = np.nan
    vals[column_index(spins, last)] += 1e-6
    with pytest.raises(ValidationError, match=r"first at .* = nan exceeds"):
        build_set(vals, spins)
    assert_same_verdict(vals, spins)


PERTURBATIONS = [0.0, -0.0, 1e-300, 4e-13, 2e-12, 1e-6j, 0.25 - 0.5j, np.nan, np.inf]


@given(
    ts1=st.integers(0, 6),
    ts2=st.integers(0, 6),
    seed=st.integers(0, 2**31 - 1),
    where=st.sampled_from(["in_range", "out_of_range", "mirror"]),
    delta=st.sampled_from(PERTURBATIONS),
    pick=st.floats(0, 1, exclude_max=True),
)
@settings(max_examples=300, deadline=None)
def test_coupled_validation_matches_full_array_rule(ts1, ts2, seed, where, delta, pick):
    spins = (ts1, ts2)
    vals = valid_set(spins, seed)
    assert_same_verdict(vals, spins)
    k1, c1, k2, c2 = np.indices(vals.shape)
    outside = (abs(c1 - ts1) > k1) | (abs(c2 - ts2) > k2)
    candidates = np.argwhere(outside if where == "out_of_range" else ~outside)
    if len(candidates) == 0:
        return
    index = tuple(candidates[int(pick * len(candidates))])
    vals[index] += delta
    if where == "mirror":
        # the conjugation-symmetric partner at (-q1, -q2) moves with it
        mirror = (index[0], 2 * ts1 - index[1], index[2], 2 * ts2 - index[3])
        sign = -1 if (index[1] + index[3] - ts1 - ts2) % 2 else 1
        vals[mirror] += sign * np.conj(delta)
    assert_same_verdict(vals, spins)


@given(
    ts=st.integers(0, 8),
    seed=st.integers(0, 2**31 - 1),
    delta=st.sampled_from(PERTURBATIONS),
    pick=st.floats(0, 1, exclude_max=True),
)
@settings(max_examples=100, deadline=None)
def test_single_validation_matches_full_array_rule(ts, seed, delta, pick):
    vals = valid_set((ts,), seed)
    index = np.unravel_index(int(pick * vals.size), vals.shape)
    vals[index] += delta
    assert_same_verdict(vals, (ts,))


NON_FINITE = [np.inf, -np.inf, np.nan, complex(0, np.inf), complex(np.inf, -np.inf)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("spins, label", NAN_LABELS[:2] + NAN_LABELS[4:7] + NAN_LABELS[9:11])
def test_tensor_set_rejects_non_finite_without_warnings(spins, label, value):
    vals = valid_set(spins)
    vals[column_index(spins, label)] = value
    with pytest.raises(ValidationError):
        build_set(vals, spins)
    with pytest.raises(ValidationError):
        build_set(frozen_copy(vals), spins)
    assert_same_verdict(vals, spins)


# ------------------------------------------------------ ownership of values


# every container, with a fresh writeable, valid, real-valued array of its
# values and the route from such an array to the container's own array; all
# four share one rule: adopt a read-only owned complex128 array, copy the rest
CONTAINERS = [
    (lambda: valid_set((3,)).real.astype(complex), lambda v: FanoTensorSet(1.5, v).values),
    (lambda: np.array(singlet_tensors(1).values), lambda v: CoupledFanoTensorSet(1, 1, v).values),
    (lambda: np.diag([0.125, 0.125, 0.25, 0.5]) + 0j, lambda v: DensityMatrix(1.5, v).matrix),
    (
        lambda: np.array(singlet_density(0.5).matrix),
        lambda v: BipartiteDensityMatrix(0.5, 0.5, v).matrix,
    ),
]


def test_writeable_values_are_copied():
    for make_values, build in CONTAINERS:
        vals = make_values()
        held = build(vals)
        before = held.copy()
        vals[(1,) * vals.ndim] = 99.0
        assert held is not vals
        assert np.array_equal(held, before)
        assert not held.flags.writeable


def test_list_values_are_copied():
    for make_values, build in CONTAINERS:
        vals = make_values()
        held = build(vals.tolist())
        assert np.array_equal(held, vals)
        assert not held.flags.writeable


@pytest.mark.parametrize(
    "make",
    [
        lambda v: v.real.copy(),  # float64: converted
        lambda v: v.astype(np.complex64).astype(np.dtype(">c16")),  # not native complex128
        lambda v: np.concatenate([v, v])[: len(v)],  # a view: does not own its data
    ],
)
def test_read_only_values_not_adoptable_are_copied(make):
    for make_values, build in CONTAINERS:
        vals = make(make_values())
        vals.setflags(write=False)
        held = build(vals)
        assert held is not vals
        assert held.dtype == complex and held.flags.owndata
        assert np.array_equal(held, vals)


def test_read_only_owned_complex_values_are_adopted():
    for make_values, build in CONTAINERS:
        vals = frozen_copy(make_values())
        assert build(vals) is vals


@pytest.mark.parametrize("spins", [(2,), (2, 3)])
def test_adopted_symmetry_defect_reports_as_copied(spins):
    vals = valid_set(spins)
    label = (2, 1) if len(spins) == 1 else (2, 1, 1, -1)
    vals[column_index(spins, label)] += 3e-9
    with pytest.raises(ValidationError, match="hermiticity") as copied:
        build_set(vals, spins)
    with pytest.raises(ValidationError) as adopted:
        build_set(frozen_copy(vals), spins)
    assert str(adopted.value) == str(copied.value)


def test_builders_hand_over_read_only_values(rng):
    t = decompose(random_density(rng, 3))
    sets = [
        t,
        rotate_tensors(t, 0.3, 1.2, -0.4),
        decompose_bipartite(random_bipartite_density(rng, 2, 1)),
        singlet_tensors(1.5),
    ]
    for tensor_set in sets:
        values = tensor_set.values
        assert not values.flags.writeable
        assert values.flags.owndata and values.flags.c_contiguous
        with pytest.raises(ValueError):
            values[0, 0] = 0.0


def test_builders_values_are_adopted_uncopied(rng, monkeypatch):
    # each builder's array passes _owned itself: one allocation of the final
    # array and no copy at ingestion
    from spinphase import fano

    rho, rho12 = random_density(rng, 3), random_bipartite_density(rng, 2, 1)
    t, t12 = decompose(rho), decompose_bipartite(rho12)
    builders = {
        "reconstruct": lambda: reconstruct(t),
        "reconstruct_bipartite": lambda: reconstruct_bipartite(t12),
        "reduce(1)": lambda: reduce(rho12, 1),
        "reduce(2)": lambda: reduce(rho12, 2),
        "singlet_density": lambda: singlet_density(1.5),
        "decompose": lambda: decompose(rho),
        "decompose_bipartite": lambda: decompose_bipartite(rho12),
        "rotate_tensors": lambda: rotate_tensors(t, 0.3, 1.2, -0.4),
        "singlet_tensors": lambda: singlet_tensors(1.5),
    }
    owned = fano._owned
    adopted = []
    monkeypatch.setattr(
        fano, "_owned", lambda values, name: adopted.append(values) or owned(values, name)
    )
    for name, build in builders.items():
        adopted.clear()
        held = build()
        assert len(adopted) == 1, name
        assert (held.values if hasattr(held, "values") else held.matrix) is adopted[0], name


def test_decompose_bipartite_memory_peak(rng):
    # factor 1 is traced first, so the second trace returns the final
    # [k1, q1, k2, q2] array: no transposed intermediate and no copy
    rho12 = random_bipartite_density(rng, 16, 16)
    decompose_bipartite(rho12)  # builds the spin-8 bands outside the trace
    tracemalloc.start()
    try:
        t12 = decompose_bipartite(rho12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * t12.values.nbytes


def test_reconstruct_bipartite_memory_peak(rng):
    # the output, the factor-2 partial (about 2x) and the factor-1 result;
    # the partial is released before the container validates the matrix
    t12 = decompose_bipartite(random_bipartite_density(rng, 16, 16))
    reconstruct_bipartite(t12)  # builds the spin-8 bands outside the trace
    tracemalloc.start()
    try:
        rho12 = reconstruct_bipartite(t12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.2 * rho12.matrix.nbytes


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


@pytest.mark.parametrize("ts", [1, 2, 3, 4, 7, 8, 9, 16, 17, 24, 25, 32])
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


def rotate_by_reversed_copies(t, alpha, beta, gamma):
    """rotate_tensors as it ran before its columns were reversed once and its
    ranks ran in blocks, transcribed as it stood: each rank's reversed
    columns through the copying per-rank dense-eigh route and back."""
    ts = t.s.twice_value
    q = np.arange(-ts, ts + 1)
    out = t.values * np.exp(1j * q * gamma)
    for k in range(1, ts + 1):
        cols = slice(ts - k, ts + k + 1)
        out[k, cols] = apply_d_copying(2 * k, beta, out[k, cols][::-1])[::-1]
    return np.exp(1j * q * alpha) * out


@pytest.mark.parametrize("ts", [0, 1, 2, 3, 5, 24])
def test_rotate_equals_reversed_copy_route(ts, rng):
    # the rank blocks against the per-rank dense-eigh route: at most 1.0e-14
    # of max |t| over 40 random sets per spin up to 2s = 25; a wrong rank,
    # slot, column offset or padding is off by O(1)
    for _ in range(4):
        t = FanoTensorSet(ts / 2, random_tensor_values(rng, ts))
        alpha, beta, gamma = rng.uniform(-2 * math.pi, 2 * math.pi, 3)
        got = rotate_tensors(t, alpha, beta, gamma).values
        expected = rotate_by_reversed_copies(t, alpha, beta, gamma)
        assert np.max(np.abs(got - expected)) <= 3e-14 * np.max(np.abs(t.values))


@pytest.mark.parametrize("ts", [1, 4, 7, 8, 9, 13, 17, 24, 25, 32])
def test_rotate_matches_d_matrix_route_over_beta(ts, rng):
    t = decompose(random_density(rng, ts))
    scale = np.max(np.abs(t.values))
    for beta in np.linspace(0.0, 2.0 * math.pi, 25):
        alpha, gamma = rng.uniform(0, 2 * math.pi, 2)
        expected = conjugate_d_route(t, alpha, beta, gamma)
        got = rotate_tensors(t, alpha, beta, gamma).values
        assert np.max(np.abs(got - expected)) <= 1e-14 * scale


@pytest.mark.parametrize("angles", [(0.3, 1.1, 2.0), (2.5, 2.9, -0.7)])
@pytest.mark.parametrize(
    "ts", [24] + [pytest.param(ts, marks=pytest.mark.scale) for ts in (64, 128, 200)]
)
def test_rotate_closed_form_set_matches_harmonics(ts, angles):
    # |s, s> has t^k_0 = sqrt(2k+1) c^Q_k and nothing else; rotated by
    # (alpha, beta, gamma) it is the coherent set at (beta, alpha),
    # t^k_q = sqrt(4 pi) c^Q_k Y_kq(beta, alpha): an oracle at any spin that
    # needs neither the tensor bands nor sympy
    from scipy.special import sph_harm_y

    c = coefficient_table(DistributionKind.Q, ts / 2)
    k = np.arange(ts + 1)[:, None]
    q = np.arange(-ts, ts + 1)
    values = np.zeros((ts + 1, 2 * ts + 1), dtype=complex)
    values[:, ts] = np.sqrt(2 * k[:, 0] + 1) * c
    alpha, beta, gamma = angles
    got = rotate_tensors(FanoTensorSet(ts / 2, values), alpha, beta, gamma).values
    valid = np.abs(q) <= k
    harmonics = np.where(valid, sph_harm_y(k, np.where(valid, q, 0), beta, alpha), 0.0)
    expected = math.sqrt(4 * math.pi) * c[:, None] * harmonics
    assert np.max(np.abs(got - expected)) <= 2e-14


# ---------------------------------------------------------------- singlet


def singlet_density_loop(ts):
    """The singlet matrix written one entry at a time."""
    n = ts + 1
    out = np.zeros((n * n, n * n), dtype=complex)
    for ip in range(n):
        jp = ts - ip  # m2' = -m1'
        for i in range(n):
            j = ts - i  # m2 = -m1
            sign = -1.0 if (ip - i) % 2 else 1.0
            out[ip * n + jp, i * n + j] = sign / n
    return out


@pytest.mark.parametrize("ts", range(13))
def test_singlet_density_matches_loop(ts):
    assert np.array_equal(singlet_density(ts / 2).matrix, singlet_density_loop(ts))


def test_singlet_tensors_memory_peak():
    # validation reads one k1 block at a time and adopts the built array
    # without a copy: the peak is that array and one block's temporaries
    tracemalloc.start()
    try:
        t12 = singlet_tensors(12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * t12.values.nbytes


def test_refused_coupled_set_memory_peak():
    # a symmetry defect only in the last k1 block is found block by block:
    # the peak is the validated copy and one block's temporaries, not the
    # full-size label masks and defect of a second pass
    vals = np.array(singlet_tensors(12).values)
    vals[24, 24 + 1, 0, 24] = 1e-6  # (k1=24, q1=1, k2=0, q2=0)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=r"first at \(k1=24, q1=1, k2=0, q2=0\)"):
            CoupledFanoTensorSet(12, 12, vals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * vals.nbytes


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


@pytest.mark.parametrize("ts", [1, 2, 24, 28])
def test_singlet_tensors_match_decomposition(ts):
    closed = singlet_tensors(ts / 2)
    brute = decompose_bipartite(singlet_density(ts / 2))
    np.testing.assert_allclose(brute.values, closed.values, rtol=0, atol=1e-12)


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
