"""Multipole (statistical tensor) decomposition of spin density matrices.

A spin-s state resolves as rho = (1/(2s+1)) sum_kq tau^k_q^dag t^k_q with
t^k_q = Tr(rho tau^k_q); a bipartite state carries the coupled coefficients
t^{k1 k2}_{q1 q2} = Tr(rho12 tau^{k1}_{q1} x tau^{k2}_{q2}).  The product
basis orders the row index (m1, m2) lexicographically with both projections
descending (m1 outer), matching the single-system convention.

A tensor set holds one read-only dense array: [k, 2s + q] for one spin and
[k1, 2s1 + q1, k2, 2s2 + q2] for two, zero where |q| > k.  decompose and
reconstruct, single and bipartite, all go through the one trace/resolution
pair of tensor_ops (one gather, one real product per block of eight |q| and
one scatter, through index tables built once per spin), which the bipartite
forms apply one factor at a time on transposed views, the other factor's
indices as the batch: decompose_bipartite traces factor 1 first, so the
second trace lands in the [k1, q1, k2, q2] layout, and reconstruct_bipartite
resolves factor 1 first, on a view whose matrix-first order is the set
itself, then factor 2 on the partial the same way, so both read whole runs,
and one transposed write gives the [(m1, m2), (m1', m2')] matrix.

All four containers are immutable and validate their invariants on
ingestion, where NaN and inf are refused.  Each adopts a read-only complex128
ndarray that owns its data and copies anything else (_owned) by the argument
rule, which refuses a `matrix` or `values` that is not complex by name;
every builder here hands over such an array (_frozen).  An error names the
violated invariant, the first offending label, the measured defect and the
tolerance.  The label tables the set checks read, each factor's |q| > k mask
and signs (-1)^q, are built once per spin in a byte-bounded cache (_labels),
which also gives the singlet's coefficients.  A coupled set is checked in
blocks of k1 rows within a fixed 64 KiB budget (_BLOCK_BYTES): one block up
to 2s1 = 2s2 = 4, one rank slab a block, read about once, from 2s1 = 2s2 =
8, with the same decisions and messages as a row-by-row check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .angular import HalfInteger, _apply_d, _phases, _rank_blocks, _scalar_angles, require_int
from .angular import _RankCache, _require_array, require_real, require_spin
from .errors import ValidationError
from .tensor_ops import operator_components, operator_from_components

__all__ = [
    "DensityMatrix",
    "BipartiteDensityMatrix",
    "FanoTensorSet",
    "CoupledFanoTensorSet",
    "decompose",
    "reconstruct",
    "decompose_bipartite",
    "reconstruct_bipartite",
    "reduce",
    "is_product",
    "rotate_tensors",
    "singlet_density",
    "singlet_tensors",
]

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
# file-ingested matrices carry rounding; a hard zero floor would reject them
EIGENVALUE_FLOOR = -1e-10
TENSOR_TOL = 1e-12


def _owned(values, name: str) -> np.ndarray:
    """`values` itself if a read-only complex128 ndarray owning its data,
    else a read-only complex copy by the argument rule, which refuses what
    is not complex by `name`."""
    adopt = type(values) is np.ndarray and values.dtype == complex and values.flags.owndata
    adopt = adopt and not values.flags.writeable
    a = values if adopt else _require_array(values, name, "entry", complex, copy=True)
    a.setflags(write=False)
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    """Freeze an array just built, so that _owned adopts it uncopied."""
    a.setflags(write=False)
    return a


@np.errstate(invalid="ignore", over="ignore")  # inf - inf: refused, not warned
def _validate_state_matrix(matrix, dim: int, what: str) -> np.ndarray:
    """Check a density matrix and return it read-only (see _owned).  Every
    test reads `not defect <= tol`, which NaN fails."""
    m = _owned(matrix, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{what}: matrix must be square, got shape {m.shape}")
    if m.shape[0] != dim:
        raise ValidationError(
            f"{what}: dimension mismatch, expected {dim} rows for the declared "
            f"spin, got {m.shape[0]}"
        )
    h = m.conj().T  # M^dag, made the Hermitian part in place below
    herm_defect = float(np.max(np.abs(m - h)))
    if not herm_defect <= HERMITICITY_TOL:
        raise ValidationError(
            f"{what}: hermiticity violated (max |M - M^dag| = {herm_defect:.3e}, "
            f"tolerance {HERMITICITY_TOL:g})"
        )
    trace = complex(np.trace(m))
    if not abs(trace - 1.0) <= TRACE_TOL:
        raise ValidationError(
            f"{what}: unit trace violated (measured trace = {trace.real:.15g}"
            f"{trace.imag:+.3e}j, |trace - 1| = {abs(trace - 1.0):.3e}, tolerance {TRACE_TOL:g})"
        )
    h += m
    h *= 0.5
    diagonal = np.einsum("ii->i", h)  # a writable view of h's diagonal
    diagonal -= EIGENVALUE_FLOOR
    try:  # h - floor I positive definite: accepted without the eigenvalues
        np.linalg.cholesky(h)
        return m
    except np.linalg.LinAlgError:
        diagonal += EIGENVALUE_FLOOR
        min_eig = float(np.min(np.linalg.eigvalsh(h)))
    if not min_eig >= EIGENVALUE_FLOOR:
        raise ValidationError(
            f"{what}: positivity violated (smallest eigenvalue = {min_eig:.3e}, "
            f"floor {EIGENVALUE_FLOOR:g})"
        )
    return m


@dataclass(frozen=True)
class DensityMatrix:
    """Spin-s density matrix in the descending-m basis."""

    s: HalfInteger
    matrix: np.ndarray

    def __post_init__(self):
        ts = require_spin(self.s)
        object.__setattr__(self, "s", HalfInteger(ts))
        object.__setattr__(
            self, "matrix", _validate_state_matrix(self.matrix, ts + 1, "density matrix")
        )

    @property
    def dim(self) -> int:
        return self.s.twice_value + 1


@dataclass(frozen=True)
class BipartiteDensityMatrix:
    """Two-spin density matrix; row index (m1, m2) lexicographic, m1 outer."""

    s1: HalfInteger
    s2: HalfInteger
    matrix: np.ndarray

    def __post_init__(self):
        ts1, ts2 = require_spin(self.s1, "s1"), require_spin(self.s2, "s2")
        dim = (ts1 + 1) * (ts2 + 1)
        object.__setattr__(self, "s1", HalfInteger(ts1))
        object.__setattr__(self, "s2", HalfInteger(ts2))
        object.__setattr__(
            self,
            "matrix",
            _validate_state_matrix(self.matrix, dim, "bipartite density matrix"),
        )

    @property
    def dim1(self) -> int:
        return self.s1.twice_value + 1

    @property
    def dim2(self) -> int:
        return self.s2.twice_value + 1


def _build_labels(ts: int) -> tuple[np.ndarray, np.ndarray]:
    """One factor's label tables at twice-spin ts: the mask |q| > k of a
    [k, 2s + q] array and the signs (-1)^q for q = -2s..2s, whose tail
    [2s:] is (-1)^k for k = 0..2s."""
    q = np.arange(-ts, ts + 1)
    return np.abs(q) > np.arange(ts + 1)[:, None], np.where(q % 2, -1.0, 1.0)


# keyed by twice-spin; an entry is (n + 8)(2n - 1) bytes for n = 2s + 1,
# 2.0 MB at 2s = 1000.  The package's one table of the signs (-1)^q
_labels = _RankCache(_build_labels, max_bytes=10_000_000)

# _validate_set's budget for a block of a coupled set's k1 rows, in bytes
_BLOCK_BYTES = 65_536
# max(|Re z|, |Im z|) <= _SCREEN implies |z| <= TENSOR_TOL
_SCREEN = TENSOR_TOL / 2**0.5


def _first_label(bad: np.ndarray, k1: int, spins: tuple[int, ...]) -> str:
    """Label of the first True entry, in label order (k ascending, q
    descending), of a [k1, 2s1 + q1, k2, 2s2 + q2] block that starts at k1."""
    ts1, ts2 = (*spins, 0)[:2]
    dk, i1, k2, i2 = np.argwhere(bad[:, ::-1, :, ::-1])[0]
    names = ("k", "q") if len(spins) == 1 else ("k1", "q1", "k2", "q2")
    ints = (k1 + dk, ts1 - i1, k2, ts2 - i2)
    return "(" + ", ".join(f"{n}={int(v)}" for n, v in zip(names, ints)) + ")"


@np.errstate(invalid="ignore", over="ignore")  # inf - inf and 0 * inf: refused, not warned
def _validate_set(values, spins: tuple[int, ...], what: str) -> np.ndarray:
    """Check a tensor-set array [k1, 2s1 + q1(, k2, 2s2 + q2)] and return it
    read-only (see _owned), in one pass over blocks of k1 rows: a single set
    is one block, viewed as [k, 2s + q, 1, 1]; a coupled set takes as many
    rows a block as fit _BLOCK_BYTES, at least one (all of a set up to
    2s1 = 2s2 = 4).  Out-of-range entries are refused first, at their first
    label in label order; a one-row block tests the run of rows |q1| > k1
    before its in-range rows by a plain any (-0.0 is zero, NaN nonzero) and
    those rows by one any over rows against |q2| > k2, and masks from the
    label tables (_labels) locate only a refusal.  Conjugation symmetry is
    then tested with q1 = 0..hi - 1 against (-q1, -q2), each pair once, for
    a block of rows k1 < hi, screened by max(|Re|, |Im|) <= _SCREEN and
    measured in |.| only where not cleared, in full where it breaks.  Errors
    come in the order out-of-range, normalization, hermiticity.  NaN fails
    every comparison and keeps the largest defect NaN; inf raises no warning."""
    a = _owned(values, "values")
    expected = sum(((ts + 1, 2 * ts + 1) for ts in spins), ())
    if a.shape != expected:
        raise ValidationError(
            f"{what} incomplete, missing or extra labels: shape {a.shape}, expected {expected}"
        )
    ts1, ts2 = (*spins, 0)[:2]
    a4 = a.reshape(ts1 + 1, 2 * ts1 + 1, ts2 + 1, 2 * ts2 + 1)
    (out1, sign1), (out2, sign2) = _labels(ts1), _labels(ts2)
    sign = sign1[:, None, None] * sign2  # (-1)^(q1 + q2)
    step = ts1 + 1 if len(spins) == 1 else max(1, _BLOCK_BYTES // a4[0].nbytes)
    rows, done = a.reshape(a4.shape[0] * a4.shape[1], -1), 0  # [(k1, q1), (k2, q2)]
    broken = []  # (first label, largest defect) of each block that breaks symmetry

    def pairs(b, hi):  # q1 = 0..hi-1 against (-q1, -q2): each pair once; q1 >= hi is out of range
        return b[:, ts1 : ts1 + hi].conj() - sign[ts1 : ts1 + hi] * b[:, ts1::-1, :, ::-1][:, :hi]

    for lo in range(0, ts1 + 1, step):
        hi = min(lo + step, ts1 + 1)
        b, k1, suspect = a4[lo:hi], lo, True
        if step == 1:  # rank lo's in-range rows, and the run of rows |q1| > k1 before them
            start = lo * (2 * ts1 + 1) + ts1 - lo  # rank lo's row q1 = -lo
            run, done, k1 = rows[done:start], start + 2 * lo + 1, max(0, lo - 1)
            suspect = run.any() or (rows[start:done].any(axis=0) & out2.ravel()).any()
        if suspect:  # located from rank k1: a slab's run starts in rank lo - 1
            c, outside = a4[k1:hi], out1[k1:hi, :, None, None] | out2
            if c.any(where=outside):
                label = _first_label(outside & (c != 0), k1, spins)
                raise ValidationError(
                    f"{what} has out-of-range labels: {label} is nonzero, expected exactly 0"
                )
        parts = pairs(b, hi).view(float)
        # screened by max(|Re|, |Im|), taken in place; measured in |.| only if not cleared
        if not np.abs(parts, out=parts).max() <= _SCREEN:
            if not np.all(abs(pairs(b, hi)) <= TENSOR_TOL):
                defect = np.abs(b.conj() - sign * b[:, ::-1, :, ::-1])
                bad = ~(defect <= TENSOR_TOL)
                broken.append((_first_label(bad, lo, spins), np.max(defect[bad])))
    t00 = a4[0, ts1, 0, ts2]
    norm_defect = abs(t00 - 1.0)
    if not norm_defect <= TENSOR_TOL:
        raise ValidationError(
            f"{what}: normalization violated: rank-0 coefficient = {t00:.15g}, "
            f"expected 1 (defect {norm_defect:.3e}, tolerance {TENSOR_TOL:g})"
        )
    if broken:
        raise ValidationError(
            f"{what}: hermiticity (conjugation symmetry) violated, first at "
            f"{broken[0][0]}: largest |conj(t) - (-1)^q t_(-q)| = "
            f"{np.max([d for _, d in broken]):.3e} exceeds tolerance {TENSOR_TOL:g}"
        )
    return a


def _column(ts: int, k, q, suffix: str = "") -> tuple[int, int]:
    """Array indices [k, 2s + q] of one factor's label (k, q) at twice-spin ts."""
    k = require_int(k, "k" + suffix, 0, ts)
    return k, ts + require_int(q, "q" + suffix, -k, k)


@dataclass(frozen=True)
class FanoTensorSet:
    """Complete multipole coefficients t^k_q of a single spin-s state.

    `values` is a read-only complex array [k, 2s + q].  Invariants: entries
    with |q| > k are exactly zero, t^0_0 = 1 and conj(t^k_q) =
    (-1)^q t^k_{-q}, the last two to 1e-12.
    """

    s: HalfInteger
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        ts = require_spin(self.s)
        object.__setattr__(self, "s", HalfInteger(ts))
        object.__setattr__(self, "values", _validate_set(self.values, (ts,), "tensor set"))

    def value(self, k: int, q: int) -> complex:
        return complex(self.values[_column(self.s.twice_value, k, q)])

    def as_array(self) -> np.ndarray:
        """Dense layout [k, 2s + q], zero where |q| > k (read-only)."""
        return self.values


@dataclass(frozen=True)
class CoupledFanoTensorSet:
    """Complete coupled coefficients t^{k1 k2}_{q1 q2} of a two-spin state.

    `values` is a read-only complex array [k1, 2s1 + q1, k2, 2s2 + q2].
    Invariants as for FanoTensorSet, with (-1)^(q1 + q2) for (-1)^q.
    """

    s1: HalfInteger
    s2: HalfInteger
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        ts1, ts2 = require_spin(self.s1, "s1"), require_spin(self.s2, "s2")
        object.__setattr__(self, "s1", HalfInteger(ts1))
        object.__setattr__(self, "s2", HalfInteger(ts2))
        object.__setattr__(
            self, "values", _validate_set(self.values, (ts1, ts2), "coupled tensor set")
        )

    def value(self, k1: int, q1: int, k2: int, q2: int) -> complex:
        labels = _column(self.s1.twice_value, k1, q1, "1")
        return complex(self.values[labels + _column(self.s2.twice_value, k2, q2, "2")])

    def as_array(self) -> np.ndarray:
        """Dense layout [k1, 2s1 + q1, k2, 2s2 + q2] (read-only)."""
        return self.values


def decompose(rho: DensityMatrix) -> FanoTensorSet:
    """Multipole coefficients t^k_q = Tr(rho tau^k_q).

    Its bits are those of operator_components on rho's matrix alone; the
    same matrix traced in a batch may differ in the last bits (see there).
    """
    return FanoTensorSet(rho.s, _frozen(operator_components(rho.matrix)))


def reconstruct(t: FanoTensorSet) -> DensityMatrix:
    """Invert decompose: rho = (1/(2s+1)) sum_kq tau^k_q^dag t^k_q."""
    return DensityMatrix(t.s, _frozen(operator_from_components(t.s, t.values)))


def decompose_bipartite(rho12: BipartiteDensityMatrix) -> CoupledFanoTensorSet:
    """Coupled coefficients Tr(rho12 tau^{k1}_{q1} x tau^{k2}_{q2})."""
    n1, n2 = rho12.dim1, rho12.dim2
    # trace factor 1 on the (m2, m2', m1, m1') view, then factor 2 on the
    # [k1, q1, m2, m2'] view of that, which leaves [k1, q1, k2, q2] in place
    mat4 = rho12.matrix.reshape(n1, n2, n1, n2).transpose(1, 3, 0, 2)
    partial = operator_components(mat4).transpose(2, 3, 0, 1)
    return CoupledFanoTensorSet(rho12.s1, rho12.s2, _frozen(operator_components(partial)))


def reconstruct_bipartite(t12: CoupledFanoTensorSet) -> BipartiteDensityMatrix:
    """Invert decompose_bipartite:

    rho12 = (1/((2s1+1)(2s2+1))) sum t^{k1 k2}_{q1 q2}
            (tau^{k1}_{q1} x tau^{k2}_{q2})^dag.
    """
    n1, n2 = t12.s1.twice_value + 1, t12.s2.twice_value + 1
    # factor 1 on the (k2, q2, k1, q1) view, whose matrix-first view is t12
    # itself, then factor 2 on the (m1, m1', k2, q2) view of that, whose
    # matrix-first view is the partial: both read whole runs
    partial = operator_from_components(t12.s1, t12.values.transpose(2, 3, 0, 1))
    resolved = operator_from_components(t12.s2, partial.transpose(2, 3, 0, 1))
    del partial  # about 2x the matrix: released before out is allocated
    out = np.empty((n1 * n2, n1 * n2), dtype=complex)
    out.reshape(n1, n2, n1, n2)[...] = resolved.transpose(0, 2, 1, 3)  # (m1, m1', m2, m2')
    del resolved  # not held while the container validates
    return BipartiteDensityMatrix(t12.s1, t12.s2, _frozen(out))


def reduce(rho12: BipartiteDensityMatrix, which: int) -> DensityMatrix:
    """Partial trace onto subsystem 1 or 2."""
    which = require_int(which, "which", 1, 2)
    n1, n2 = rho12.dim1, rho12.dim2
    mat4 = rho12.matrix.reshape(n1, n2, n1, n2)
    if which == 1:
        return DensityMatrix(rho12.s1, _frozen(np.einsum("ijkj->ik", mat4)))
    return DensityMatrix(rho12.s2, _frozen(np.einsum("ijil->jl", mat4)))


def is_product(t12: CoupledFanoTensorSet, tol: float) -> bool:
    """Factorization test: every coupled coefficient equals the product of
    its marginals within tol.

    True certifies an uncorrelated product state; this is not a general
    separability test.
    """
    tol = require_real(tol, "tol", 0.0)
    t4 = t12.values
    ts1, ts2 = t12.s1.twice_value, t12.s2.twice_value
    # marginals t^{k1 0}_{q1 0} and t^{0 k2}_{0 q2}, broadcast to [k1, q1, k2, q2]
    product = t4[:, :, :1, ts2 : ts2 + 1] * t4[:1, ts1 : ts1 + 1, :, :]
    return float(np.max(np.abs(t4 - product))) <= tol


def rotate_tensors(t: FanoTensorSet, alpha: float, beta: float, gamma: float) -> FanoTensorSet:
    """Coefficients of the actively rotated state R rho R^dag.

    Because R tau^k_q R^dag = sum_{q'} D^k_{q'q} tau^k_{q'}, the coefficients
    transform with the conjugate matrix: t'^k_q = sum_{q'} conj(D^k_{q q'})
    t^k_{q'} = e^{i q alpha} sum_{q'} d^k_{q q'}(beta) e^{i q' gamma} t^k_{q'}.
    One column-reversed copy, padded to whole rank blocks, takes one batched
    pass of angular._apply_d per block of eight ranks, each a contiguous
    slice whose zeros at |q| > k meet the bases' padding; the z rotations are
    elementwise phases.  Matches decompose(R rho R^dag) to roundoff.
    """
    ts = t.s.twice_value
    alpha, beta, gamma = _scalar_angles(alpha=alpha, beta=beta, gamma=gamma)
    top, pad = -(-ts // 8) * 8, -ts % 8  # ranks 0..top, columns q = top..-top
    work = np.zeros((top + 1, 2 * top + 1), dtype=complex)
    work[: ts + 1, pad : pad + 2 * ts + 1] = t.values[:, ::-1] * _phases(2 * ts, gamma)[::-1]
    phase = _phases(2 * top, beta)[top:]  # mu = 0..top
    for b in range(top // 8):
        cols = slice(top - 8 * b - 8, top + 8 * b + 9)
        _apply_d(_rank_blocks((0, b))[0], phase[: 8 * b + 9], work[8 * b + 1 : 8 * b + 9, cols])
    rotated = _phases(2 * ts, alpha) * work[: ts + 1, pad : pad + 2 * ts + 1][:, ::-1]
    return FanoTensorSet(t.s, _frozen(rotated))


def singlet_density(s) -> BipartiteDensityMatrix:
    """Total-spin-zero state of two spin-s systems.

    Matrix elements <s m1'; s m2'| rho |s m1; s m2> =
    (-1)^(m1 - m1') / (2s+1) delta_{m1', -m2'} delta_{m1, -m2}.  Pure and
    rotationally invariant; s = 0 degenerates to the trivial 1x1 state.
    """
    ts = require_spin(s)
    n = ts + 1
    out = np.zeros((n * n, n * n), dtype=complex)
    i = np.arange(n)
    rows = i * n + ts - i  # row (m1, m2) with m2 = -m1
    out[np.ix_(rows, rows)] = np.where((i[:, None] - i) % 2, -1.0, 1.0) / n
    return BipartiteDensityMatrix(HalfInteger(ts), HalfInteger(ts), _frozen(out))


def _singlet_coefficients(ts: int) -> np.ndarray:
    """The singlet's nonzero coupled coefficients t^{kk}_{q,-q} = (-1)^(k+q)
    as a [k, 2s + q] array, zero where |q| > k (from _labels)."""
    outside, sign = _labels(ts)
    return np.where(outside, 0.0, np.multiply.outer(sign[ts:], sign))


def singlet_tensors(s) -> CoupledFanoTensorSet:
    """Closed-form coupled coefficients of the spin-s singlet:

    t^{k1 k2}_{q1 q2} = (-1)^(k1 + q1) delta_{k1 k2} delta_{q1, -q2}.
    """
    ts = require_spin(s)
    n = ts + 1
    diagonal = _singlet_coefficients(ts)
    k, col = np.nonzero(diagonal)
    t4 = np.zeros((n, 2 * ts + 1, n, 2 * ts + 1), dtype=complex)
    # column 2s + q pairs with column 2s - q
    t4[k, col, k, 2 * ts - col] = diagonal[k, col]
    return CoupledFanoTensorSet(HalfInteger(ts), HalfInteger(ts), _frozen(t4))
