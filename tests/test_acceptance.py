"""End-to-end acceptance suite.

One test per acceptance criterion, each asserting its stated tolerance and
printing a PASS line; run with `pytest tests/test_acceptance.py -v -s` to see
the per-criterion lines.  Runtime-budgeted criteria assert their own elapsed
time.

Criterion 10's convergence check is strict: |c_k - 1| must decrease at
every step of 2s = 8..200.  The one exception is F at rank 1, whose
coefficient equals 1 exactly at every spin (the rank-1 radius constraint
cancels algebraically), so it has no gap to shrink; that case asserts
c_1 == 1 exactly at each spin instead.
"""

import math
import time

import numpy as np
import pytest

from spinphase import (
    DistributionKind,
    build_grid,
    clebsch_gordan,
    coefficient,
    coherent_state,
    decompose,
    decompose_bipartite,
    evaluate_bipartite_many,
    evaluate_many,
    integrate,
    integrate_product,
    q_direct,
    reconstruct,
    reconstruct_bipartite,
    singlet_density,
    singlet_profile,
    singlet_tensors,
    spherical_harmonic,
    tau_matrix,
    wigner_D,
    wigner_D_matrix,
)
from spinphase.cli import main
from spinphase.distributions import correlation, correlation_exact
from conftest import random_bipartite_density, random_density, random_direction

P, Q, F = DistributionKind.P, DistributionKind.Q, DistributionKind.F
FOUR_PI = 4.0 * math.pi


def _report(number, text):
    print(f"ACCEPTANCE {number:02d} PASS - {text}")


# --------------------------------------------------------------- criterion 1


def test_criterion_01_spin_half_closed_forms():
    started = time.perf_counter()
    x, w = np.polynomial.legendre.leggauss(16)
    expected = {P: (1.0, -9.0), Q: (1.0, -1.0), F: (1.0, -3.0)}
    for kind, (c0, c1) in expected.items():
        vals = FOUR_PI**2 * singlet_profile(kind, 0.5, np.arccos(x))
        for k, target in ((0, c0), (1, c1)):
            pk = np.array([np.polynomial.legendre.Legendre.basis(k)(xi) for xi in x])
            coef = (2 * k + 1) / 2.0 * float(np.sum(w * vals * pk))
            assert abs(coef - target) <= 1e-10, (kind, k, coef, target)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.3f} s, budget 1 s"
    _report(1, "spin-1/2 profile Legendre coefficients (1,-9) (1,-1) (1,-3)")


# --------------------------------------------------------------- criterion 2


def test_criterion_02_correlation_law(rng):
    started = time.perf_counter()
    for ts in (1, 2, 3, 4):
        grid = build_grid(max(2, ts))
        for _ in range(10):
            a = random_direction(rng)
            b = random_direction(rng)
            exact = correlation_exact(ts / 2, a, b)
            for kind in DistributionKind:
                got = correlation(kind, ts / 2, a, b, grid)
                assert abs(got - exact) <= 1e-8, (ts, kind, got, exact)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f} s, budget 30 s"
    _report(2, "quadrature correlation equals -s(s+1)/3 cos(angle) for all kinds")


# --------------------------------------------------------------- criterion 3


def test_criterion_03_singlet_marginals(rng):
    for ts in (1, 2):
        t12 = singlet_tensors(ts / 2)
        grid = build_grid(ts)
        for _ in range(50):
            theta = rng.uniform(0, math.pi)
            phi = rng.uniform(0, 2 * math.pi)
            for kind in DistributionKind:
                over_2 = evaluate_bipartite_many(
                    kind, t12, [theta], [phi], grid.node_thetas, grid.node_phis
                )
                marg1 = math.fsum(grid.weights * over_2[0])
                over_1 = evaluate_bipartite_many(
                    kind, t12, grid.node_thetas, grid.node_phis, [theta], [phi]
                )
                marg2 = math.fsum(grid.weights * over_1[:, 0])
                assert abs(marg1 - 1 / FOUR_PI) <= 1e-10
                assert abs(marg2 - 1 / FOUR_PI) <= 1e-10
    _report(3, "singlet marginals equal 1/(4 pi) at 50 random directions")


# --------------------------------------------------------------- criterion 4


def test_criterion_04_normalization(rng):
    for ts in (1, 2, 3, 4):
        grid = build_grid(ts)
        for _ in range(5):
            t = decompose(random_density(rng, ts))
            for kind in DistributionKind:
                total = integrate(
                    grid, evaluate_many(kind, t, grid.node_thetas, grid.node_phis)
                )
                assert abs(total - 1.0) <= 1e-10, (ts, kind, total)
    for ts1, ts2 in ((1, 1), (1, 2), (2, 1), (2, 2)):
        g1, g2 = build_grid(ts1), build_grid(ts2)
        t12 = decompose_bipartite(random_bipartite_density(rng, ts1, ts2))
        for kind in DistributionKind:
            vals = evaluate_bipartite_many(
                kind, t12, g1.node_thetas, g1.node_phis, g2.node_thetas, g2.node_phis
            )
            total = integrate_product(g1, g2, vals)
            assert abs(total - 1.0) <= 1e-10, (ts1, ts2, kind, total)
    _report(4, "single and joint distributions integrate to 1 for random states")


# --------------------------------------------------------------- criterion 5


def test_criterion_05_singlet_tensor_closed_form():
    for ts in (1, 2, 3, 4):
        closed = singlet_tensors(ts / 2)
        brute = decompose_bipartite(singlet_density(ts / 2))
        defect = np.abs(closed.values - brute.values)
        assert np.all(defect <= 1e-12), (ts, np.argwhere(defect > 1e-12))
    _report(5, "singlet coupled coefficients match brute-force decomposition")


# --------------------------------------------------------------- criterion 6


def test_criterion_06_oracle_equivalence(rng):
    for ts in (1, 2, 3, 4):
        grid = build_grid(ts)
        for _ in range(5):
            rho = random_density(rng, ts)
            t = decompose(rho)
            vals = evaluate_many(Q, t, grid.node_thetas, grid.node_phis)
            for n in range(grid.n_nodes):
                direct = q_direct(rho, grid.node_thetas[n], grid.node_phis[n])
                assert abs(vals[n] - direct) <= 1e-10
    for ts in (1, 2, 3, 4):
        s = ts / 2.0
        theta = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        amps = coherent_state(s, theta, phi).amplitudes
        for k in range(ts + 1):
            ck = coefficient(Q, s, k)
            for q in range(-k, k + 1):
                lhs = np.conj(amps) @ (tau_matrix(s, k, q) @ amps)
                rhs = (
                    math.sqrt(FOUR_PI)
                    * (-1.0) ** (k + q)
                    * ck
                    * spherical_harmonic(k, q, theta, phi)
                )
                assert abs(lhs - rhs) <= 1e-12
    _report(6, "Q evaluation matches its overlap oracle; coherent-state closed form holds")


# --------------------------------------------------------------- criterion 7


def test_criterion_07_tensor_algebra(rng):
    # orthonormality and hermiticity of the operator basis
    for ts in range(1, 9):
        labels = [(k, q) for k in range(ts + 1) for q in range(-k, k + 1)]
        stack = np.array([tau_matrix(ts / 2, k, q) for k, q in labels])
        gram = np.einsum("aij,bij->ab", stack, stack.conj())
        assert np.max(np.abs(gram - (ts + 1) * np.eye(len(labels)))) <= 1e-10
        for idx, (k, q) in enumerate(labels):
            mirror = labels.index((k, -q))
            defect = np.max(np.abs(stack[idx].conj().T - (-1.0) ** q * stack[mirror]))
            assert defect <= 1e-12
    # diagonal sum rule
    for ts in range(0, 11):
        for k in range(ts + 1):
            total = math.fsum(
                clebsch_gordan(ts / 2, k, ts / 2, tm / 2, 0, tm / 2)
                for tm in range(-ts, ts + 1, 2)
            )
            expected = ts + 1.0 if k == 0 else 0.0
            assert abs(total - expected) <= 1e-10
    # coupling-coefficient orthogonality, exhaustive to 2s = 8
    for ts1 in range(0, 9):
        for ts2 in range(0, 9):
            dim = (ts1 + 1) * (ts2 + 1)
            cols = [
                (ts, tm)
                for ts in range(abs(ts1 - ts2), ts1 + ts2 + 1, 2)
                for tm in range(ts, -ts - 1, -2)
            ]
            mat = np.zeros((dim, dim))
            for j, (ts, tm) in enumerate(cols):
                row = 0
                for tm1 in range(ts1, -ts1 - 1, -2):
                    for tm2 in range(ts2, -ts2 - 1, -2):
                        if tm1 + tm2 == tm:
                            mat[row, j] = clebsch_gordan(
                                ts1 / 2, ts2 / 2, ts / 2, tm1 / 2, tm2 / 2, tm / 2
                            )
                        row += 1
            assert np.max(np.abs(mat.T @ mat - np.eye(dim))) <= 1e-10, (ts1, ts2)
    # rotation covariance
    for ts in (1, 2, 3, 4):
        s = ts / 2.0
        for _ in range(20):
            angles = (
                rng.uniform(0, 2 * math.pi),
                rng.uniform(0, math.pi),
                rng.uniform(0, 2 * math.pi),
            )
            rot = wigner_D_matrix(s, *angles)
            for k in range(ts + 1):
                for q in range(-k, k + 1):
                    lhs = rot @ tau_matrix(s, k, q) @ rot.conj().T
                    rhs = sum(
                        wigner_D(k, qp, q, *angles) * tau_matrix(s, k, qp)
                        for qp in range(-k, k + 1)
                    )
                    assert np.max(np.abs(lhs - rhs)) <= 1e-9
    _report(7, "tensor orthonormality, hermiticity, sum rules, covariance")


# --------------------------------------------------------------- criterion 8


def test_criterion_08_roundtrips(rng):
    for i in range(50):
        ts = 1 + i % 6
        rho = random_density(rng, ts)
        back = reconstruct(decompose(rho))
        assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-12
    pairs = [(1, 1), (1, 2), (2, 1), (2, 2)]
    for i in range(50):
        ts1, ts2 = pairs[i % 4]
        rho12 = random_bipartite_density(rng, ts1, ts2)
        back = reconstruct_bipartite(decompose_bipartite(rho12))
        assert np.max(np.abs(back.matrix - rho12.matrix)) <= 1e-12
    _report(8, "decompose/reconstruct identity, 50 single + 50 joint states")


# --------------------------------------------------------------- criterion 9


def test_criterion_09_profile_csv_shape(tmp_path):
    for ts in (1, 2, 3, 4):
        out = tmp_path / f"profile_{ts}.csv"
        assert main(
            ["singlet", "--kind", "all", "--twice-spin", str(ts),
             "--step-deg", "0.5", "--out", str(out)]
        ) == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        header = lines[0].split(",")
        assert header == ["theta12_deg", "p", "p_normalized", "q", "f"]
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        angles = rows[:, 0]
        for col in range(1, 5):
            assert angles[int(np.argmax(rows[:, col]))] == 180.0, (ts, header[col])
        assert np.min(rows[:, 3]) >= -1e-12  # Q nonnegative everywhere
        if ts == 1:
            p_norm_at_zero = rows[0, 2]
            assert abs(p_norm_at_zero - (-8 / FOUR_PI**2) / 4.0) <= 1e-10
            assert p_norm_at_zero < 0.0
    _report(9, "profile CSVs peak at 180 deg; P goes negative, Q stays nonnegative")


# -------------------------------------------------------------- criterion 10


@pytest.mark.parametrize("kind", list(DistributionKind))
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_criterion_10_coefficient_convergence(kind, k):
    spans = (8, 16, 32, 64, 128, 200)
    if kind is F and k == 1:
        # F's r_1 = (2s+2) 2s / (2s (2s+2)) is 1 by construction: c_1 sits at
        # its limit at every spin, so it has no gap to shrink
        values = [coefficient(F, ts / 2, 1) for ts in spans]
        assert values == [1.0] * len(spans), f"F's c_1 is not exactly 1: {values}"
        _report(10, "F's c_1 equals its limit 1 exactly at every spin")
        return
    gaps = [abs(coefficient(kind, ts / 2, k) - 1.0) for ts in spans]
    assert all(b < a for a, b in zip(gaps, gaps[1:])), (
        f"|c-1| not strictly decreasing for kind={kind.value} k={k}: {gaps}"
    )
    assert gaps[-1] <= gaps[0] / 10.0, (
        f"|c-1| at 2s=200 not below a tenth of 2s=8 for kind={kind.value} k={k}: {gaps}"
    )
    _report(10, f"coefficient convergence toward 1, kind={kind.value} k={k}")


def _f_profile_fwhm(ts: int) -> float:
    peak = singlet_profile(F, ts / 2, math.pi)
    half = peak / 2.0
    thetas = np.linspace(0.0, math.pi, 4001)
    vals = singlet_profile(F, ts / 2, thetas)
    below = np.nonzero(vals < half)[0]
    lo, hi = thetas[below[-1]], thetas[below[-1] + 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if singlet_profile(F, ts / 2, mid) < half:
            lo = mid
        else:
            hi = mid
    return 2.0 * (math.pi - 0.5 * (lo + hi))


def test_criterion_10_concentration():
    started = time.perf_counter()
    widths = [_f_profile_fwhm(2 * s) for s in (1, 2, 4, 8, 16)]
    assert all(b < a for a, b in zip(widths, widths[1:])), widths
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 10 concentration took {elapsed:.1f} s"
    _report(10, "F profile width shrinks monotonically with spin")
