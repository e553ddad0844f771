"""Independent checks of a workload pass's outputs.

They run after the timed section, outside every span, and only on outputs of
calls that did not fail.  Each check yields an absolute error; a pass is
correct when every error is within REL_TOL of the quantity's scale, and its
accuracy in digits is min(-log10(max(error, 1e-16))) over all checks.

Oracles: sympy's exact Clebsch-Gordan coefficients for sampled t^k_q, round
trips, unit normalization, Tr(rho Sz) with Sz = diag(m), `q_direct`,
decompose(R rho R^dag), the marginal coefficients t^{k1 q1 0 0}, and the
singlet closed forms (tensors, profile, correlation -s(s+1)/3 a.b).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from spinphase import angular, distributions, fano
from spinphase.distributions import DistributionKind

# flags wrong results, not the roundoff that grows with spin
REL_TOL = 1e-6
ERROR_FLOOR = 1e-16
Q_SAMPLE_NODES = 4


class Checks:
    def __init__(self):
        self.rows: list[tuple[str, int, float, float]] = []

    def add(self, name: str, ts, error, scale=1.0) -> None:
        self.rows.append((name, ts, float(error), float(scale)))

    def summary(self) -> dict:
        bad = [r for r in self.rows if not r[2] <= REL_TOL * max(1.0, r[3])]
        worst: dict[str, float] = {}
        for name, _, err, _ in self.rows:
            worst[name] = max(worst.get(name, 0.0), err)
        return {
            "correct": bool(self.rows) and not bad,
            "accuracy_digits": min(-math.log10(max(r[2], ERROR_FLOOR)) for r in self.rows),
            "n_checks": len(self.rows),
            "max_error": worst,
            "violations": [f"{n} 2s={ts}: error {e:.3e}" for n, ts, e, _ in bad],
        }


def max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


@lru_cache(maxsize=None)
def _exact_cg(ts: int, k: int, tm: int, q: int) -> float:
    """<s m; k q | s m+q> from sympy's exact formula, as a float."""
    from sympy import Rational
    from sympy.physics.quantum.cg import CG

    s = Rational(ts, 2)
    return float(CG(s, Rational(tm, 2), k, q, s, Rational(tm + 2 * q, 2)).doit())


def exact_tkq(matrix: np.ndarray, ts: int, k: int, q: int) -> complex:
    """t^k_q = Tr(rho tau^k_q), tau^k_q[m+q, m] = sqrt(2k+1) <s m; k q | s m+q>."""
    total = 0j
    for i in range(ts + 1):  # column i holds m = s - i
        tm = ts - 2 * i
        tmp = tm + 2 * q
        if abs(tmp) <= ts:
            ip = (ts - tmp) // 2
            total += matrix[i, ip] * math.sqrt(2 * k + 1) * _exact_cg(ts, k, tm, q)
    return total


def _check_sampled_tkq(checks, t, matrix, ts, n_labels):
    rng = np.random.default_rng(ts)
    labels = [(ts, int(rng.integers(-ts, ts + 1)))]
    for _ in range(n_labels - 1):
        k = int(rng.integers(1, ts + 1))
        labels.append((k, int(rng.integers(-k, k + 1))))
    for k, q in labels:
        checks.add("decompose_vs_exact_cg", ts, abs(t.value(k, q) - exact_tkq(matrix, ts, k, q)))


def check_cold_sweep(outputs) -> dict:
    checks = Checks()
    for out in outputs:
        ts, rho = out["ts"], out["rho"]
        if "loaded" in out:
            checks.add("load_density_file", ts, max_abs(out["loaded"].matrix, rho))
        if "t" in out:
            _check_sampled_tkq(checks, out["t"], rho, ts, n_labels=2)
        if "back" in out:
            checks.add("reconstruct_round_trip", ts, max_abs(out["back"].matrix, rho))
        if "obs_back" in out:
            scale = float(np.max(np.abs(out["obs"])))
            checks.add("operator_round_trip", ts, max_abs(out["obs_back"], out["obs"]), scale)
    return checks.summary()


def check_warm_states(outputs) -> dict:
    checks = Checks()
    for out in outputs:
        if isinstance(out["ts"], tuple):
            _check_bipartite(checks, out)
            continue
        ts, matrix, grid = out["ts"], out["matrix"], out["grid"]
        s = ts / 2.0
        if "t" not in out:
            continue
        t = out["t"]
        _check_sampled_tkq(checks, t, matrix, ts, n_labels=1)
        for kind in DistributionKind:
            if f"norm_{kind.value}" in out:
                checks.add(f"normalization_{kind.value}", ts, abs(out[f"norm_{kind.value}"] - 1.0))
        if "values_Q" in out:
            rho = fano.DensityMatrix(s, matrix)
            nodes = np.random.default_rng(ts).choice(grid.n_nodes, Q_SAMPLE_NODES, replace=False)
            for j in nodes:
                ref = distributions.q_direct(rho, grid.node_thetas[j], grid.node_phis[j])
                checks.add("q_vs_q_direct", ts, abs(out["values_Q"][j] - ref))
        if "expect_sz" in out:
            ref = float(np.trace(matrix @ out["sz"]).real)
            checks.add("expectation_vs_trace", ts, abs(out["expect_sz"] - ref), s)
        if "rotated" in out:
            r = angular.wigner_D_matrix(s, *out["angles"])
            ref = fano.decompose(fano.DensityMatrix(s, r @ matrix @ r.conj().T))
            checks.add("rotate_vs_decompose", ts, max_abs(out["rotated"].as_array(), ref.as_array()))
        if "back" in out:
            checks.add("reconstruct_round_trip", ts, max_abs(out["back"].matrix, matrix))
    return checks.summary()


def _check_bipartite(checks, out):
    ts1, ts2 = out["ts"]
    if "t12" not in out:
        return
    t4 = out["t12"].as_array()
    if "reduced" in out:
        t1 = fano.decompose(out["reduced"][0]).as_array()
        t2 = fano.decompose(out["reduced"][1]).as_array()
        checks.add("reduce_vs_marginal_tensors", ts1, max_abs(t1, t4[:, :, 0, ts2]))
        checks.add("reduce_vs_marginal_tensors", ts2, max_abs(t2, t4[0, ts1, :, :]))
    if "is_product" in out:
        outer = t4[:, :, 0, ts2][:, :, None, None] * t4[0, ts1, :, :][None, None, :, :]
        expected = float(np.max(np.abs(t4 - outer))) <= out["is_product_tol"]
        checks.add("is_product_vs_marginals", ts1, 0.0 if out["is_product"] == expected else 1.0)
    if "back" in out:
        checks.add("reconstruct_bipartite_round_trip", ts1, max_abs(out["back"].matrix, out["matrix"]))


def _singlet_tensor_array(ts: int) -> np.ndarray:
    """(-1)^(k1+q1) delta_{k1 k2} delta_{q1,-q2} in the [k1, 2s+q1, k2, 2s+q2] layout."""
    out = np.zeros((ts + 1, 2 * ts + 1, ts + 1, 2 * ts + 1))
    for k in range(ts + 1):
        for q in range(-k, k + 1):
            out[k, ts + q, k, ts - q] = -1.0 if (k + q) % 2 else 1.0
    return out


def _squared_coefficients(kind: DistributionKind, ts: int) -> np.ndarray:
    """c_k^2 by the exact ratio recurrence c_k^2 / c_{k-1}^2 = r_k."""
    k = np.arange(1, ts + 1, dtype=float)
    if kind is DistributionKind.P:
        r = (ts + k + 1) / (ts - k + 1)
    elif kind is DistributionKind.Q:
        r = (ts - k + 1) / (ts + k + 1)
    else:
        r = (ts + k + 1) * (ts - k + 1) / (ts * (ts + 2.0))
    return np.concatenate([[1.0], np.cumprod(r)])


def check_singlet(outputs) -> dict:
    checks = Checks()
    for out in outputs:
        ts = out["ts"]
        s = ts / 2.0
        if "t12" in out:
            checks.add("singlet_tensors_closed_form", ts,
                       max_abs(out["t12"].as_array(), _singlet_tensor_array(ts)))
        k = np.arange(ts + 1)
        for kind in DistributionKind:
            key = f"profile_{kind.value}"
            if key in out:
                coeffs = np.where(k % 2, -1.0, 1.0) * (2 * k + 1) * _squared_coefficients(kind, ts)
                coeffs /= (4.0 * math.pi) ** 2
                ref = np.polynomial.legendre.legval(np.cos(out["angles"]), coeffs)
                checks.add(f"profile_{kind.value}_closed_form", ts, max_abs(out[key], ref),
                           float(np.sum(np.abs(coeffs))))
            key = f"corr_{kind.value}"
            if key in out:
                ref = -s * (s + 1.0) / 3.0 * float(out["a"] @ out["b"])
                checks.add(f"correlation_{kind.value}_closed_form", ts, abs(out[key] - ref),
                           s * (s + 1.0) / 3.0)
    return checks.summary()
