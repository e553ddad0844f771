"""Public numeric routines against exact or independent oracles that are
already installed, one row per routine, at small spins and at the large
spins a routine claims.  Rows at 2s >= 64 are marked `scale`.  Rows:

- `coefficient_table`, P, Q and F: the closed forms in mpmath at 50 digits,
  at 2s = 1, 2, 24, 64, 128, 200 and 1000, within (2s + 1) eps relative.
"""

import mpmath
import numpy as np
import pytest

from spinphase import DistributionKind, coefficient_table

EPS = np.finfo(float).eps


def coefficient_oracle(kind: DistributionKind, ts: int) -> list:
    """c_k, k = 0..2s, from the closed forms at 50 digits:

    P: (1/(2s)!) sqrt((2s-k)! (2s+k+1)! / (2s+1))
    Q: (2s)! sqrt((2s+1) / ((2s-k)! (2s+k+1)!))
    F: 2^(-k) sqrt((2s+k+1)! / ((2s-k)! (2s+1) {s(s+1)}^k))
    """
    with mpmath.workdps(50):
        fac, n = mpmath.factorial, mpmath.mpf(ts + 1)
        ss1 = mpmath.mpf(ts) * (ts + 2) / 4  # s(s+1)
        out = []
        for k in range(ts + 1):
            ratio = fac(ts - k) * fac(ts + k + 1)
            if kind is DistributionKind.P:
                c = mpmath.sqrt(ratio / n) / fac(ts)
            elif kind is DistributionKind.Q:
                c = fac(ts) * mpmath.sqrt(n / ratio)
            else:
                c = mpmath.sqrt(fac(ts + k + 1) / (fac(ts - k) * n * ss1**k)) / mpmath.mpf(2) ** k
            out.append(c)
        return out


@pytest.mark.parametrize("kind", list(DistributionKind))
@pytest.mark.parametrize(
    "ts", [1, 2, 24, *(pytest.param(ts, marks=pytest.mark.scale) for ts in (64, 128, 200, 1000))]
)
def test_coefficient_table_matches_closed_forms(kind, ts):
    got = coefficient_table(kind, ts / 2)
    exact = coefficient_oracle(kind, ts)
    assert got.shape == (ts + 1,)
    with mpmath.workdps(50):
        worst = max(abs((mpmath.mpf(float(g)) - e) / e) for g, e in zip(got, exact))
    assert float(worst) <= (ts + 1) * EPS
