import math

import numpy as np
import pytest

from spinphase import BipartiteDensityMatrix, DensityMatrix, DomainError
from spinphase.angular import _norm_legendre_table


def random_density(rng, twice_spin: int) -> DensityMatrix:
    """Random full-rank state: normalized A A^dag with Gaussian A."""
    n = twice_spin + 1
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = a @ a.conj().T
    return DensityMatrix(twice_spin / 2.0, h / np.trace(h))


def random_bipartite_density(rng, ts1: int, ts2: int) -> BipartiteDensityMatrix:
    n = (ts1 + 1) * (ts2 + 1)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = a @ a.conj().T
    return BipartiteDensityMatrix(ts1 / 2.0, ts2 / 2.0, h / np.trace(h))


def random_direction(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


def norm_legendre_table_oracle(k_max: int, x: np.ndarray) -> np.ndarray:
    """The half table Pbar[k, q >= 0, point] = Y_kq(theta, 0) as built before
    its recurrence coefficients were cached: every coefficient computed per
    call, the sectoral diagonal by a loop over q, then the degree recurrence
    once per k for all q < k - 1."""
    pbar = np.zeros((k_max + 1, k_max + 1, x.shape[0]), dtype=float)
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    pbar[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for q in range(k_max + 1):
        if q > 0:
            pbar[q, q] = -math.sqrt((2.0 * q + 1.0) / (2.0 * q)) * sin_t * pbar[q - 1, q - 1]
        if q + 1 <= k_max:
            pbar[q + 1, q] = math.sqrt(2.0 * q + 3.0) * x * pbar[q, q]
    for k in range(2, k_max + 1):
        q = np.arange(k - 1)
        a = np.sqrt((4.0 * k * k - 1.0) / (k * k - q * q))[:, None]
        b = np.sqrt(((k - 1.0) ** 2 - q * q) / (4.0 * (k - 1.0) ** 2 - 1.0))[:, None]
        pbar[k, : k - 1] = a * (x * pbar[k - 1, : k - 1] - b * pbar[k - 2, : k - 1])
    return pbar


def signed_table(k_max: int, x: np.ndarray) -> np.ndarray:
    """The full signed layout T[k, k_max + q, point] = Y_kq(theta, 0) for
    q = -k_max..k_max, from the library's half table Pbar[k, q >= 0]: the
    tests' one statement of the q < 0 rule Y_{k,-q}(theta, 0) =
    (-1)^q Pbar[k, q]."""
    pbar = _norm_legendre_table(k_max, x)
    sign = np.where(np.arange(k_max, 0, -1) % 2, -1.0, 1.0)  # q = -k_max..-1
    return np.concatenate([pbar[:, :0:-1] * sign[:, None], pbar], axis=1)


def harmonic_table(k_max: int, theta, phi) -> np.ndarray:
    """Spherical harmonics Y_{kq} for all k <= k_max at the given points.

    theta, phi are scalars or equal-length 1-d arrays; the result has shape
    (k_max + 1, 2 k_max + 1, n_points) indexed [k, k_max + q, point], zero
    where |q| > k.  The tests' oracle: every entry written one (k, q) at a
    time, apart from the library's ring-wise routes.
    """
    if k_max < 0:
        raise DomainError("k_max must be >= 0")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    if theta.shape != phi.shape or theta.ndim != 1:
        raise DomainError("theta and phi must be equal-length 1-d arrays")
    table = signed_table(k_max, np.cos(theta))
    out = np.zeros((k_max + 1, 2 * k_max + 1, theta.shape[0]), dtype=complex)
    for q in range(-k_max, k_max + 1):
        phase = np.exp(1j * q * phi)
        for k in range(abs(q), k_max + 1):
            out[k, k_max + q] = table[k, k_max + q] * phase
    return out
