"""Deterministic quadrature on the sphere, exact for band-limited integrands.

Gauss-Legendre nodes in cos(theta) crossed with a uniform azimuthal grid.
With band limit L the grid has L+1 polar and 2L+2 azimuthal nodes (one above
the minimum, guarding the |q| = L aliasing edge), which integrates any
spherical-harmonic polynomial of degree <= 2L+1 to roundoff.

Integrands are given as arrays of node values (at node_thetas, node_phis)
and checked for shape and NaN in one vectorized step.  project analyses
node values into spherical-harmonic coefficients ring by ring: one FFT in
phi per ring, then one sum over the rings against angular's half table
Pbar[k, q >= 0, ring] = Y_kq(theta_ring, 0), one real product per order
(the Driscoll-Healy / SHTns structure), so the harmonic table over all nodes
is never built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .angular import _per_order, _q_signs, _ring_table, require_int, require_real
from .errors import DomainError

__all__ = ["SphereGrid", "build_grid", "integrate", "integrate_product", "project"]

# project's |Pbar| temporaries, per block of ranks
_BOUND_BLOCK_BYTES = 1_000_000


@dataclass(frozen=True)
class SphereGrid:
    """Immutable product quadrature grid on the sphere.

    thetas are the polar nodes (ascending), theta_weights the matching
    Gauss-Legendre weights in cos(theta); phis are uniform with the constant
    weight phi_weight = 2 pi / n_phi.  Node weights sum to 4 pi.
    """

    band_limit: int
    thetas: np.ndarray
    theta_weights: np.ndarray
    phis: np.ndarray
    phi_weight: float

    def __post_init__(self):
        require_int(self.band_limit, "band_limit", 0)
        for name in ("thetas", "theta_weights", "phis"):
            a = getattr(self, name)
            ok = isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype.kind in "iuf"
            if not (ok and np.isfinite(a).all()):
                raise DomainError(f"{name}={a!r}: expected a 1-d array of finite reals")
        if self.theta_weights.shape != self.thetas.shape:
            raise DomainError(f"theta_weights={self.theta_weights!r}: expected one per theta")
        require_real(self.phi_weight, "phi_weight", 0.0, strict=True)
        # last, so that a malformed field is named first; coarser nodes alias
        band = self.band_limit
        needs = (("thetas", self.n_theta, band + 1), ("phis", self.n_phi, 2 * band + 2))
        for name, n, least in needs:
            if n < least:
                raise DomainError(f"{name}: {n} nodes cannot carry band {band} (at least {least})")

    @property
    def n_theta(self) -> int:
        return self.thetas.shape[0]

    @property
    def n_phi(self) -> int:
        return self.phis.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.n_theta * self.n_phi

    @cached_property
    def node_thetas(self) -> np.ndarray:
        out = np.repeat(self.thetas, self.n_phi)
        out.setflags(write=False)
        return out

    @cached_property
    def node_phis(self) -> np.ndarray:
        out = np.tile(self.phis, self.n_theta)
        out.setflags(write=False)
        return out

    @cached_property
    def weights(self) -> np.ndarray:
        out = np.repeat(self.theta_weights * self.phi_weight, self.n_phi)
        out.setflags(write=False)
        return out


def build_grid(band_limit: int) -> SphereGrid:
    """Build the Gauss-Legendre x uniform-phi grid for the given band limit."""
    band_limit = require_int(band_limit, "band_limit", 0)
    n_theta = band_limit + 1
    n_phi = 2 * band_limit + 2
    x, w = np.polynomial.legendre.leggauss(n_theta)
    # leggauss returns ascending x = cos(theta); flip so theta ascends
    thetas = np.arccos(x)[::-1].copy()
    theta_weights = w[::-1].copy()
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    for arr in (thetas, theta_weights, phis):
        arr.setflags(write=False)
    return SphereGrid(
        band_limit=band_limit,
        thetas=thetas,
        theta_weights=theta_weights,
        phis=phis,
        phi_weight=2.0 * math.pi / n_phi,
    )


def _node_values(grid: SphereGrid, values) -> np.ndarray:
    """Node values in grid order along the last axis (leading axes batched);
    NaN and then +-inf are refused, naming the first such node in row-major
    order; finite values are accepted in one isfinite pass."""
    vals = np.asarray(values)
    if vals.ndim == 0 or vals.shape[-1] != grid.n_nodes:
        raise DomainError(
            f"expected {grid.n_nodes} node values along the last axis, got array "
            f"of shape {vals.shape}"
        )
    if not np.isfinite(vals).all():
        nan = np.isnan(vals)
        i = int(np.flatnonzero(nan if nan.any() else ~np.isfinite(vals))[0])
        value = complex(vals.flat[i])
        shown = "NaN" if nan.any() else repr(value.real if value.imag == 0 else value)
        n = i % grid.n_nodes
        raise DomainError(
            f"{shown} integrand at node {n} "
            f"(theta={grid.node_thetas[n]:.6f}, phi={grid.node_phis[n]:.6f})"
        )
    return vals


def integrate(grid: SphereGrid, f):
    """Integrate node values over the sphere: weighted sum in fixed node order.

    f is a 1-d array of node values in grid order (at grid.node_thetas,
    grid.node_phis).  Accumulation is compensated (math.fsum).
    """
    vals = _node_values(grid, f)
    if vals.ndim != 1:
        raise DomainError(f"expected {grid.n_nodes} node values, got array of shape {vals.shape}")
    w = grid.weights
    if np.iscomplexobj(vals):
        return complex(math.fsum(w * vals.real), math.fsum(w * vals.imag))
    return math.fsum(w * vals)


def integrate_product(grid1: SphereGrid, grid2: SphereGrid, values: np.ndarray):
    """Integrate over the product of two spheres.

    values[i, j] holds the integrand at (node i of grid1, node j of grid2).
    The sum over grid2's nodes goes first.  NaN and +-inf values are refused
    before it, as integrate refuses them, at their grid1 node: each node is
    named by its first NaN, else its first +-inf.
    """
    values = np.asarray(values)
    if values.shape != (grid1.n_nodes, grid2.n_nodes):
        raise DomainError(
            f"expected values of shape {(grid1.n_nodes, grid2.n_nodes)}, "
            f"got {values.shape}"
        )
    if not np.isfinite(values).all():
        nan, bad = np.isnan(values), ~np.isfinite(values)
        first = np.where(nan.any(axis=1), nan.argmax(axis=1), bad.argmax(axis=1))
        _node_values(grid1, values[np.arange(grid1.n_nodes), first])
    return integrate(grid1, values @ grid2.weights)


def project(grid: SphereGrid, values, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Harmonic coefficients of node values under the grid's quadrature,

        a_kq = sum_n w_n f_n conj(Y_kq(n)),   k = 0..k_max,

    with a roundoff bound for each, N eps sum_n w_n |f_n| |Y_kq(n)| (N nodes).

    values holds node values in grid order along its last axis; leading axes
    are batched.  Both results have shape [..., k, k_max + q], zero where
    |q| > k.  Each ring takes one FFT in phi and column q is read at index
    q mod n_phi, so this is the same discrete sum as the direct one on any
    grid, aliasing included.  As conj(Y_kq) = (-1)^q Pbar[k, |q|] exp(-i q phi)
    for q < 0, a sign folded into the ring weights, the ring sum is one real
    product per order p (angular._per_order) with the half table Pbar[k, p,
    ring]: O(k_max^2 n_theta) work and memory, not the O(k_max^2 N) of a
    full harmonic table.  The table comes read-only from angular's ring table
    cache, keyed by (k_max, grid.thetas), so repeated calls on one grid build
    it once; the bound reads |Pbar| in blocks of at most _BOUND_BLOCK_BYTES.
    """
    k_max = require_int(k_max, "k_max", 0)
    vals = _node_values(grid, values)
    rings = vals.reshape(vals.shape[:-1] + (grid.n_theta, grid.n_phi))
    ring_weights = grid.theta_weights * grid.phi_weight
    q = np.arange(-k_max, k_max + 1)
    signed_weights = ring_weights[:, None] * _q_signs(q)  # conj(Y_kq)'s q < 0 sign
    spectra = np.fft.fft(rings, axis=-1)[..., q % grid.n_phi] * signed_weights
    spectra = spectra.reshape(-1, grid.n_theta, q.size).transpose(2, 0, 1)  # [q, batch, ring]
    table = _ring_table(k_max, np.asarray(grid.thetas, dtype=float))  # [k, p, ring]
    coefficients = _per_order(spectra, table.transpose(1, 2, 0)).transpose(1, 2, 0)
    coefficients = coefficients.reshape(vals.shape[:-1] + coefficients.shape[1:])
    del spectra  # its bytes make room for the |Pbar| blocks of the bound
    abs_rings = np.abs(rings).sum(axis=-1) * ring_weights
    step = max(1, _BOUND_BLOCK_BYTES // table[0].nbytes)
    bound = np.concatenate([
        np.einsum("kpr,...r->...kp", np.abs(table[k : k + step]), abs_rings)
        for k in range(0, k_max + 1, step)
    ], axis=-2)[..., np.abs(q)]
    return coefficients, grid.n_nodes * np.finfo(float).eps * bound
