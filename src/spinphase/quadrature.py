"""Deterministic quadrature on the sphere, exact for band-limited integrands.

Gauss-Legendre nodes in cos(theta) crossed with a uniform azimuthal grid.
With band limit L the grid has L+1 polar and 2L+2 azimuthal nodes (one above
the minimum, guarding the |q| = L aliasing edge), which integrates any
spherical-harmonic polynomial of degree <= 2L+1 to roundoff.

Integrands are given as arrays of node values (at node_thetas, node_phis)
and checked for shape and NaN in one vectorized step.  project analyses
node values into spherical-harmonic coefficients ring by ring: one FFT in
phi per ring, then one sum over the rings against angular's signed table
T[k, k_max + q, ring] = Y_kq(theta_ring, 0), which already carries the q < 0
sign (the Driscoll-Healy / SHTns structure), so the harmonic table over all
nodes is never built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .angular import _norm_legendre_table, require_int
from .errors import DomainError

__all__ = ["SphereGrid", "build_grid", "integrate", "integrate_product", "project"]


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
    NaN is refused, naming the first bad node in row-major order."""
    vals = np.asarray(values)
    if vals.ndim == 0 or vals.shape[-1] != grid.n_nodes:
        raise DomainError(
            f"expected {grid.n_nodes} node values along the last axis, got array "
            f"of shape {vals.shape}"
        )
    bad = np.flatnonzero(np.isnan(vals.real) | np.isnan(vals.imag))
    if bad.size:
        n = int(bad[0]) % grid.n_nodes
        raise DomainError(
            f"NaN integrand at node {n} "
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
    The sum over grid2's nodes goes first; integrate then refuses a NaN
    partial sum, naming its grid1 node.
    """
    values = np.asarray(values)
    if values.shape != (grid1.n_nodes, grid2.n_nodes):
        raise DomainError(
            f"expected values of shape {(grid1.n_nodes, grid2.n_nodes)}, "
            f"got {values.shape}"
        )
    return integrate(grid1, values @ grid2.weights)


def project(grid: SphereGrid, values, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Harmonic coefficients of node values under the grid's quadrature,

        a_kq = sum_n w_n f_n conj(Y_kq(n)),   k = 0..k_max,

    with a roundoff bound for each, N eps sum_n w_n |f_n| |Y_kq(n)| (N nodes).

    values holds node values in grid order along its last axis; leading axes
    are batched.  Both results have shape [..., k, k_max + q], zero where
    |q| > k.  Each ring takes one FFT in phi and column q is read at index
    q mod n_phi, so this is the same discrete sum as the direct one on any
    grid, aliasing included.  The theta sum is one contraction with the
    signed table T[k, k_max + q, ring] = Y_kq(theta_ring, 0), as conj(Y_kq) =
    T exp(-i q phi) at every q: O(k_max^2 n_theta) work and memory instead
    of the O(k_max^2 N) of a full harmonic table.
    """
    k_max = require_int(k_max, "k_max", 0)
    vals = _node_values(grid, values)
    rings = vals.reshape(vals.shape[:-1] + (grid.n_theta, grid.n_phi))
    ring_weights = grid.theta_weights * grid.phi_weight
    q = np.arange(-k_max, k_max + 1)
    spectra = np.fft.fft(rings, axis=-1)[..., q % grid.n_phi] * ring_weights[:, None]
    table = _norm_legendre_table(k_max, np.cos(grid.thetas))  # [k, k_max + q, ring]
    coefficients = np.einsum("kqr,...rq->...kq", table, spectra)
    # the bound needs |Pbar[k, |q|]| only: reuse the q >= 0 half in place
    abs_pbar = np.abs(table[:, k_max:], out=table[:, k_max:])
    abs_rings = np.abs(rings).sum(axis=-1) * ring_weights
    bound = np.einsum("kpr,...r->...kp", abs_pbar, abs_rings)[..., np.abs(q)]
    return coefficients, grid.n_nodes * np.finfo(float).eps * bound
