"""Deterministic quadrature on the sphere, exact for band-limited integrands.

Gauss-Legendre nodes in cos(theta) crossed with a uniform azimuthal grid.
With band limit L the grid has L+1 polar and 2L+2 azimuthal nodes (one above
the minimum, guarding the |q| = L aliasing edge), which integrates any
spherical-harmonic polynomial of degree <= 2L+1 to roundoff.

project analyses node values into spherical-harmonic coefficients ring by
ring: one FFT in phi per ring, then a Legendre sum over the rings (the
Driscoll-Healy / SHTns structure), so the harmonic table over all nodes is
never built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .angular import _norm_legendre_table
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

    def nodes(self):
        """Iterate (theta, phi, weight) in the fixed node order."""
        for t, p, w in zip(self.node_thetas, self.node_phis, self.weights):
            yield float(t), float(p), float(w)


def build_grid(band_limit: int) -> SphereGrid:
    """Build the Gauss-Legendre x uniform-phi grid for the given band limit."""
    if isinstance(band_limit, bool) or not isinstance(band_limit, (int, np.integer)):
        raise DomainError(f"band_limit must be an integer, got {band_limit!r}")
    if band_limit < 0:
        raise DomainError(f"band_limit must be >= 0, got {band_limit}")
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
        band_limit=int(band_limit),
        thetas=thetas,
        theta_weights=theta_weights,
        phis=phis,
        phi_weight=2.0 * math.pi / n_phi,
    )


def _node_values(grid: SphereGrid, f) -> np.ndarray:
    if callable(f):
        vals = np.asarray(
            [f(float(t), float(p)) for t, p in zip(grid.node_thetas, grid.node_phis)]
        )
    else:
        vals = np.asarray(f)
        if vals.shape != (grid.n_nodes,):
            raise DomainError(
                f"expected {grid.n_nodes} node values, got array of shape {vals.shape}"
            )
    bad = np.nonzero(np.isnan(vals.real) | np.isnan(vals.imag))[0]
    if bad.size:
        n = int(bad[0])
        raise DomainError(
            f"NaN integrand at node {n} "
            f"(theta={grid.node_thetas[n]:.6f}, phi={grid.node_phis[n]:.6f})"
        )
    return vals


def integrate(grid: SphereGrid, f):
    """Integrate f over the sphere: weighted sum in fixed node order.

    f is either a callable f(theta, phi) or a precomputed array of node
    values in grid order.  Accumulation is compensated (math.fsum).
    """
    vals = _node_values(grid, f)
    w = grid.weights
    if np.iscomplexobj(vals):
        return complex(math.fsum(w * vals.real), math.fsum(w * vals.imag))
    return math.fsum(w * vals)


def integrate_product(grid1: SphereGrid, grid2: SphereGrid, values: np.ndarray):
    """Integrate over the product of two spheres.

    values[i, j] holds the integrand at (node i of grid1, node j of grid2).
    """
    values = np.asarray(values)
    if values.shape != (grid1.n_nodes, grid2.n_nodes):
        raise DomainError(
            f"expected values of shape {(grid1.n_nodes, grid2.n_nodes)}, "
            f"got {values.shape}"
        )
    partial = values @ grid2.weights
    if np.iscomplexobj(partial):
        return complex(
            math.fsum(grid1.weights * partial.real),
            math.fsum(grid1.weights * partial.imag),
        )
    return math.fsum(grid1.weights * partial)


def project(grid: SphereGrid, values, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Harmonic coefficients of node values under the grid's quadrature,

        a_kq = sum_n w_n f_n conj(Y_kq(n)),   k = 0..k_max,

    with a roundoff bound for each, N eps sum_n w_n |f_n| |Y_kq(n)| (N nodes).

    values holds node values in grid order along its last axis; leading axes
    are batched.  Both results have shape [..., k, k_max + q], zero where
    |q| > k.  Each ring takes one FFT in phi and column q is read at index
    q mod n_phi, so this is the same discrete sum as the direct one on any
    grid, aliasing included.  The theta sum contracts with the normalized
    Legendre table on the n_theta ring angles: O(k_max^2 n_theta) work and
    memory instead of the O(k_max^2 N) of a full harmonic table.
    """
    if isinstance(k_max, bool) or not isinstance(k_max, (int, np.integer)) or k_max < 0:
        raise DomainError(f"k_max must be an integer >= 0, got {k_max!r}")
    vals = np.asarray(values)
    if vals.ndim == 0 or vals.shape[-1] != grid.n_nodes:
        raise DomainError(
            f"expected {grid.n_nodes} node values along the last axis, got array "
            f"of shape {vals.shape}"
        )
    for row in vals.reshape(-1, grid.n_nodes):
        _node_values(grid, row)
    rings = vals.reshape(vals.shape[:-1] + (grid.n_theta, grid.n_phi))
    ring_weights = grid.theta_weights * grid.phi_weight
    q = np.arange(-k_max, k_max + 1)
    # conj(Y_kq) = Pbar[k, |q|] exp(-i q phi), times (-1)^q for q < 0
    sign = np.where((q < 0) & (q % 2 == 1), -1.0, 1.0)
    spectra = np.fft.fft(rings, axis=-1)[..., q % grid.n_phi] * (ring_weights[:, None] * sign)
    pbar = _norm_legendre_table(k_max, np.cos(grid.thetas))  # [k, |q|, ring]
    coefficients = np.concatenate(
        [
            np.einsum("kpr,...rp->...kp", pbar[:, :0:-1], spectra[..., :k_max]),
            np.einsum("kpr,...rp->...kp", pbar, spectra[..., k_max:]),
        ],
        axis=-1,
    )
    abs_rings = np.abs(rings).sum(axis=-1) * ring_weights
    bound = np.einsum("kpr,...r->...kp", np.abs(pbar), abs_rings)[..., np.abs(q)]
    return coefficients, grid.n_nodes * np.finfo(float).eps * bound
