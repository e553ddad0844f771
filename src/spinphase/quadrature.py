"""Deterministic quadrature on the sphere, exact for band-limited integrands.

Gauss-Legendre nodes in cos(theta) crossed with a uniform azimuthal grid
(the Driscoll-Healy product quadrature).  A grid is fixed by its band limit
L: SphereGrid(L), or build_grid(L), derives its L+1 polar and 2L+2
azimuthal nodes (one above the minimum, guarding the |q| = L aliasing edge)
and their weights, and integrates any spherical-harmonic polynomial of
degree <= 2L+1 to roundoff.  No other node set is accepted, since project's
FFT and the weights assume exactly these nodes.

Integrands are given as arrays of node values (at node_thetas, node_phis).
They are converted by angular's argument rule (_require_array), their shape
is checked, what is not numeric is refused with a DomainError naming the
argument, and NaN and +-inf are refused in one vectorized step.  integrate sums
w_n f_n by numpy's pairwise sum, within (N + 1) eps sum_n w_n |f_n| of the
exact weighted sum for N nodes, per real part; a sum of node values that
overflows the float range is refused.  project analyses node values
into spherical-harmonic coefficients ring by ring: one FFT in phi per ring,
then one sum over the rings against angular's half table
Pbar[k, q >= 0, ring] = Y_kq(theta_ring, 0), one real product per order
(the Driscoll-Healy / SHTns structure), so the harmonic table over all nodes
is never built.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .angular import _per_order, _q_signs, _require_array, _ring_table, require_int
from .errors import DomainError

__all__ = ["SphereGrid", "build_grid", "integrate", "integrate_product", "project"]

# project's |Pbar| temporaries, per block of ranks
_BOUND_BLOCK_BYTES = 1_000_000


@dataclass(frozen=True)
class SphereGrid:
    """Immutable product quadrature grid on the sphere, fixed by its band L.

    Everything else is derived on construction: thetas are the L + 1 polar
    nodes (ascending), theta_weights the matching Gauss-Legendre weights in
    cos(theta); phis are the 2L + 2 uniform azimuths 2 pi j / n_phi with the
    constant weight phi_weight = 2 pi / n_phi.  Node weights sum to 4 pi.
    Grids compare and hash by their band.
    """

    band_limit: int
    thetas: np.ndarray = field(init=False, repr=False, compare=False)
    theta_weights: np.ndarray = field(init=False, repr=False, compare=False)
    phis: np.ndarray = field(init=False, repr=False, compare=False)
    phi_weight: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        band = require_int(self.band_limit, "band_limit", 0)
        n_phi = 2 * band + 2
        x, w = np.polynomial.legendre.leggauss(band + 1)
        # leggauss returns ascending x = cos(theta); flip so theta ascends
        thetas, theta_weights = np.arccos(x)[::-1].copy(), w[::-1].copy()
        phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
        for arr in (thetas, theta_weights, phis):
            arr.setflags(write=False)
        object.__setattr__(self, "band_limit", band)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "theta_weights", theta_weights)
        object.__setattr__(self, "phis", phis)
        object.__setattr__(self, "phi_weight", 2.0 * math.pi / n_phi)

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
    """The Gauss-Legendre x uniform-phi grid of the given band limit."""
    return SphereGrid(band_limit)


def _node_values(grid: SphereGrid, values, name: str) -> np.ndarray:
    """Node values in grid order along the last axis (leading axes batched),
    converted by the argument rule; after the shape check a non-numeric dtype
    is refused by `name`; NaN and then +-inf are refused, naming the first
    such node in row-major order; finite values are accepted in one isfinite
    pass."""
    vals = _require_array(values, name, "node value")
    if vals.ndim == 0 or vals.shape[-1] != grid.n_nodes:
        raise DomainError(
            f"expected {grid.n_nodes} node values along the last axis, got array "
            f"of shape {vals.shape}"
        )
    if vals.dtype.kind not in "biufc":  # object
        raise DomainError(f"{name}={values!r}: expected a finite node value")
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


@contextmanager
def _overflow_refused(vals: np.ndarray):
    """Run a sum of finite node values with float overflow raised, and refuse
    it as a DomainError naming the largest |node value|."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        with np.errstate(over="ignore"):
            largest = float(np.max(np.abs(vals)))
        raise DomainError(
            f"node sum overflows the float range (largest |node value| {largest:.6g})"
        ) from None


def integrate(grid: SphereGrid, f):
    """Integrate node values over the sphere: the weighted sum sum_n w_n f_n.

    f is a 1-d array of node values in grid order (at grid.node_thetas,
    grid.node_phis); a real f gives a float, a complex f a complex.  The sum
    is numpy's pairwise sum of the products w_n f_n in node order.  Each
    product rounds once and the sum adds at most N - 1 roundings, so the
    result is within (N + 1) eps sum_n w_n |f_n| of the exact weighted sum
    for N nodes, eps the float epsilon, separately for the real and the
    imaginary part (|f_n| then read as |Re f_n| or |Im f_n|) (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, ch. 4).
    A sum that overflows the float range is refused (DomainError).
    """
    vals = _node_values(grid, f, "f")
    if vals.ndim != 1:
        raise DomainError(f"expected {grid.n_nodes} node values, got array of shape {vals.shape}")
    with _overflow_refused(vals):
        total = np.sum(grid.weights * vals)
    return complex(total) if np.iscomplexobj(vals) else float(total)


def integrate_product(grid1: SphereGrid, grid2: SphereGrid, values: np.ndarray):
    """Integrate over the product of two spheres.

    values[i, j] holds the integrand at (node i of grid1, node j of grid2).
    The sum over grid2's nodes goes first.  NaN and +-inf values are refused
    before it, as integrate refuses them, at their grid1 node: each node is
    named by its first NaN, else its first +-inf.  A sum that overflows is
    refused as integrate refuses it.
    """
    vals = _require_array(values, "values", "value")
    if vals.shape != (grid1.n_nodes, grid2.n_nodes):
        raise DomainError(
            f"expected values of shape {(grid1.n_nodes, grid2.n_nodes)}, got {vals.shape}"
        )
    if vals.dtype.kind not in "biufc":  # object
        raise DomainError(f"values={values!r}: expected a finite value")
    if not np.isfinite(vals).all():
        nan, bad = np.isnan(vals), ~np.isfinite(vals)
        first = np.where(nan.any(axis=1), nan.argmax(axis=1), bad.argmax(axis=1))
        _node_values(grid1, vals[np.arange(grid1.n_nodes), first], "values")
    with _overflow_refused(vals):
        inner = vals @ grid2.weights
    return integrate(grid1, inner)


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
    Node values whose sums overflow are refused (DomainError).
    """
    k_max = require_int(k_max, "k_max", 0)
    vals = _node_values(grid, values, "values")
    table = _ring_table(k_max, grid.thetas)  # [k, p, ring]
    rings = vals.reshape(vals.shape[:-1] + (grid.n_theta, grid.n_phi))
    ring_weights = grid.theta_weights * grid.phi_weight
    q = np.arange(-k_max, k_max + 1)
    signed_weights = ring_weights[:, None] * _q_signs(q)  # conj(Y_kq)'s q < 0 sign
    step = max(1, _BOUND_BLOCK_BYTES // table[0].nbytes)
    with _overflow_refused(vals):
        spectra = np.fft.fft(rings, axis=-1)[..., q % grid.n_phi] * signed_weights
        spectra = spectra.reshape(-1, grid.n_theta, q.size).transpose(2, 0, 1)  # [q, batch, ring]
        coefficients = _per_order(spectra, table.transpose(1, 2, 0)).transpose(1, 2, 0)
        coefficients = coefficients.reshape(vals.shape[:-1] + coefficients.shape[1:])
        del spectra  # its bytes make room for the |Pbar| blocks of the bound
        abs_rings = np.abs(rings).sum(axis=-1) * ring_weights
        bound = np.concatenate([
            np.einsum("kpr,...r->...kp", np.abs(table[k : k + step]), abs_rings)
            for k in range(0, k_max + 1, step)
        ], axis=-2)[..., np.abs(q)]
    return coefficients, grid.n_nodes * np.finfo(float).eps * bound
