import math

import numpy as np
import pytest

from spinphase import (
    DistributionKind,
    DomainError,
    build_grid,
    decompose,
    evaluate_bipartite_many,
    evaluate_many,
    integrate,
    integrate_product,
    project,
)
from conftest import harmonic_table, random_bipartite_density, random_density
from spinphase.fano import decompose_bipartite

FOUR_PI = 4.0 * math.pi


@pytest.mark.parametrize("band", [0, 1, 2, 5, 12])
def test_weights_sum_to_sphere_area(band):
    grid = build_grid(band)
    assert math.fsum(grid.weights) == pytest.approx(FOUR_PI, abs=1e-12)


def test_constant_integrates_to_area():
    grid = build_grid(3)
    assert integrate(grid, np.ones(grid.n_nodes)) == pytest.approx(FOUR_PI, abs=1e-12)


def test_zero_mean_harmonic():
    grid = build_grid(4)
    table = harmonic_table(1, grid.node_thetas, grid.node_phis)
    val = integrate(grid, table[1, 1 + 0])
    assert abs(val) < 1e-13


@pytest.mark.parametrize("band", [4, 8])
def test_harmonic_mean_values(band):
    # integral of Y_kq is sqrt(4 pi) delta_k0 delta_q0 for k <= band
    grid = build_grid(band)
    table = harmonic_table(band, grid.node_thetas, grid.node_phis)
    for k in range(band + 1):
        for q in range(-k, k + 1):
            val = integrate(grid, table[k, band + q])
            expected = math.sqrt(FOUR_PI) if (k, q) == (0, 0) else 0.0
            assert abs(val - expected) < 1e-12


def test_harmonic_orthonormality_full_sweep():
    # Gram matrix over all (k, q), k <= 12, equals the identity
    band = 12
    grid = build_grid(band)
    table = harmonic_table(band, grid.node_thetas, grid.node_phis)
    labels = [(k, q) for k in range(band + 1) for q in range(-k, k + 1)]
    stack = np.array([table[k, band + q] for k, q in labels])
    gram = np.einsum("an,bn,n->ab", stack, stack.conj(), grid.weights)
    assert np.max(np.abs(gram - np.eye(len(labels)))) < 1e-10


def test_single_product_value():
    grid = build_grid(12)
    table = harmonic_table(5, grid.node_thetas, grid.node_phis)
    y53 = table[5, 5 + 3]
    val = integrate(grid, y53 * np.conj(y53))
    assert val.real == pytest.approx(1.0, abs=1e-12)
    assert abs(val.imag) < 1e-13


def test_cos_squared_integral():
    grid = build_grid(2)
    val = integrate(grid, np.cos(grid.node_thetas) ** 2)
    assert val == pytest.approx(FOUR_PI / 3.0, abs=1e-13)


def test_doubling_band_limit_plateau(rng):
    rho = random_density(rng, 3)
    t = decompose(rho)
    vals = []
    for band in (3, 6, 12):
        grid = build_grid(band)
        w = evaluate_many(DistributionKind.P, t, grid.node_thetas, grid.node_phis)
        vals.append(integrate(grid, w))
    assert abs(vals[0] - vals[1]) < 1e-12
    assert abs(vals[1] - vals[2]) < 1e-12


@pytest.mark.parametrize("ts1,ts2", [(1, 1), (1, 2), (2, 3), (3, 3)])
def test_product_grid_bipartite_normalization(ts1, ts2, rng):
    rho12 = random_bipartite_density(rng, ts1, ts2)
    t12 = decompose_bipartite(rho12)
    g1 = build_grid(ts1)
    g2 = build_grid(ts2)
    for kind in DistributionKind:
        vals = evaluate_bipartite_many(
            kind, t12, g1.node_thetas, g1.node_phis, g2.node_thetas, g2.node_phis
        )
        total = integrate_product(g1, g2, vals)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_integrate_rejects_nan():
    grid = build_grid(1)
    vals = np.ones(grid.n_nodes)
    vals[3] = float("nan")
    with pytest.raises(DomainError, match="node 3"):
        integrate(grid, vals)


def test_integrate_product_rejects_nan():
    grid = build_grid(1)
    vals = np.ones((grid.n_nodes, grid.n_nodes))
    vals[3, 5] = float("nan")
    with pytest.raises(DomainError, match="node 3"):
        integrate_product(grid, grid, vals)


def test_integrate_rejects_bad_shape():
    grid = build_grid(1)
    with pytest.raises(DomainError):
        integrate(grid, np.ones(grid.n_nodes + 1))
    with pytest.raises(DomainError):
        integrate(grid, np.ones((2, grid.n_nodes)))


def test_integrate_rejects_callable():
    # integrands are node arrays only; a callable fails the shape check
    grid = build_grid(2)
    with pytest.raises(DomainError, match="node values"):
        integrate(grid, lambda t, p: 1.0)


def test_build_grid_counts():
    grid = build_grid(5)
    assert grid.n_theta == 6
    assert grid.n_phi == 12
    assert grid.n_nodes == 72
    assert grid.node_thetas.shape == grid.node_phis.shape == grid.weights.shape == (72,)
    assert not hasattr(grid, "nodes")


def test_build_grid_domain():
    with pytest.raises(DomainError):
        build_grid(-1)
    with pytest.raises(DomainError):
        build_grid(2.5)


# ------------------------------------------------------------------ project


@pytest.mark.parametrize("k", [0, 1, 3, 6])
def test_project_single_harmonic_is_unit_vector(k):
    for band in (k, k + 1, k + 4):
        grid = build_grid(band)
        table = harmonic_table(k, grid.node_thetas, grid.node_phis)
        for q in range(-k, k + 1):
            coefficients, _ = project(grid, table[k, k + q], band)
            expected = np.zeros((band + 1, 2 * band + 1))
            expected[k, band + q] = 1.0
            assert np.max(np.abs(coefficients - expected)) < 1e-13, (band, q)


@pytest.mark.parametrize("band, k_max", [(2, 2), (2, 9), (5, 7), (8, 3)])
def test_project_matches_direct_sum(band, k_max, rng):
    # k_max beyond the band: the phi columns wrap, as in the direct sum
    grid = build_grid(band)
    values = rng.normal(size=(2, grid.n_nodes)) + 1j * rng.normal(size=(2, grid.n_nodes))
    y = harmonic_table(k_max, grid.node_thetas, grid.node_phis)
    direct = np.einsum("n,bn,kqn->bkq", grid.weights, values, np.conj(y))
    direct_bound = np.einsum("n,bn,kqn->bkq", grid.weights, np.abs(values), np.abs(y))
    coefficients, bound = project(grid, values, k_max)
    assert coefficients.shape == bound.shape == (2, k_max + 1, 2 * k_max + 1)
    assert np.max(np.abs(coefficients - direct)) < 1e-13
    eps = np.finfo(float).eps
    assert np.allclose(bound, grid.n_nodes * eps * direct_bound, rtol=1e-12, atol=0.0)


def test_project_rejects_bad_input():
    grid = build_grid(2)
    with pytest.raises(DomainError):
        project(grid, np.ones(grid.n_nodes - 1), 2)
    with pytest.raises(DomainError):
        project(grid, np.ones(grid.n_nodes), -1)
    bad = np.ones((2, grid.n_nodes))
    bad[1, 5] = np.nan
    with pytest.raises(DomainError, match="NaN integrand at node 5"):
        project(grid, bad, 2)
    # the first bad node in row-major order, as a loop over the rows finds it
    bad[0, 9] = np.nan
    with pytest.raises(DomainError, match=r"NaN integrand at node 9 \(theta="):
        project(grid, bad, 2)
