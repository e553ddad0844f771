import math
from fractions import Fraction

import numpy as np
import pytest

from spinphase import (
    DistributionKind,
    DomainError,
    SphereGrid,
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


def node_message(grid, shown, n):
    return (
        f"{shown} integrand at node {n} "
        f"(theta={grid.node_thetas[n]:.6f}, phi={grid.node_phis[n]:.6f})"
    )


@pytest.mark.parametrize(
    "value, shown",
    [(math.inf, "inf"), (-math.inf, "-inf"), (complex(1, math.inf), "(1+infj)"),
     (math.nan, "NaN"), (complex(1, math.nan), "NaN")],
)
def test_non_finite_node_value_is_named_at_its_node(value, shown):
    # inf is refused where NaN is, with no numpy warning; the NaN message is
    # the one NaN always had
    grid = build_grid(2)
    vals = np.ones(grid.n_nodes, dtype=type(value))
    vals[3] = value
    batched = np.stack([np.ones_like(vals), vals])
    for call in (
        lambda: integrate(grid, vals),
        lambda: project(grid, vals, 2),
        lambda: project(grid, batched, 2),
    ):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == node_message(grid, shown, 3)


@pytest.mark.parametrize("second", [math.inf, -math.inf])
def test_integrate_product_names_non_finite_value_at_its_grid1_node(second):
    grid = build_grid(2)
    for dtype in (float, complex):
        vals = np.ones((grid.n_nodes, grid.n_nodes), dtype=dtype)
        vals[4, 5] = math.inf
        vals[4, 6] = second  # inf - inf would make the partial sum NaN
        with pytest.raises(DomainError) as info:
            integrate_product(grid, grid, vals)
        assert str(info.value) == node_message(grid, "inf", 4)
    # a NaN in any row outranks an inf, as in integrate
    vals[2, 0] = math.inf
    vals[7, 9] = math.nan
    with pytest.raises(DomainError) as info:
        integrate_product(grid, grid, vals)
    assert str(info.value) == node_message(grid, "NaN", 7)


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
    for band in (0, 1, 6, 31):
        assert build_grid(band).band_limit == band


def test_build_grid_domain():
    with pytest.raises(DomainError):
        build_grid(-1)
    with pytest.raises(DomainError):
        build_grid(2.5)


def test_grid_is_its_band():
    grid = SphereGrid(3)
    assert build_grid(3) == grid and hash(build_grid(3)) == hash(grid)
    assert build_grid(4) != grid
    assert {grid: "band 3"}[build_grid(3)] == "band 3"
    assert repr(grid) == "SphereGrid(band_limit=3)"


def test_grid_derived_nodes_are_read_only():
    grid = SphereGrid(2)
    for name in ("thetas", "theta_weights", "phis", "node_thetas", "node_phis", "weights"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(grid, name)[0] = 0.0
    with pytest.raises(AttributeError):
        grid.phi_weight = 1.0


def test_grid_takes_only_its_band():
    nodes = build_grid(2)
    fields = (nodes.thetas, nodes.theta_weights, nodes.phis, nodes.phi_weight)
    with pytest.raises(TypeError):
        SphereGrid(2, *fields)
    with pytest.raises(TypeError):
        SphereGrid(band_limit=2, phi_weight=1.0)


def test_overflowing_node_sums_are_refused():
    grid = build_grid(2)
    message = r"^node sum overflows the float range \(largest \|node value\| 1e\+308\)$"
    with pytest.raises(DomainError, match=message):
        integrate(grid, np.full(grid.n_nodes, 1e308))
    with pytest.raises(DomainError, match=message):
        integrate(grid, np.full(grid.n_nodes, complex(0.0, -1e308)))
    with pytest.raises(DomainError, match=message):
        integrate_product(grid, grid, np.full((grid.n_nodes, grid.n_nodes), 1e308))
    # a_00 = 1.06e308 fits, but the FFT's ring sums of six 3e307 do not
    with pytest.raises(DomainError, match=r"\(largest \|node value\| 3e\+307\)$"):
        project(grid, np.full(grid.n_nodes, 3e307), 2)
    # sums that fit are still taken
    assert integrate(grid, np.full(grid.n_nodes, 1e307)) == pytest.approx(FOUR_PI * 1e307)


def exact_weighted_sum(weights, values) -> Fraction:
    """sum_n w_n f_n over float weights and values, in exact rationals."""
    return sum(map(Fraction.__mul__, map(Fraction, weights.tolist()),
                   map(Fraction, values.tolist())), Fraction(0))


def adversarial_node_values(case, n, rng):
    """Real node values that defeat a plain sum: +-1e16 pairs that cancel
    (on a shuffle of the nodes, so across rings of different weight) over
    values of order one, or magnitudes spread from 1e-300 to 1e300 with
    random signs."""
    if case == "cancelling":
        big = np.resize([1e16, -1e16], n)
        return rng.permutation(big) + rng.normal(size=n)
    return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)


@pytest.mark.parametrize("band", [1, 4, 24, 64])
@pytest.mark.parametrize("case", ["cancelling", "wide", "complex"])
def test_integrate_within_stated_bound_of_exact_sum(band, case, rng):
    # |integrate - sum w f| <= (N + 1) eps sum w |f| per real part, the
    # exact sums in rationals; the bound holds for any order of the sum
    grid = build_grid(band)
    n = grid.n_nodes
    if case == "complex":
        f = adversarial_node_values("cancelling", n, rng) + 1j * adversarial_node_values(
            "wide", n, rng
        )
    else:
        f = adversarial_node_values(case, n, rng)
    got = integrate(grid, f)
    assert isinstance(got, complex if case == "complex" else float)
    eps = Fraction(np.finfo(float).eps)
    for part in (np.real, np.imag):
        exact = exact_weighted_sum(grid.weights, part(f))
        bound = (n + 1) * eps * exact_weighted_sum(grid.weights, np.abs(part(f)))
        assert abs(Fraction(float(part(got))) - exact) <= bound


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
