"""The synthesis plan and ring table caches: a grid's harmonic table, phases
and ring maps, and a singlet profile's Legendre column, are built once, and
every result equals the uncached one bit for bit."""

import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import random_bipartite_density, random_density
from spinphase import (
    DistributionKind,
    SpinPhaseError,
    build_grid,
    decompose,
    decompose_bipartite,
    evaluate,
    evaluate_bipartite_many,
    evaluate_many,
    expectation,
    project,
    singlet_profile,
)
from spinphase import angular, distributions
from spinphase.angular import _RankCache, _norm_legendre_table, _ring_table, _synthesize

KINDS = list(DistributionKind)


@pytest.fixture
def uncached(monkeypatch):
    """Run a callable with plan and ring table caches that keep nothing, then
    restore them."""

    def run(f, *args):
        with monkeypatch.context() as m:
            m.setattr(angular, "_plans", _RankCache(angular._build_plan, 0, keep=keep_nothing))
            m.setattr(
                angular, "_ring_tables", _RankCache(angular._build_ring_table, 0, keep=keep_nothing)
            )
            return f(*args)

    return run


def keep_nothing(entry, nbytes) -> bool:
    return False


def same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def point_sets(rng, ts):
    grid = build_grid(ts)
    return {
        "grid": (grid.node_thetas, grid.node_phis),
        "scattered": (rng.uniform(0, math.pi, 37), rng.uniform(0, 2 * math.pi, 37)),
    }


def outcome(f, *args):
    """f's results as a tuple of arrays, or its refusal's type and message."""
    try:
        got = f(*args)
    except SpinPhaseError as exc:
        return type(exc), str(exc)
    return tuple(map(np.asarray, got if isinstance(got, tuple) else (got,)))


def assert_cold_and_hit_equal_uncached(f, args, uncached, cache=angular._plans, kept=True):
    # a refusal (P's imaginary residue at 2s = 24) must be the same refusal;
    # a scattered point set's plan is built on every call and never kept
    expected = uncached(outcome, f, *args)
    cache.cache_clear()
    cold = outcome(f, *args)
    misses = cache.cache_info()["misses"]
    hit = outcome(f, *args)
    info = cache.cache_info()
    assert misses >= 1
    if kept:
        assert info["misses"] == misses and info["hits"] >= 1
    else:
        assert info["misses"] == 2 * misses and info["hits"] == 0 and info["keys"] == ()
    for got in (cold, hit):
        assert len(got) == len(expected)
        assert all(same(g, e) if isinstance(e, np.ndarray) else g == e for g, e in zip(got, expected))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("ts", [1, 4, 16, 24])
def test_evaluate_many_bit_identical_cold_and_on_hit(ts, kind, rng, uncached):
    t = decompose(random_density(rng, ts))
    for name, (theta, phi) in point_sets(rng, ts).items():
        args = (kind, t, theta, phi)
        assert_cold_and_hit_equal_uncached(evaluate_many, args, uncached, kept=name == "grid")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("ts", [1, 4, 16])
def test_expectation_bit_identical_cold_and_on_hit(ts, kind, rng, uncached):
    t = decompose(random_density(rng, ts))
    a = np.diag(np.arange(ts + 1.0)) + 0.5 * np.eye(ts + 1, k=1) + 0.5 * np.eye(ts + 1, k=-1)
    assert_cold_and_hit_equal_uncached(expectation, (kind, t, a, build_grid(ts)), uncached)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("ts1, ts2", [(1, 2), (4, 3)])
def test_evaluate_bipartite_many_bit_identical_cold_and_on_hit(ts1, ts2, kind, rng, uncached):
    t12 = decompose_bipartite(random_bipartite_density(rng, ts1, ts2))
    for (name, (theta1, phi1)), (theta2, phi2) in zip(
        point_sets(rng, ts1).items(), point_sets(rng, ts2).values()
    ):
        args = (kind, t12, theta1, phi1, theta2, phi2)
        assert_cold_and_hit_equal_uncached(
            evaluate_bipartite_many, args, uncached, kept=name == "grid"
        )


@pytest.mark.parametrize("band, k_max", [(1, 1), (4, 4), (8, 3), (16, 16), (5, 9)])
def test_project_bit_identical_cold_and_on_hit(band, k_max, rng, uncached):
    grid = build_grid(band)
    values = rng.normal(size=(2, grid.n_nodes)) + 1j * rng.normal(size=(2, grid.n_nodes))
    assert_cold_and_hit_equal_uncached(
        project, (grid, values, k_max), uncached, cache=angular._ring_tables
    )


def test_project_bound_blocks_equal_one_block(rng, monkeypatch):
    grid = build_grid(12)
    values = rng.normal(size=(3, grid.n_nodes))
    one_block = project(grid, values, 12)
    monkeypatch.setattr("spinphase.quadrature._BOUND_BLOCK_BYTES", 1)
    for got, expected in zip(project(grid, values, 12), one_block):
        assert same(got, expected)


def test_changed_caller_array_gets_the_new_answer(rng, uncached):
    # the key is the points' content, not the array's identity
    ts = 6
    t = decompose(random_density(rng, ts))
    grid = build_grid(ts)
    theta, phi = grid.node_thetas.copy(), grid.node_phis.copy()
    before = evaluate_many(DistributionKind.Q, t, theta, phi)
    theta[:9] = 0.25
    phi[-3:] = 1.5
    after = evaluate_many(DistributionKind.Q, t, theta, phi)
    assert not np.array_equal(after, before)
    assert same(after, uncached(evaluate_many, DistributionKind.Q, t, theta, phi))


def test_threads_sharing_one_plan_get_identical_results(rng):
    ts = 12
    t = decompose(random_density(rng, ts))
    grid = build_grid(ts)
    angular._plans.cache_clear()
    expected = evaluate_many(DistributionKind.F, t, grid.node_thetas, grid.node_phis)
    misses = angular._plans.cache_info()["misses"]
    results, errors = [], []

    def work():
        try:
            for _ in range(50):
                results.append(evaluate_many(DistributionKind.F, t, grid.node_thetas, grid.node_phis))
        except Exception as exc:  # a thread's exception would not fail the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads) and not errors
    assert len(results) == 200 and all(same(r, expected) for r in results)
    assert angular._plans.cache_info()["misses"] == misses


def test_project_leaves_the_cached_table_unchanged(rng):
    grid = build_grid(6)
    table = _ring_table(6, grid.thetas)
    assert not table.flags.writeable
    for _ in range(2):
        project(grid, rng.normal(size=grid.n_nodes), 6)
    assert _ring_table(6, grid.thetas) is table
    assert same(table, _norm_legendre_table(6, np.cos(grid.thetas)))


def test_plan_entries_are_read_only_and_counted_with_their_keys():
    grid = build_grid(5)
    angular._plans.cache_clear()
    _synthesize(np.ones((6, 11), dtype=complex), grid.node_thetas, grid.node_phis)
    info = angular._plans.cache_info()
    (key,) = info["keys"]
    assert key == (5, grid.node_thetas.tobytes(), grid.node_phis.tobytes())
    plan = angular._plans(key)
    assert not any(a.flags.writeable for a in plan)
    assert info["bytes"] == sum(a.nbytes for a in plan) + 2 * grid.node_thetas.nbytes


def test_spherical_harmonic_builds_no_plan():
    angular._plans.cache_clear()
    angular._ring_tables.cache_clear()
    angular.spherical_harmonic(30, -7, 0.4, 1.1)
    assert angular._plans.cache_info()["misses"] == angular._ring_tables.cache_info()["misses"] == 0


def test_single_points_and_scattered_sets_leave_a_grid_plan_in_place(rng):
    # single-point and scattered plans are built for their call and dropped,
    # so a loop of them neither grows the cache nor evicts a grid's plan
    ts = 24
    t = decompose(random_density(rng, ts))
    grid = build_grid(ts)
    angular._plans.cache_clear()
    expected = evaluate_many(DistributionKind.Q, t, grid.node_thetas, grid.node_phis)
    held = angular._plans.cache_info()
    for theta, phi in zip(rng.uniform(0, math.pi, 200), rng.uniform(0, 2 * math.pi, 200)):
        evaluate(DistributionKind.Q, t, theta, phi)
    for _ in range(20):
        evaluate_many(DistributionKind.F, t, rng.uniform(0, math.pi, 50), rng.uniform(0, 6, 50))
    info = angular._plans.cache_info()
    assert info["misses"] == held["misses"] + 220 and info["hits"] == held["hits"]
    assert info["keys"] == held["keys"] and info["bytes"] == held["bytes"]
    again = evaluate_many(DistributionKind.Q, t, grid.node_thetas, grid.node_phis)
    assert same(again, expected) and angular._plans.cache_info()["hits"] == held["hits"] + 1


def test_plan_keep_rule():
    grid = build_grid(4)
    plan = angular._synthesis_plan(4, grid.node_thetas, grid.node_phis)
    assert angular._keep_plan(plan, angular._PLAN_BYTES)
    assert not angular._keep_plan(plan, angular._PLAN_BYTES + 1)
    single = angular._synthesis_plan(4, np.array([0.3]), np.array([1.0]))
    assert single[2].ndim == 1 and not angular._keep_plan(single, 1)
    scattered = angular._synthesis_plan(4, np.array([0.3, 0.5]), np.array([1.0, 2.0]))
    assert scattered[2].ndim == 2 and not angular._keep_plan(scattered, 1)


def test_entry_refused_by_keep_is_returned_but_not_kept():
    cache = _RankCache(
        lambda n: (np.zeros(n),), max_bytes=800, keep=lambda entry, nbytes: nbytes <= 800
    )
    assert cache(50)[0].shape == (50,)
    assert cache(200)[0].shape == (200,)  # 1600 bytes: over the bound
    info = cache.cache_info()
    assert info["keys"] == (50,) and info["bytes"] == 400 and info["misses"] == 2
    # the default keeps the newest entry whatever its size
    keeping = _RankCache(lambda n: (np.zeros(n),), max_bytes=800)
    keeping(50)
    keeping(200)
    assert keeping.cache_info()["keys"] == (200,)


@pytest.mark.scale
def test_band_two_hundred_plan_is_not_retained(rng):
    # the plan of a band-200 grid at 2s = 200 is about 70 MB and the ring
    # table 65 MB, each far above the 32 MB bound
    ts = 200
    grid = build_grid(ts)
    angular._plans.cache_clear()
    angular._ring_tables.cache_clear()
    _synthesize(rng.normal(size=(ts + 1, 2 * ts + 1)) + 0j, grid.node_thetas, grid.node_phis)
    project(grid, rng.normal(size=grid.n_nodes), ts)
    for cache in (angular._plans, angular._ring_tables):
        info = cache.cache_info()
        assert info["misses"] == 1
        assert info["keys"] == () and info["bytes"] == 0 <= info["max_bytes"] == 32_000_000


@pytest.mark.scale
def test_synthesize_and_project_peak_under_eighty_mb_at_spin_two_hundred(rng):
    # two sets on a band-200 grid, plan and ring table built: the half table
    # is 65 MB; the full signed one made peaks of about 138 MB and 135 MB
    ts = 200
    grid = build_grid(ts)
    a = rng.normal(size=(2, ts + 1, 2 * ts + 1)) + 0j
    values = rng.normal(size=(2, grid.n_nodes))
    for call in (
        lambda: _synthesize(a, grid.node_thetas, grid.node_phis),
        lambda: project(grid, values, ts),
    ):
        angular._plans.cache_clear()
        angular._ring_tables.cache_clear()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 80e6


@pytest.mark.scale
@pytest.mark.parametrize("ts, plan_kept, table_kept", [
    (153, True, True), (154, False, True), (157, False, True), (158, False, False)
])
def test_plan_cache_reach_for_band_two_s_grids(ts, plan_kept, table_kept):
    # a band-2s grid's plan, about 8 (2s)^3 bytes of half table, is kept up
    # to 2s = 153, and its ring table up to 2s = 157
    grid = build_grid(ts)
    angular._plans.cache_clear()
    angular._ring_tables.cache_clear()
    _synthesize(np.zeros((ts + 1, 2 * ts + 1), dtype=complex), grid.node_thetas, grid.node_phis)
    project(grid, np.zeros(grid.n_nodes), ts)
    assert (angular._plans.cache_info()["keys"] != ()) == plan_kept
    assert (angular._ring_tables.cache_info()["keys"] != ()) == table_kept


def singlet_profile_uncached(kind, ts, theta12):
    """singlet_profile's expression with its Legendre column built per call
    from the angles' cosines, as before the column was cached."""
    theta12 = np.asarray(theta12, dtype=float)
    pbar = _norm_legendre_table(ts, np.cos(theta12).reshape(-1), 0)[:, 0]
    k = np.arange(ts + 1)
    odd = 2 * k + 1
    with np.errstate(over="ignore"):
        c2 = distributions._table(kind, ts) ** 2
        coeffs = distributions._finite(kind, ts, (-1.0) ** k * odd * c2)
    vals = (coeffs * np.sqrt(4.0 * math.pi / odd) @ pbar) / (4.0 * math.pi) ** 2
    return float(vals[0]) if theta12.ndim == 0 else vals.reshape(theta12.shape)


PROFILE_ANGLES = {
    "0-d": lambda rng: 0.7,
    "one point": lambda rng: np.array([2.2]),
    "empty": lambda rng: np.zeros(0),
    "[7, 5]": lambda rng: rng.uniform(-7, 7, (7, 5)),
    "721 points": lambda rng: np.deg2rad(np.arange(721) / 2),
    "non-contiguous view": lambda rng: rng.uniform(0, 7, (9, 8))[1::2, ::3].T,
}


@pytest.mark.parametrize("angles", PROFILE_ANGLES)
@pytest.mark.parametrize("ts", [1, 2, 3, 16, 64, 509])
def test_singlet_profile_bytes_equal_uncached_on_miss_and_hit(ts, angles, rng):
    theta12 = PROFILE_ANGLES[angles](rng)
    angular._ring_tables.cache_clear()
    for kind in KINDS:
        expected = singlet_profile_uncached(kind, ts, theta12)
        for _ in range(2):
            got = singlet_profile(kind, ts / 2, theta12)
            assert type(got) is type(expected) and same(got, expected)
    kept = np.size(theta12) > 1
    info = angular._ring_tables.cache_info()
    assert (info["misses"], info["hits"]) == ((1, 5) if kept else (6, 0))


def test_singlet_profile_refusal_unchanged_past_p_overflow():
    theta12 = np.array([0.0, 1.0])
    with pytest.raises(SpinPhaseError) as uncached:
        singlet_profile_uncached(DistributionKind.P, 510, theta12)
    with pytest.raises(type(uncached.value), match=f"^{re.escape(str(uncached.value))}$"):
        singlet_profile(DistributionKind.P, 255, theta12)


def test_singlet_profile_kinds_share_one_read_only_column():
    ts, theta12 = 16, np.deg2rad(np.arange(721) / 2)
    angular._ring_tables.cache_clear()
    for kind in KINDS:
        singlet_profile(kind, ts / 2, theta12)
    info = angular._ring_tables.cache_info()
    assert (info["misses"], info["hits"]) == (1, 2)
    assert info["keys"] == ((ts, 0, theta12.tobytes()),)
    column = _ring_table(ts, theta12, 0)
    assert not column.flags.writeable and _ring_table(ts, theta12, 0) is column
    assert same(column, _norm_legendre_table(ts, np.cos(theta12), 0))
    # the full table on the same angles is its own entry, led by that column
    full = _ring_table(ts, theta12)
    assert full.shape == (ts + 1, ts + 1, 721) and same(full[:, :1], column)


def test_single_point_profiles_keep_no_column(rng):
    # a column per call on one point would fill the cache with entries whose
    # Python overhead its byte count does not see
    theta12 = np.deg2rad(np.arange(721) / 2)
    angular._ring_tables.cache_clear()
    singlet_profile(DistributionKind.Q, 4, theta12)
    held = angular._ring_tables.cache_info()["keys"]
    for angle in rng.uniform(0, 2 * math.pi, 1000):
        singlet_profile(DistributionKind.F, 4, float(angle))
        singlet_profile(DistributionKind.P, 4, [angle])
    assert angular._ring_tables.cache_info()["keys"] == held


def test_profile_column_over_the_bound_is_built_and_not_kept():
    # 201 degrees on 20 000 angles: 32.16 MB of column, past the 32 MB bound
    ts, theta12 = 200, np.linspace(0, 2 * math.pi, 20_000)
    angular._ring_tables.cache_clear()
    got = singlet_profile(DistributionKind.Q, ts / 2, theta12)
    info = angular._ring_tables.cache_info()
    assert info["misses"] == 1 and info["keys"] == () and info["bytes"] == 0
    assert same(got, singlet_profile_uncached(DistributionKind.Q, ts, theta12))


def test_threads_sharing_one_profile_column_get_identical_results():
    ts, theta12 = 12, np.deg2rad(np.arange(721) / 2)
    expected = {kind: singlet_profile_uncached(kind, ts, theta12) for kind in KINDS}
    angular._ring_tables.cache_clear()
    results, errors = [], []

    def work():
        try:
            for i in range(60):
                kind = KINDS[i % 3]
                results.append((kind, singlet_profile(kind, ts / 2, theta12)))
        except Exception as exc:  # a thread's exception would not fail the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads) and not errors
    assert len(results) == 240 and all(same(v, expected[kind]) for kind, v in results)
    info = angular._ring_tables.cache_info()
    assert info["keys"] == ((ts, 0, theta12.tobytes()),) and info["hits"] + info["misses"] == 240
