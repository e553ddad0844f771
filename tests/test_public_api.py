"""The package's public surface, pinned name by name."""

import importlib
import math
import os
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import spinphase
from conftest import random_bipartite_density, random_density
from spinphase import DistributionKind as K
from spinphase import DomainError, angular, cli, quadrature
from spinphase.angular import HalfInteger

PUBLIC = [
    "HalfInteger",
    "clebsch_gordan",
    "spherical_harmonic",
    "wigner_d",
    "wigner_D",
    "wigner_D_matrix",
    "tau_matrix",
    "operator_components",
    "operator_from_components",
    "spin_operators",
    "DensityMatrix",
    "BipartiteDensityMatrix",
    "FanoTensorSet",
    "CoupledFanoTensorSet",
    "decompose",
    "reconstruct",
    "decompose_bipartite",
    "reconstruct_bipartite",
    "reduce",
    "is_product",
    "rotate_tensors",
    "singlet_density",
    "singlet_tensors",
    "DistributionKind",
    "SpinCoherentState",
    "coefficient",
    "coefficient_table",
    "coherent_state",
    "q_direct",
    "evaluate",
    "evaluate_many",
    "evaluate_bipartite",
    "evaluate_bipartite_many",
    "classical_spin_vector",
    "expectation",
    "singlet_profile",
    "correlation",
    "correlation_exact",
    "classical_limit_table",
    "SphereGrid",
    "build_grid",
    "integrate",
    "integrate_product",
    "project",
    "SpinPhaseError",
    "DomainError",
    "ValidationError",
    "ConsistencyError",
    "BandLimitError",
]


def test_all_is_the_pinned_list():
    assert spinphase.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_listed_name_resolves(name):
    assert getattr(spinphase, name) is not None


@pytest.mark.parametrize(
    "name", ["harmonic_table", "legendre", "legendre_sequence", "log_factorial"]
)
def test_removed_function_is_absent(name):
    for module in (spinphase, angular):
        assert not hasattr(module, name)
        assert name not in module.__all__


def test_removed_methods_are_absent():
    assert not hasattr(quadrature.SphereGrid, "nodes")
    for method in ("__add__", "__sub__", "__neg__"):
        assert not hasattr(HalfInteger, method)


def test_no_lru_cache_left_for_cg_or_bands():
    from spinphase import distributions, tensor_ops

    assert not hasattr(angular, "_cg_core")
    assert not hasattr(angular, "lru_cache")
    assert not hasattr(tensor_ops, "lru_cache")
    assert not hasattr(distributions, "lru_cache")


def package_caches() -> dict:
    """Every _RankCache a module of the package holds, by its defining name."""
    caches = {}
    for info in pkgutil.iter_modules(spinphase.__path__, "spinphase."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if isinstance(value, angular._RankCache) and value not in caches.values():
                caches[f"{info.name}.{name}"] = value
    return caches


def test_every_cache_is_bounded_and_stays_within_its_bound(tmp_path):
    caches = package_caches()
    assert sorted(caches) == [
        "spinphase.angular._legendre_coefficients",
        "spinphase.angular._plans",
        "spinphase.angular._rank_blocks",
        "spinphase.angular._ring_tables",
        "spinphase.distributions._tables",
        "spinphase.fano._labels",
        "spinphase.tensor_ops._bands",
    ]
    # no other module-level store: a dict, a set or a cache_info object
    # (an lru_cache) outside the seven would hold what they bound
    others = [
        f"{info.name}.{name}"
        for info in pkgutil.iter_modules(spinphase.__path__, "spinphase.")
        for name, value in vars(importlib.import_module(info.name)).items()
        if not name.startswith("__") and not isinstance(value, (type, angular._RankCache))
        and (isinstance(value, (dict, set)) or hasattr(value, "cache_info"))
    ]
    assert others == []
    for name, cache in caches.items():
        assert 0 < cache.max_bytes <= 100_000_000, name
    # the warm_states benchmark's calls, at its spins
    rng = np.random.default_rng(7)
    for ts in (4, 8, 16, 24):
        grid = spinphase.build_grid(ts)
        t = spinphase.decompose(random_density(rng, ts))
        for kind in (K.Q, K.F) + ((K.P,) if ts < 24 else ()):
            spinphase.integrate(grid, spinphase.evaluate_many(kind, t, grid.node_thetas,
                                                              grid.node_phis))
        spinphase.expectation(K.Q, t, spinphase.spin_operators(ts / 2)[2], grid)
        spinphase.reconstruct(spinphase.rotate_tensors(t, 0.3, 1.1, -0.7))
    for ts in (2, 4, 6):
        rho12 = random_bipartite_density(rng, ts, ts)
        t12 = spinphase.decompose_bipartite(rho12)
        spinphase.reduce(rho12, 1)
        spinphase.is_product(t12, 1e-9)
        spinphase.reconstruct_bipartite(t12)
    # the singlet benchmark's calls, at its spins; P correlation is refused
    # from 2s = 14 on
    theta12 = np.deg2rad(np.arange(721) / 2)
    for ts in (2, 4, 8, 12, 16):
        spinphase.singlet_tensors(ts / 2)
        grid = spinphase.build_grid(max(2, ts))
        for kind in K:
            spinphase.singlet_profile(kind, ts / 2, theta12)
            if kind is not K.P or ts < 14:
                spinphase.correlation(kind, ts / 2, [0, 0, 1], [0.6, 0, 0.8], grid)
    cli.main(["singlet", "--kind", "all", "--twice-spin", "16", "--out", str(tmp_path / "p.csv")])
    for name, cache in caches.items():
        info = cache.cache_info()
        assert info["bytes"] <= info["max_bytes"], name
    assert {4, 8, 16, 24} <= set(caches["spinphase.fano._labels"].cache_info()["keys"])


def test_import_loads_no_test_only_dependency():
    # numpy is the one runtime dependency (pyproject.toml); scipy, sympy and
    # mpmath are test oracles, and an import of scipy.linalg alone would cost
    # more than the package's own import
    src = str(Path(spinphase.__file__).resolve().parents[1])
    code = (
        "import sys, spinphase, spinphase.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'sympy', 'mpmath'}))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


# ------------------------------------------------------- the argument rule
#
# Every public integer, spin, angle, kind and operator-array argument is
# checked by one rule: a refusal is a DomainError whose message starts with
# the argument's name (an array entry adds its index) and the refused value.


def _argument_cases():
    t1 = spinphase.decompose(spinphase.DensityMatrix(1, np.eye(3) / 3))
    rho12 = spinphase.BipartiteDensityMatrix(1, 1, np.eye(9) / 9)
    t12 = spinphase.decompose_bipartite(rho12)
    grid = spinphase.build_grid(2)
    a = [0.0, 0.0, 1.0]
    cases = []

    integers = {
        "HalfInteger twice_value": ("twice_value", lambda v: HalfInteger(v)),
        "spherical_harmonic k": ("k", lambda v: spinphase.spherical_harmonic(v, 0, 0.3, 0.2)),
        "spherical_harmonic q": ("q", lambda v: spinphase.spherical_harmonic(1, v, 0.3, 0.2)),
        "tau_matrix k": ("k", lambda v: spinphase.tau_matrix(1, v, 0)),
        "tau_matrix q": ("q", lambda v: spinphase.tau_matrix(1, 1, v)),
        "coefficient k": ("k", lambda v: spinphase.coefficient(K.Q, 1, v)),
        "classical_limit_table k": ("k", lambda v: spinphase.classical_limit_table(K.P, v, [1])),
        "build_grid band_limit": ("band_limit", lambda v: spinphase.build_grid(v)),
        "project k_max": (
            "k_max",
            lambda v: spinphase.project(grid, np.ones(grid.n_nodes), v),
        ),
        "reduce which": ("which", lambda v: spinphase.reduce(rho12, v)),
        "FanoTensorSet.value k": ("k", lambda v: t1.value(v, 0)),
        "FanoTensorSet.value q": ("q", lambda v: t1.value(1, v)),
        "CoupledFanoTensorSet.value k1": ("k1", lambda v: t12.value(v, 0, 0, 0)),
        "CoupledFanoTensorSet.value q1": ("q1", lambda v: t12.value(1, v, 0, 0)),
        "CoupledFanoTensorSet.value k2": ("k2", lambda v: t12.value(0, 0, v, 0)),
        "CoupledFanoTensorSet.value q2": ("q2", lambda v: t12.value(0, 0, 1, v)),
    }
    for label, (name, call) in integers.items():
        for value in (True, 1.0, "1"):
            cases.append(pytest.param(call, name, value, id=f"{label}={value!r}"))

    spins = {
        "HalfInteger.from_value": ("value", lambda v: HalfInteger.from_value(v)),
        "clebsch_gordan s1": ("s1", lambda v: spinphase.clebsch_gordan(v, 0, 1, 0, 0, 0)),
        "wigner_d k": ("k", lambda v: spinphase.wigner_d(v, 0, 0, 0.3)),
        "wigner_D_matrix k": ("k", lambda v: spinphase.wigner_D_matrix(v, 0.1, 0.2, 0.3)),
        "tau_matrix s": ("s", lambda v: spinphase.tau_matrix(v, 0, 0)),
        "operator_from_components s": (
            "s",
            lambda v: spinphase.operator_from_components(v, np.zeros((3, 5))),
        ),
        "spin_operators s": ("s", lambda v: spinphase.spin_operators(v)),
        "DensityMatrix s": ("s", lambda v: spinphase.DensityMatrix(v, np.eye(3) / 3)),
        "BipartiteDensityMatrix s2": (
            "s2",
            lambda v: spinphase.BipartiteDensityMatrix(1, v, np.eye(9) / 9),
        ),
        "FanoTensorSet s": ("s", lambda v: spinphase.FanoTensorSet(v, t1.values)),
        "CoupledFanoTensorSet s1": (
            "s1",
            lambda v: spinphase.CoupledFanoTensorSet(v, 1, t12.values),
        ),
        "singlet_density s": ("s", lambda v: spinphase.singlet_density(v)),
        "singlet_tensors s": ("s", lambda v: spinphase.singlet_tensors(v)),
        "coefficient s": ("s", lambda v: spinphase.coefficient(K.Q, v, 0)),
        "coefficient_table s": ("s", lambda v: spinphase.coefficient_table(K.Q, v)),
        "classical_limit_table s": ("s", lambda v: spinphase.classical_limit_table(K.Q, 0, [v])),
        "coherent_state s": ("s", lambda v: spinphase.coherent_state(v, 0.3, 0.2)),
        "SpinCoherentState s": ("s", lambda v: spinphase.SpinCoherentState(v, 0.3, 0.2)),
        "classical_spin_vector s": (
            "s",
            lambda v: spinphase.classical_spin_vector(K.F, v, 0.3, 0.2),
        ),
        "singlet_profile s": ("s", lambda v: spinphase.singlet_profile(K.Q, v, 0.3)),
        "correlation_exact s": ("s", lambda v: spinphase.correlation_exact(v, a, a)),
        "correlation s": ("s", lambda v: spinphase.correlation(K.Q, v, a, a, grid)),
    }
    for label, (name, call) in spins.items():
        cases.append(pytest.param(call, name, True, id=f"{label}=True"))
    # a Fraction beyond the float range, whose float() overflows
    for label in ("HalfInteger.from_value", "tau_matrix s"):
        name, call = spins[label]
        cases.append(pytest.param(call, name, Fraction(10**400), id=f"{label}=Fraction(10**400)"))

    angles = {
        "spherical_harmonic": (
            ("theta", "phi"),
            lambda x, y: spinphase.spherical_harmonic(1, 1, x, y),
        ),
        "wigner_d": (("beta",), lambda b: spinphase.wigner_d(1, 0, 1, b)),
        "wigner_D": (
            ("alpha", "beta", "gamma"),
            lambda x, y, z: spinphase.wigner_D(1, 0, 1, x, y, z),
        ),
        "wigner_D_matrix": (
            ("alpha", "beta", "gamma"),
            lambda x, y, z: spinphase.wigner_D_matrix(1, x, y, z),
        ),
        "rotate_tensors": (
            ("alpha", "beta", "gamma"),
            lambda x, y, z: spinphase.rotate_tensors(t1, x, y, z),
        ),
        "coherent_state": (("theta", "phi"), lambda x, y: spinphase.coherent_state(1, x, y)),
        "SpinCoherentState": (
            ("theta", "phi"),
            lambda x, y: spinphase.SpinCoherentState(1, x, y),
        ),
        "q_direct": (
            ("theta", "phi"),
            lambda x, y: spinphase.q_direct(spinphase.reconstruct(t1), x, y),
        ),
        "evaluate": (("theta", "phi"), lambda x, y: spinphase.evaluate(K.Q, t1, x, y)),
        "evaluate_many": (
            ("theta", "phi"),
            lambda x, y: spinphase.evaluate_many(K.Q, t1, x, y),
        ),
        "evaluate_bipartite": (
            ("theta1", "phi1", "theta2", "phi2"),
            lambda w, x, y, z: spinphase.evaluate_bipartite(K.Q, t12, w, x, y, z),
        ),
        "evaluate_bipartite_many": (
            ("theta1", "phi1", "theta2", "phi2"),
            lambda w, x, y, z: spinphase.evaluate_bipartite_many(K.Q, t12, w, x, y, z),
        ),
        "classical_spin_vector": (
            ("theta", "phi"),
            lambda x, y: spinphase.classical_spin_vector(K.F, 1, x, y),
        ),
        "singlet_profile": (("theta12",), lambda x: spinphase.singlet_profile(K.Q, 1, x)),
    }
    for label, (names, call) in angles.items():
        for i, name in enumerate(names):
            for shape in ("scalar", "array"):

                def refused(v, i=i, n=len(names), call=call, array=shape == "array"):
                    # the other angles valid scalars; an array holds the value second
                    args = [0.3] * n
                    args[i] = [0.3, v] if array else v
                    return call(*args)

                # a string, bytes or a list of strings is refused before any cast
                strings = ("0.3", b"0.3", ["0.3"]) if shape == "scalar" else ()
                for value in (math.nan, math.inf, -math.inf, *strings):
                    cases.append(
                        pytest.param(refused, name, value, id=f"{label} {name}={value} {shape}")
                    )

    # the functions of scalar angles refuse an array of finite ones
    scalar_only = (
        "spherical_harmonic", "wigner_d", "wigner_D", "wigner_D_matrix",
        "rotate_tensors", "coherent_state", "SpinCoherentState", "q_direct",
    )
    for label in scalar_only:
        names, call = angles[label]
        for i, name in enumerate(names):

            def refused_array(v, i=i, n=len(names), call=call):
                args = [0.3] * n
                args[i] = v
                return call(*args)

            cases.append(pytest.param(refused_array, name, [0.1, 0.2], id=f"{label} {name} array"))

    reals = {
        "is_product tol": ("tol", (math.nan, -1.0, True, "x", 10**400), lambda v: spinphase.is_product(t12, v)),
        "SphereGrid band_limit": ("band_limit", (True, 1.0), lambda v: spinphase.SphereGrid(v)),
    }
    for label, (name, values, call) in reals.items():
        for value in values:
            cases.append(pytest.param(call, name, value, id=f"{label}={value!r:.24}"))

    # direction vectors: a bool or non-finite component is named with its
    # index, a wrong shape or length with the whole vector
    directions = {
        "correlation": lambda a, b: spinphase.correlation(K.Q, 1, a, b, grid),
        "correlation_exact": lambda a, b: spinphase.correlation_exact(1, a, b),
    }
    for label, call in directions.items():
        for name in ("a", "b"):

            def refused_vector(v, name=name, call=call):
                return call(**{"a": a, "b": a, name: v})

            def refused_component(v, name=name, call=call):
                return call(**{"a": a, "b": a, name: [v, 0.0, 0.0]})

            for value in ("abc", [1, 1, 0], [0.0, 1.0]):
                cases.append(pytest.param(refused_vector, name, value, id=f"{label} {name}={value!r}"))
            for value in (True, np.True_, math.nan, np.float32(math.inf), np.float16(math.nan), "1"):
                cases.append(
                    pytest.param(refused_component, name, value, id=f"{label} {name}[0]={value!r}")
                )

    # operator arrays: a non-finite entry is named with its index, its value
    # shown as a plain float, or as a complex where its imaginary part is nonzero
    entries = {
        "operator_components": ("a", (3, 3), lambda v: spinphase.operator_components(v)),
        "operator_from_components": (
            "comps",
            (3, 5),
            lambda v: spinphase.operator_from_components(1, v),
        ),
        "expectation": ("a", (3, 3), lambda v: spinphase.expectation(K.Q, t1, v, grid)),
    }
    # a value numpy cannot convert to complex: a string, a ragged list, an
    # object array holding a string (None in an object array converts to nan,
    # refused by index as above); and strings numpy would parse as numbers,
    # refused before any cast, also as the elements of an object array
    unconvertible = {
        "string": "abc",
        "ragged": [[1, 2], [3]],
        "object": np.array([["abc", 1.0], [0.0, 1.0]], dtype=object),
        "numeric strings": [["0.5", "0"], ["0", "0.5"]],
        "bytes array": np.array([[b"1", b"0"], [b"0", b"1"]]),
        "object numeric strings": np.array([["1", "0"], ["0", "1"]], dtype=object),
        "object bytes": np.array([[1.0, b"0"], [0.0, 1.0]], dtype=object),
    }
    for label, (name, shape, call) in entries.items():
        for value in (math.nan, math.inf, -math.inf, complex(1.0, math.nan)):

            def refused_entry(v, shape=shape, call=call):
                array = np.zeros(shape, dtype=type(v))
                array[1, 2] = v
                return call(array)

            cases.append(pytest.param(refused_entry, name, value, id=f"{label} {name}={value!r}"))
        for what, value in unconvertible.items():
            cases.append(pytest.param(call, name, value, id=f"{label} {name} {what}"))

    # the containers' arrays, and node values that numpy cannot convert or
    # that are not numeric, of the right shape
    n = grid.n_nodes
    arrays = {
        "DensityMatrix": ("matrix", unconvertible, lambda v: spinphase.DensityMatrix(1, v)),
        "CoupledFanoTensorSet": (
            "values",
            unconvertible,
            lambda v: spinphase.CoupledFanoTensorSet(1, 1, v),
        ),
        "integrate": (
            "f",
            {"ragged": [[1, 2], [3]], "None": [None] * n, "string": ["a"] * n,
             "object": np.full(n, None)},
            lambda v: spinphase.integrate(grid, v),
        ),
        "project": (
            "values",
            {"ragged": [[1, 2], [3]], "None": [None] * n, "string": np.full((2, n), "a")},
            lambda v: spinphase.project(grid, v, 2),
        ),
        "integrate_product": (
            "values",
            {"ragged": [[1, 2], [3]], "None": [[None] * n] * n},
            lambda v: spinphase.integrate_product(grid, grid, v),
        ),
    }
    for label, (name, values, call) in arrays.items():
        for what, value in values.items():
            cases.append(pytest.param(call, name, value, id=f"{label} {name} {what}"))

    kinds = {
        "coefficient": lambda k: spinphase.coefficient(k, 1, 0),
        "coefficient_table": lambda k: spinphase.coefficient_table(k, 1),
        "evaluate": lambda k: spinphase.evaluate(k, t1, 0.3, 0.2),
        "evaluate_many": lambda k: spinphase.evaluate_many(k, t1, [0.3], [0.2]),
        "evaluate_bipartite": lambda k: spinphase.evaluate_bipartite(k, t12, 0.3, 0.2, 0.1, 0.4),
        "evaluate_bipartite_many": lambda k: spinphase.evaluate_bipartite_many(
            k, t12, [0.3], [0.2], [0.1], [0.4]
        ),
        "classical_spin_vector": lambda k: spinphase.classical_spin_vector(k, 1, 0.3, 0.2),
        "expectation": lambda k: spinphase.expectation(k, t1, np.eye(3), grid),
        "singlet_profile": lambda k: spinphase.singlet_profile(k, 1, 0.3),
        "correlation": lambda k: spinphase.correlation(k, 1, a, a, grid),
        "classical_limit_table": lambda k: spinphase.classical_limit_table(k, 0, [1]),
    }
    for label, call in kinds.items():
        cases.append(pytest.param(call, "kind", "P", id=f"{label} kind='P'"))
    return cases


@pytest.mark.parametrize("call, name, value", _argument_cases())
def test_refused_argument_is_named_domain_error(call, name, value):
    with pytest.raises(DomainError) as info:
        call(value)
    # an angle inside an array is named with its index, e.g. theta[1]=nan
    message = str(info.value)
    assert re.match(rf"{name}(\[\d+(, \d+)*\])?={re.escape(repr(value))}:", message), message


@pytest.mark.parametrize(
    "value",
    [np.array(["0.3"], dtype=object), np.array([0.3, b"0.3"], dtype=object)],
    ids=["numeric string", "bytes"],
)
def test_text_in_an_object_angle_array_is_refused_by_name(value):
    # numpy would parse either as a number under a forced float dtype
    pattern = rf"^theta={re.escape(repr(value))}: expected a finite angle$"
    with pytest.raises(DomainError, match=pattern):
        angular.require_angle(value, "theta")
    t = spinphase.decompose(spinphase.DensityMatrix(0.5, np.eye(2) / 2))
    with pytest.raises(DomainError, match=r"^theta=array\("):
        spinphase.evaluate_many(K.Q, t, value, np.zeros(value.shape))


def test_numeric_object_arrays_are_still_converted():
    angles = angular.require_angle(np.array([0.3, 1], dtype=object), "theta")
    assert angles.dtype == float and np.array_equal(angles, [0.3, 1.0])
    identity = spinphase.operator_components(np.eye(2, dtype=object))
    assert np.array_equal(identity, spinphase.operator_components(np.eye(2)))


@pytest.mark.parametrize("value", [np.float32(0.75), np.float16(0.75), np.float64(0.75)], ids=repr)
def test_numpy_floats_are_real_arguments_without_warning(value):
    # judged as a float: no bound is cast down to float32 or float16, which
    # would overflow and warn (a RuntimeWarning fails the suite)
    assert angular.require_real(value, "x") == 0.75
    assert angular.require_real(value, "x", 0.75) == 0.75
    unit = type(value)(1.0)
    grid = spinphase.build_grid(2)
    assert spinphase.correlation(K.Q, 1, [unit, 0, 0], [0.0, 0.0, 1.0], grid) == (
        spinphase.correlation(K.Q, 1, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], grid)
    )


@pytest.mark.parametrize(
    "value",
    [True, np.bool_(False), math.nan, math.inf, -math.inf, 10**400, -(10**400),
     np.float32(math.inf), np.float16(-math.inf), np.float32(math.nan)],
    ids=repr,
)
def test_require_real_refuses_non_finite_and_beyond_float(value):
    with pytest.raises(DomainError, match=r"^x=.*: expected a finite real$"):
        angular.require_real(value, "x")
