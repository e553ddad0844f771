"""The package's public surface, pinned name by name."""

import math
import re

import numpy as np
import pytest

import spinphase
from spinphase import DistributionKind as K
from spinphase import DomainError, angular, quadrature
from spinphase.angular import HalfInteger

PUBLIC = [
    "HalfInteger",
    "log_factorial",
    "clebsch_gordan",
    "legendre_sequence",
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
    "DirectionVector",
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


@pytest.mark.parametrize("name", ["harmonic_table", "legendre"])
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


# ------------------------------------------------------- the argument rule
#
# Every public integer, spin, angle and kind argument is checked by one rule:
# a refusal is a DomainError whose message starts with the argument's name
# (an array entry adds its index) and the refused value.


def _argument_cases():
    t1 = spinphase.decompose(spinphase.DensityMatrix(1, np.eye(3) / 3))
    rho12 = spinphase.BipartiteDensityMatrix(1, 1, np.eye(9) / 9)
    t12 = spinphase.decompose_bipartite(rho12)
    grid = spinphase.build_grid(2)
    a = [0.0, 0.0, 1.0]
    amps = spinphase.coherent_state(1, 0.3, 0.2).amplitudes
    cases = []

    integers = {
        "log_factorial n": ("n", lambda v: spinphase.log_factorial(v)),
        "HalfInteger twice_value": ("twice_value", lambda v: HalfInteger(v)),
        "legendre_sequence k_max": ("k_max", lambda v: spinphase.legendre_sequence(v, 0.5)),
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
        "SpinCoherentState s": ("s", lambda v: spinphase.SpinCoherentState(v, 0.3, 0.2, amps)),
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
            lambda x, y: spinphase.SpinCoherentState(1, x, y, amps),
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

                for value in (math.nan, math.inf, -math.inf):
                    cases.append(
                        pytest.param(refused, name, value, id=f"{label} {name}={value} {shape}")
                    )

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
