"""The package's public surface, pinned name by name."""

import pytest

import spinphase
from spinphase import angular, quadrature
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
