"""Sphere phase-space distributions for single and bipartite spin systems.

Multipole decomposition of spin density matrices, the P/Q/F distributions
built on it, deterministic spherical quadrature, and the singlet-state
correlation results, with a small CLI front end (`spinphase`).

The public names are each module's __all__, re-exported here in one list.
"""

from . import angular, distributions, errors, fano, quadrature, tensor_ops
from .angular import *  # noqa: F403
from .distributions import *  # noqa: F403
from .errors import *  # noqa: F403
from .fano import *  # noqa: F403
from .quadrature import *  # noqa: F403
from .tensor_ops import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *angular.__all__,
    *tensor_ops.__all__,
    *fano.__all__,
    *distributions.__all__,
    *quadrature.__all__,
    *errors.__all__,
]
