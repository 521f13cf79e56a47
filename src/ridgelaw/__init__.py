"""Dimensional analysis as linear algebra, and the subspaces it predicts.

The package computes Buckingham Pi nondimensionalizations in exact rational
arithmetic, estimates active subspaces of scalar models by quadrature-averaged
gradient outer products, and checks numerically that the estimated active
subspace lies inside the dimensional-analysis subspace. A pipe-flow virtual
laboratory (Poiseuille / Colebrook with a critical-Reynolds switch) serves as
the built-in test bed.
"""

__version__ = "0.1.0"

from .dimensions import (
    DimensionVector,
    QuantityDecl,
    UnitSystem,
    is_dimensionless,
    make_dimension,
)
from .errors import EvaluationError, ModelError, NumericalError
from .pigroups import (
    DimensionMatrix,
    PiDecomposition,
    build_dimension_matrix,
    pi_decomposition,
)
from .quadrature import QuadratureRule1D, TensorGrid, gauss_legendre, tensor_grid
from .ridge import constancy_directions
from .activesubspace import (
    SubspaceEstimate,
    active_subspace,
    eigendecompose,
    estimate_C,
    estimate_subspace,
    estimate_subspaces,
    fd_gradient,
    pullback_T,
)
from .subspace import InclusionReport, SweepResult, convergence_sweep, inclusion_residual
from .pipeflow import (
    RE_CRITICAL,
    PipeState,
    builtin_model,
    bulk_velocity,
    friction_factor,
    reynolds,
)

__all__ = [
    "__version__",
    "DimensionVector",
    "QuantityDecl",
    "UnitSystem",
    "is_dimensionless",
    "make_dimension",
    "EvaluationError",
    "ModelError",
    "NumericalError",
    "DimensionMatrix",
    "PiDecomposition",
    "build_dimension_matrix",
    "pi_decomposition",
    "QuadratureRule1D",
    "TensorGrid",
    "gauss_legendre",
    "tensor_grid",
    "constancy_directions",
    "SubspaceEstimate",
    "active_subspace",
    "eigendecompose",
    "estimate_C",
    "estimate_subspace",
    "estimate_subspaces",
    "fd_gradient",
    "pullback_T",
    "InclusionReport",
    "SweepResult",
    "convergence_sweep",
    "inclusion_residual",
    "RE_CRITICAL",
    "PipeState",
    "builtin_model",
    "bulk_velocity",
    "friction_factor",
    "reynolds",
]
