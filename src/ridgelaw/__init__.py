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
    combine,
    is_dimensionless,
    make_dimension,
)
from .errors import EvaluationError, ModelError, NumericalError
from .pigroups import (
    DimensionMatrix,
    PiDecomposition,
    assemble_A,
    build_dimension_matrix,
    null_space_basis,
    pi_decomposition,
    pi_values,
    rank_exact,
    solve_particular,
)
from .quadrature import QuadratureRule1D, TensorGrid, gauss_legendre, tensor_grid
from .ridge import RidgeModel, SemiEmpiricalModel, constancy_directions, ridge_eval, semi_empirical_eval
from .activesubspace import (
    GradientConfig,
    SubspaceEstimate,
    active_subspace,
    eigendecompose,
    estimate_C,
    estimate_subspace,
    estimate_subspaces,
    fd_gradient,
    pullback_T,
)
from .subspace import InclusionReport, SweepResult, convergence_sweep, inclusion_residual, spaces_equal
from .pipeflow import (
    LAMINAR_TABLE,
    RE_CRITICAL,
    TURBULENT_TABLE,
    PipeState,
    builtin_model,
    bulk_velocity,
    friction_factor,
    reynolds,
    v_laminar,
    v_turbulent,
)

__all__ = [
    "__version__",
    "DimensionVector",
    "QuantityDecl",
    "UnitSystem",
    "combine",
    "is_dimensionless",
    "make_dimension",
    "EvaluationError",
    "ModelError",
    "NumericalError",
    "DimensionMatrix",
    "PiDecomposition",
    "assemble_A",
    "build_dimension_matrix",
    "null_space_basis",
    "pi_decomposition",
    "pi_values",
    "rank_exact",
    "solve_particular",
    "QuadratureRule1D",
    "TensorGrid",
    "gauss_legendre",
    "tensor_grid",
    "RidgeModel",
    "SemiEmpiricalModel",
    "constancy_directions",
    "ridge_eval",
    "semi_empirical_eval",
    "GradientConfig",
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
    "spaces_equal",
    "LAMINAR_TABLE",
    "RE_CRITICAL",
    "TURBULENT_TABLE",
    "PipeState",
    "builtin_model",
    "bulk_velocity",
    "friction_factor",
    "reynolds",
    "v_laminar",
    "v_turbulent",
]
