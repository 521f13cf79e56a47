"""Dimensional analysis as linear algebra, and the subspaces it predicts.

The package computes Buckingham Pi nondimensionalizations in exact rational
arithmetic, estimates active subspaces of scalar models by quadrature-averaged
gradient outer products, and checks numerically that the estimated active
subspace lies inside the dimensional-analysis subspace. A pipe-flow virtual
laboratory (Poiseuille / Colebrook with a critical-Reynolds switch) serves as
the built-in test bed.

A public name loads only its defining module, on first access: the exact layer
(dimensions, pigroups, models) loads no numpy, the numerics layer no model code.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines, in __all__ order
_DEFINED = {
    "dimensions": "DimensionVector QuantityDecl UnitSystem is_dimensionless make_dimension",
    "errors": "EvaluationError ModelError NumericalError",
    "pigroups": "DimensionMatrix PiDecomposition build_dimension_matrix pi_decomposition",
    "quadrature": "QuadratureRule1D TensorGrid gauss_legendre tensor_grid",
    "activesubspace": "SubspaceEstimate active_subspace eigendecompose estimate_C estimate_subspaces "
    "fd_gradient pullback_T",
    "subspace": "InclusionReport SweepResult constancy_directions convergence_sweep inclusion_residual",
    "models": "RE_CRITICAL",
}
_EXPORTS = {name: module for module, names in _DEFINED.items() for name in names.split()}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
