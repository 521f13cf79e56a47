"""Viscous pipe flow virtual laboratory.

Bulk velocity through a rough circular pipe under a pressure gradient:
Poiseuille's law below the critical Reynolds number, the explicit
Colebrook-derived formula above it. The regime selector evaluates the
turbulent velocity, computes its Reynolds number, and branches on the
critical value; the branch is a hard switch, not a blend.

Quantity ordering is fixed as (rho, mu, D, eps, dPdL) over the fundamental
units (kg, m, s), so the emitted dimension matrix and pi groups line up
with the classical presentation of this system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .dimensions import QuantityDecl, UnitSystem, make_dimension
from .errors import ModelError, NumericalError
from .pigroups import PiDecomposition, pi_decomposition
from .quadrature import TensorGrid, tensor_grid

RE_CRITICAL = 3.0e3

PIPE_UNITS = UnitSystem(("kg", "m", "s"))
QUANTITY_NAMES = ("rho", "mu", "D", "eps", "dPdL")

# per-quantity (lo, hi) bounds in the quantity's own units
_LAMINAR_BOUNDS = (
    (1.0e-1, 1.4e-1),  # rho, kg/m^3
    (1.0e-6, 1.0e-5),  # mu, kg/(m s)
    (1.0e-1, 1.0e0),   # D, m
    (1.0e-3, 1.0e-1),  # eps, m
    (1.0e-9, 1.0e-7),  # dPdL, kg/(m^2 s^2)
)
_TURBULENT_BOUNDS = _LAMINAR_BOUNDS[:4] + ((1.0e-1, 1.0e1),)


@dataclass(frozen=True)
class RegimeTable:
    """Named parameter box: five (lo, hi) pairs in quantity order."""

    name: str
    bounds: Tuple[Tuple[float, float], ...]


LAMINAR_TABLE = RegimeTable("laminar", _LAMINAR_BOUNDS)
TURBULENT_TABLE = RegimeTable("turbulent", _TURBULENT_BOUNDS)


@dataclass(frozen=True)
class PipeState:
    """One pipe configuration; all fields strictly positive, eps < diam."""

    rho: float   # fluid density, kg/m^3
    mu: float    # dynamic viscosity, kg/(m s)
    diam: float  # pipe diameter, m
    eps: float   # wall roughness, m
    dpdl: float  # pressure gradient, kg/(m^2 s^2)

    def __post_init__(self):
        for field_name in ("rho", "mu", "diam", "eps", "dpdl"):
            value = float(getattr(self, field_name))
            if not value > 0.0:
                raise ModelError(f"pipe state field {field_name!r} must be positive, got {value}")
            object.__setattr__(self, field_name, value)
        if not self.eps < self.diam:
            raise ModelError(
                f"relative roughness must be below 1: eps = {self.eps}, diam = {self.diam}"
            )


def _v_laminar(mu, diam, dpdl):
    return dpdl * diam * diam / (32.0 * mu)


def _v_turbulent(rho, mu, diam, eps, dpdl):
    prefactor = -2.0 * np.sqrt(dpdl * 2.0 * diam / rho)
    log_arg = eps / (3.7 * diam) + 2.51 * mu / diam**1.5 * np.sqrt(1.0 / (2.0 * rho * dpdl))
    return prefactor * np.log10(log_arg)


def _bulk_velocity(rho, mu, diam, eps, dpdl, re_critical):
    v_tur = _v_turbulent(rho, mu, diam, eps, dpdl)
    re_tur = rho * v_tur * diam / mu
    return np.where(re_tur > re_critical, v_tur, _v_laminar(mu, diam, dpdl))


def v_laminar(s: PipeState) -> float:
    """Bulk velocity from Poiseuille's law: dPdL * D^2 / (32 mu)."""
    return float(_v_laminar(s.mu, s.diam, s.dpdl))


def v_turbulent(s: PipeState) -> float:
    """Bulk velocity from the explicit Colebrook form.

    Raises when the logarithm's argument reaches 1, where the formula stops
    describing a physical (positive) velocity; the regime selector never
    routes such states here.
    """
    v = float(_v_turbulent(s.rho, s.mu, s.diam, s.eps, s.dpdl))
    if not v > 0.0:
        raise NumericalError(
            f"turbulent velocity formula out of validity (v = {v}); "
            "the log argument is >= 1 for this state"
        )
    return v


def reynolds(s: PipeState, velocity: float) -> float:
    """Reynolds number rho * V * D / mu."""
    if velocity < 0.0:
        raise ModelError(f"Reynolds number needs a non-negative velocity, got {velocity}")
    return s.rho * velocity * s.diam / s.mu


def friction_factor(s: PipeState, velocity: float) -> float:
    """Darcy friction factor dPdL * D / (rho V^2 / 2)."""
    if not velocity > 0.0:
        raise ModelError(f"friction factor needs a positive velocity, got {velocity}")
    return s.dpdl * s.diam / (0.5 * s.rho * velocity * velocity)


def bulk_velocity(s: PipeState, re_critical: float = RE_CRITICAL) -> float:
    """Regime-selected velocity: turbulent iff Re evaluated at v_tur exceeds re_critical."""
    return float(_bulk_velocity(s.rho, s.mu, s.diam, s.eps, s.dpdl, re_critical))


def flow_regime(s: PipeState, re_critical: float = RE_CRITICAL) -> str:
    """Which branch bulk_velocity takes for this state."""
    v_tur = float(_v_turbulent(s.rho, s.mu, s.diam, s.eps, s.dpdl))
    return "turbulent" if s.rho * v_tur * s.diam / s.mu > re_critical else "laminar"


@dataclass(frozen=True)
class LogSpaceVelocity:
    """Bulk velocity as a function of log quantities, vectorized over rows."""

    re_critical: float = RE_CRITICAL

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        q = np.exp(x)
        if q.ndim == 1:
            return float(_bulk_velocity(q[0], q[1], q[2], q[3], q[4], self.re_critical))
        return _bulk_velocity(q[:, 0], q[:, 1], q[:, 2], q[:, 3], q[:, 4], self.re_critical)


def pipe_quantities(table: RegimeTable) -> Tuple[QuantityDecl, ...]:
    """The five pipe quantities with dimensions and the table's ranges."""
    dims = {
        "rho": [("kg", 1), ("m", -3)],
        "mu": [("kg", 1), ("m", -1), ("s", -1)],
        "D": [("m", 1)],
        "eps": [("m", 1)],
        "dPdL": [("kg", 1), ("m", -2), ("s", -2)],
    }
    return tuple(
        QuantityDecl(
            name=name,
            dimension=make_dimension(PIPE_UNITS, dims[name]),
            range_lo=lo,
            range_hi=hi,
        )
        for name, (lo, hi) in zip(QUANTITY_NAMES, table.bounds)
    )


def velocity_dimension():
    """Dimension vector of the bulk velocity (the quantity of interest)."""
    return make_dimension(PIPE_UNITS, [("m", 1), ("s", -1)])


@dataclass(frozen=True)
class BuiltinModel:
    """A regime table bundled with its log-space model function and pi groups."""

    name: str
    table: RegimeTable
    f: Callable
    log_bounds: Tuple[Tuple[float, float], ...]
    decomposition: PiDecomposition
    active_dim: int  # expected active-subspace dimension for this regime

    def grid(self, quad_order: int) -> TensorGrid:
        return tensor_grid(quad_order, self.log_bounds)


_REGIME_ALIASES = {
    "laminar": "laminar",
    "turbulent": "turbulent",
    "pipeflow_laminar": "laminar",
    "pipeflow_turbulent": "turbulent",
}


def builtin_model(regime: str, re_critical: float = RE_CRITICAL) -> BuiltinModel:
    """Built-in pipe-flow model for a regime id ('laminar' or 'turbulent')."""
    try:
        name = _REGIME_ALIASES[regime]
    except KeyError:
        raise ModelError(
            f"unknown built-in model {regime!r}; "
            f"expected one of {sorted(set(_REGIME_ALIASES))}"
        ) from None
    table = LAMINAR_TABLE if name == "laminar" else TURBULENT_TABLE
    quantities = pipe_quantities(table)
    decomposition = pi_decomposition(quantities, velocity_dimension())
    log_bounds = tuple((np.log(lo), np.log(hi)) for lo, hi in table.bounds)
    return BuiltinModel(
        name=f"pipeflow_{name}",
        table=table,
        f=LogSpaceVelocity(re_critical=re_critical),
        log_bounds=log_bounds,
        decomposition=decomposition,
        active_dim=1 if name == "laminar" else 3,
    )
