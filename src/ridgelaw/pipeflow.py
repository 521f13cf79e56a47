"""Viscous pipe flow virtual laboratory.

Bulk velocity through a rough circular pipe under a pressure gradient:
Poiseuille's law below the critical Reynolds number, the explicit
Colebrook-derived formula above it. The regime selector evaluates the
turbulent velocity, computes its Reynolds number, and branches on the
critical value; the branch is a hard switch, not a blend.

The quantities (rho, mu, D, eps, dPdL), their units and their ranges are
declared once, in the shipped model files pipeflow_laminar.json and
pipeflow_turbulent.json; the model function reads its input columns in
that order, which the loader enforces for every file naming a builtin.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ModelError
from .models import ModelSpec, load_model
from .pigroups import PiDecomposition
from .quadrature import TensorGrid, tensor_grid

RE_CRITICAL = 3.0e3

# expected active-subspace dimension of each built-in model (a shipped model
# file); 'laminar' and 'turbulent' are short ids for them
_ACTIVE_DIM = {"pipeflow_laminar": 1, "pipeflow_turbulent": 3}


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
    """Bulk velocity as a function of log quantities: one value per row of x, or for one point."""

    re_critical: float = RE_CRITICAL

    def __call__(self, x):
        rho, mu, diam, eps, dpdl = np.exp(np.asarray(x, dtype=float)).T
        return _bulk_velocity(rho, mu, diam, eps, dpdl, self.re_critical)


@dataclass(frozen=True)
class BuiltinModel:
    """A model file bound to the built-in velocity function it names."""

    spec: ModelSpec
    f: Callable
    active_dim: int  # expected active-subspace dimension for this regime

    @property
    def name(self) -> str:
        return self.spec.builtin

    @cached_property
    def decomposition(self) -> PiDecomposition:
        return self.spec.decomposition()

    def grid(self, quad_order: int) -> TensorGrid:
        return tensor_grid(quad_order, self.spec.log_bounds())


def shipped_id(model_id: str) -> str:
    """'pipeflow_laminar' for the short id 'laminar', likewise 'turbulent'; others unchanged."""
    long_id = f"pipeflow_{model_id}"
    return long_id if long_id in _ACTIVE_DIM else model_id


def bind_builtin(spec: ModelSpec, re_critical: float = RE_CRITICAL) -> BuiltinModel:
    """Bind a loaded model file to the built-in function its 'builtin' field names."""
    if spec.builtin is None:
        raise ModelError(
            f"model {spec.name!r} declares no built-in function; "
            "only pi-group analysis is available for it"
        )
    return BuiltinModel(
        spec=spec,
        f=LogSpaceVelocity(re_critical=re_critical),
        active_dim=_ACTIVE_DIM[spec.builtin],
    )


def builtin_model(regime: str, re_critical: float = RE_CRITICAL) -> BuiltinModel:
    """Built-in pipe-flow model: 'laminar' or 'turbulent', or its shipped id 'pipeflow_<regime>'."""
    model_id = shipped_id(regime)
    if model_id not in _ACTIVE_DIM:
        raise ModelError(
            f"unknown built-in model {regime!r}; expected one of "
            f"{sorted(_ACTIVE_DIM)}, with or without the 'pipeflow_' prefix"
        )
    return bind_builtin(load_model(model_id), re_critical)
