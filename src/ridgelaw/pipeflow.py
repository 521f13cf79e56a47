"""Viscous pipe flow virtual laboratory.

Bulk velocity through a rough circular pipe under a pressure gradient:
Poiseuille's law below the critical Reynolds number, the explicit
Colebrook-derived formula above it. The regime selector evaluates the
turbulent velocity, computes its Reynolds number, and branches on the
critical value; the branch is a hard switch, not a blend. The law is
written once, in Pi form (PIPE_LAW): five monomial terms and one combine
step, so a finite-difference shift of a log input only rescales terms.

The quantities (rho, mu, D, eps, dPdL), their units and their ranges are
declared once, in the shipped model files pipeflow_laminar.json and
pipeflow_turbulent.json; the model function reads its input columns in
that order, which the loader enforces for every file naming a builtin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterator, List, Sequence, Tuple

import numpy as np

from .defaults import RE_CRITICAL
from .dimensions import DimensionVector
from .errors import ModelError
from .models import ModelSpec, load_model
from .pigroups import PiDecomposition
from .quadrature import TensorGrid, tensor_grid

# expected active-subspace dimension of each built-in model (a shipped model file)
_ACTIVE_DIM = {"pipeflow_laminar": 1, "pipeflow_turbulent": 3}


# The pipe law in Pi form. Each term is a monomial in the inputs,
# exp(log_coef + sum_i e_i log q_i) over q = (rho, mu, D, eps, dPdL); the last
# field is the term's dimension as a power of the QoI's, which bind_builtin
# checks exactly against the model file. A shift of log q_i by h rescales
# each term by the scalar exp(h e_i).
PIPE_LAW = (
    # name, log coefficient, exponents, dimension as a power of V's
    ("P", 0.5 * math.log(2.0), (-0.5, 0.0, 0.5, 0.0, 0.5), 1),  # sqrt(2 D dPdL / rho)
    ("t1", -math.log(3.7), (0.0, 0.0, -1.0, 1.0, 0.0), 0),  # eps / (3.7 D)
    # 2.51 mu D^-3/2 (2 rho dPdL)^-1/2
    ("t2", math.log(2.51) - 0.5 * math.log(2.0), (-0.5, 1.0, -1.5, 0.0, -0.5), 0),
    ("v_lam", -math.log(32.0), (0.0, -1.0, 2.0, 0.0, 1.0), 1),  # dPdL D^2 / (32 mu)
    ("Re/v", 0.0, (1.0, -1.0, 1.0, 0.0, 0.0), -1),  # rho D / mu
)


def _terms(x) -> List[np.ndarray]:
    """The law's terms at log inputs x: an (n, 5) array of rows, or one point.

    The exponent sum runs elementwise in a fixed order, so a row gives the
    same bits alone as in a block.
    """
    cols = np.ascontiguousarray(np.asarray(x, dtype=float).T)
    terms = []
    for _, log_coef, exponents, _ in PIPE_LAW:
        s = log_coef
        for e, col in zip(exponents, cols):
            if e:
                s = s + e * col
        terms.append(np.exp(s))
    return terms


def combine(terms: Sequence[np.ndarray], re_critical: float):
    """Velocity and turbulent mask from the terms (P, t1, t2, v_lam, Re/v).

    V = -2 P log10(t1 + t2), the Colebrook-derived velocity, where its
    Reynolds number (Re/v) V exceeds re_critical, else Poiseuille's v_lam.
    """
    P, t1, t2, v_lam, re_per_v = terms
    v_tur = np.log10(t1 + t2)
    v_tur *= P
    v_tur *= -2.0  # exact, so the same bits as -2 P log10(t1 + t2)
    turbulent = re_per_v * v_tur > re_critical
    return np.where(turbulent, v_tur, v_lam), turbulent


@lru_cache(maxsize=None)
def _check_law(dims: Tuple[DimensionVector, ...], qoi: DimensionVector, law) -> None:
    """Raise unless each term's exponents e give D e = power * v(QoI), in exact rationals.

    dims are the dimension vectors of the quantities, in exponent order; a
    float exponent converts to a rational without rounding. The table is an
    argument so that the cache key covers it.
    """
    units = qoi.system.unit_names

    def show(exponents):
        return {label: str(x) for label, x in zip(units, exponents) if x} or "dimensionless"

    for name, _, exponents, power in law:
        got = [sum(Fraction(e) * d.exponents[u] for e, d in zip(exponents, dims)) for u in range(len(units))]
        want = [power * x for x in qoi.exponents]
        if got != want:
            raise ModelError(f"pipe law term {name!r} has dimension {show(got)}, expected {show(want)}")


def evaluate_state(rho, mu, diam, eps, dpdl, re_critical: float = RE_CRITICAL):
    """V, Re and f of one pipe state and its regime, from one evaluation of the law.

    The state is rho (kg/m^3), mu (kg/(m s)), diam and eps (m) and dpdl
    (kg/(m^2 s^2)), each positive and eps below diam, else ModelError.
    Returns ({"V": V, "Re": rho V D / mu, "f": dPdL D / (rho V^2 / 2)}, regime)
    in numpy doubles: a value past the double range is 0 or inf, and nothing
    raises. Re and f are left out unless 0 < V < inf.
    """
    q = [float(x) for x in (rho, mu, diam, eps, dpdl)]
    for name, value in zip(("rho", "mu", "diam", "eps", "dpdl"), q):
        if not value > 0.0:
            raise ModelError(f"pipe state field {name!r} must be positive, got {value}")
    rho, mu, diam, eps, dpdl = q
    if not eps < diam:
        raise ModelError(f"relative roughness must be below 1: eps = {eps}, diam = {diam}")
    with np.errstate(all="ignore"):
        v, turbulent = combine(_terms(np.log(q)), re_critical)
        v = v[()]  # the 0-d array's numpy double
        numbers = {"V": v}
        if 0.0 < v < np.inf:
            # divide by V twice rather than by V^2, which overflows for V above ~1e154
            numbers.update(Re=rho * v * diam / mu, f=dpdl / v * diam / (0.5 * rho * v))
    return numbers, "turbulent" if turbulent else "laminar"


@dataclass(frozen=True)
class LogSpaceVelocity:
    """Bulk velocity as a function of log quantities: one value per row of x, or for one point."""

    re_critical: float = RE_CRITICAL

    def __call__(self, x):
        return combine(_terms(x), self.re_critical)[0]

    def fd_values(self, Y: np.ndarray, steps: Sequence[float]) -> Iterator[np.ndarray]:
        """f(Y), then f(Y + h e_i) for each step h and dimension i, in that order.

        f(Y) is the one full evaluation (a call of the model); each shift
        then multiplies the terms at Y that depend on dimension i by the
        scalar exp(h e_i) and combines again, with no exp or sqrt over the
        rows.
        """
        yield self(Y)
        terms = _terms(Y)
        for h in steps:
            for i in range(Y.shape[1]):
                shifted = [
                    t * np.exp(h * exponents[i]) if exponents[i] else t
                    for t, (_, _, exponents, _) in zip(terms, PIPE_LAW)
                ]
                yield combine(shifted, self.re_critical)[0]


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


def bind_builtin(spec: ModelSpec, re_critical: float = RE_CRITICAL) -> BuiltinModel:
    """Bind a loaded model file to the built-in function its 'builtin' field names."""
    if spec.builtin is None:
        raise ModelError(
            f"model {spec.name!r} declares no built-in function; "
            "only pi-group analysis is available for it"
        )
    _check_law(tuple(q.dimension for q in spec.quantities), spec.qoi, PIPE_LAW)
    return BuiltinModel(
        spec=spec,
        f=LogSpaceVelocity(re_critical=re_critical),
        active_dim=_ACTIVE_DIM[spec.builtin],
    )


def builtin_model(model: str, re_critical: float = RE_CRITICAL) -> BuiltinModel:
    """A shipped model name or a model file naming a builtin, bound to its function."""
    return bind_builtin(load_model(model), re_critical)
