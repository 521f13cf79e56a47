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
The tests, not binding, check each PIPE_LAW term's dimension against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, List, Optional, Sequence

import numpy as np

from .defaults import RE_CRITICAL
from .errors import ModelError
from .models import ModelSpec, load_model
from .pigroups import PiDecomposition
from .quadrature import TensorGrid, tensor_grid

# expected active-subspace dimension of each built-in model (a shipped model file)
_ACTIVE_DIM = {"pipeflow_laminar": 1, "pipeflow_turbulent": 3}


# The pipe law in Pi form. Each term is a monomial in the inputs,
# exp(log_coef + sum_i e_i log q_i) over q = (rho, mu, D, eps, dPdL); the last
# field is the term's dimension as a power of the QoI's, which the tests check
# exactly against the shipped model files. A shift of log q_i by h rescales
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

# the exponent table, one row per term, and for each input the terms whose exponent on it is nonzero
_EXPONENTS = np.array([law[2] for law in PIPE_LAW])
_MOVING = tuple(tuple(np.flatnonzero(column).tolist()) for column in _EXPONENTS.T)


def _terms(x) -> List[np.ndarray]:
    """The law's terms at log inputs x: an (n, 5) array of rows, or one point.

    The exponent sum runs elementwise in a fixed order, so a row gives the
    same bits alone as in a block. An exponent of +-1 adds or subtracts its
    column without the multiply, which gives the same bits.
    """
    cols = np.ascontiguousarray(np.asarray(x, dtype=float).T)
    terms = []
    for _, log_coef, exponents, _ in PIPE_LAW:
        s = None
        for e, col in zip(exponents, cols):
            if not e:
                continue
            if s is None:  # a 0-d array for one point, so that exp can run in place
                s = np.asarray(log_coef + col if e == 1.0 else log_coef - col if e == -1.0 else log_coef + e * col)
            elif e == 1.0:
                s += col
            elif e == -1.0:
                s -= col
            else:
                s += e * col
        terms.append(np.exp(s, out=s))
    return terms


def combine(terms: Sequence[np.ndarray], re_critical: float, out: Optional[np.ndarray] = None):
    """Velocity and turbulent mask from the terms (P, t1, t2, v_lam, Re/v).

    V = -2 P log10(t1 + t2), the Colebrook-derived velocity, where its
    Reynolds number (Re/v) V exceeds re_critical, else Poiseuille's v_lam.
    V is written into out when given; one point gives a 0-d V.
    """
    P, t1, t2, v_lam, re_per_v = terms
    v = np.add(t1, t2, out=np.empty(np.shape(t1)) if out is None else out)
    np.log10(v, out=v)
    v *= P
    v *= -2.0  # exact, so the same bits as -2 P log10(t1 + t2)
    turbulent = re_per_v * v > re_critical
    np.copyto(v, v_lam, where=~turbulent)
    return v, turbulent


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
        rows. The shifted values share one buffer: each is valid until the
        next one is requested, so a caller that keeps one copies it.
        """
        yield self(Y)
        terms = _terms(Y)
        m = Y.shape[1]
        # every exp(h e_i) of every step, with the bits of the scalar np.exp(h * e_i)
        scales = np.exp(np.multiply.outer(np.asarray(steps, dtype=float), _EXPONENTS[:, :m]))
        buffers = [np.empty_like(t) for t in terms]
        values = np.empty(Y.shape[0])
        for scale in scales:
            for i in range(m):
                shifted = list(terms)
                for j in _MOVING[i]:
                    shifted[j] = np.multiply(terms[j], scale[j, i], out=buffers[j])
                yield combine(shifted, self.re_critical, out=values)[0]


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
    return BuiltinModel(
        spec=spec,
        f=LogSpaceVelocity(re_critical=re_critical),
        active_dim=_ACTIVE_DIM[spec.builtin],
    )


def builtin_model(model: str, re_critical: float = RE_CRITICAL) -> BuiltinModel:
    """A shipped model name or a model file naming a builtin, bound to its function."""
    return bind_builtin(load_model(model), re_critical)
