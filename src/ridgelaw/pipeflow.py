"""Viscous pipe flow virtual laboratory.

Bulk velocity through a rough circular pipe under a pressure gradient:
Poiseuille's law below the critical Reynolds number, the explicit
Colebrook-derived formula above it. The regime selector evaluates the
turbulent velocity, computes its Reynolds number, and branches on the
critical value; the branch is a hard switch, not a blend. The law is
written once, in Pi form (PIPE_LAW): five monomials from one matrix product
in log space and one combine step, so a shift of a log input rescales terms.

The quantities (rho, mu, D, eps, dPdL), their units and their ranges are
declared once, in the shipped model files pipeflow_laminar.json and
pipeflow_turbulent.json; the model function reads its input columns in
that order, which the loader enforces for every file naming a builtin.
The tests, not binding, check each PIPE_LAW term's dimension against them.
``active_dim`` reads k off the law's exponent rows, given the count of points
routed turbulent that ``LogSpaceVelocity.fd_values`` returns from the pass.
``BuiltinModel.decomposition`` computes the model file's exact Pi decomposition,
once per bound model, through this module's ``pi_decomposition`` binding.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Generator, Sequence

import numpy as np

from ._value import Value
from .errors import ModelError
from .models import RE_CRITICAL, ModelSpec, check_builtin_id
from .pigroups import PiDecomposition, build_dimension_matrix, pi_decomposition
from .quadrature import TensorGrid, tensor_grid


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

# the exponent table, one row per term and one column per input, and the log coefficients
_EXPONENTS = np.array([law[2] for law in PIPE_LAW])
_LOG_COEFS = np.array([law[1] for law in PIPE_LAW])

# the inputs grouped by how a shift scales t1 and t2: a group shares one log10(t1 + t2) per step
_LOG_GROUPS = tuple(
    [i for i, e in enumerate(zip(_EXPONENTS[1], _EXPONENTS[2])) if e == key]
    for key in dict.fromkeys(zip(_EXPONENTS[1], _EXPONENTS[2]))
)


def active_dim(turbulent: int, points: int) -> int:
    """k where turbulent of a box's points route turbulent: the rank of the exponent rows the branches read."""
    # the turbulent branch reads P, t1 and t2; the laminar one v_lam, whose row is P's minus t2's
    read = ([0, 1, 2] if turbulent else []) + ([3] if turbulent < points else [])
    return int(np.linalg.matrix_rank(_EXPONENTS[read]))


def _terms(x) -> np.ndarray:
    """The law's terms exp(E log q + c) at log inputs x: (n, 5) rows give (5, n), one point (5,).

    Any other shape is a ModelError. The exponent sums are one BLAS product, so
    their last digits depend on the build, and may differ between a point alone
    and in a chunk. A log input of -inf makes NaN of each term it does not enter.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != _EXPONENTS.shape[1:] or x.ndim > 2:
        raise ModelError(f"the pipe law takes 5 log inputs (rho, mu, D, eps, dPdL) per point, got shape {x.shape}")
    s = _EXPONENTS @ x.T
    np.add(s.T, _LOG_COEFS, out=s.T)
    return np.exp(s, out=s)


def combine(terms: Sequence[np.ndarray], re_critical: float):
    """Velocity and turbulent mask from the terms (P, t1, t2, v_lam, Re/v).

    V = (-2 P) log10(t1 + t2), grouped as fd_values groups it, where its
    Reynolds number (Re/v) V exceeds re_critical, else Poiseuille's v_lam:
    one np.where, so V is a fresh array; one point gives a 0-d V. The
    turbulent velocity and the log term are written in place into two
    arrays, 0-d for one point.
    """
    P, t1, t2, v_lam, re_per_v = terms
    v_tur, scratch = np.empty_like(P, dtype=float), np.empty_like(P, dtype=float)
    np.multiply(P, -2.0, out=v_tur)
    np.log10(np.add(t1, t2, out=scratch), out=scratch)
    np.multiply(v_tur, scratch, out=v_tur)
    turbulent = np.multiply(re_per_v, v_tur, out=scratch) > re_critical
    return np.where(turbulent, v_tur, v_lam), turbulent


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


class LogSpaceVelocity(Value):
    """Bulk velocity as a function of log quantities: one value per row of x, or for one point."""

    def __init__(self, re_critical: float = RE_CRITICAL):
        self._set(re_critical=re_critical)

    def __call__(self, x):
        return combine(_terms(x), self.re_critical)[0]

    def fd_values(self, Y: np.ndarray, steps: Sequence[float], rows: np.ndarray) -> Generator[np.ndarray, None, int]:
        """f(Y), then rows, (m, n), filled per step h so that its row i is f(Y + h e_i); returns Y's turbulent count.

        The terms at Y are computed once and give f(Y), a fresh array. A
        shift along dimension i multiplies each term that depends on it by
        the scalar exp(h e_i) and combines again, with no exp or sqrt over
        the rows: each value is written straight into its row through
        scratch buffers made once per call, with the bits of ``combine`` on
        the scaled terms. Inputs whose shift scales t1 and t2 by the same
        factors share one log10(t1 + t2) per step. No (m, n) array is made
        here: the caller owns rows, which the next step fills again.
        """
        terms = _terms(Y)
        f0, turbulent = combine(terms, self.re_critical)
        turbulent = int(np.count_nonzero(turbulent))  # the count, not the mask, lives through the steps
        yield f0
        P, t1, t2, v_lam, re_per_v = terms
        # every exp(h e_i) of every step, with the bits of the scalar np.exp(h * e_i)
        scales = np.exp(np.multiply.outer(np.asarray(steps, dtype=float), _EXPONENTS))
        # exact, so -2 P times exp(h e_i) has the bits of -2 times the scaled P, as in combine;
        # written over P, which is not read again
        minus_2P = np.multiply(P, -2.0, out=P)
        log_sum, scratch, laminar = np.empty(len(Y)), np.empty(len(Y)), np.empty(len(Y), dtype=bool)
        for scale in scales:
            for group in _LOG_GROUPS:
                g = group[0]  # every input of the group scales t1 and t2 as this one does
                t1_g = np.multiply(t1, scale[1, g], out=log_sum) if _EXPONENTS[1, g] else t1
                t2_g = np.multiply(t2, scale[2, g], out=scratch) if _EXPONENTS[2, g] else t2
                np.log10(np.add(t1_g, t2_g, out=log_sum), out=log_sum)
                for i in group:
                    row = rows[i]
                    P_i = np.multiply(minus_2P, scale[0, i], out=scratch) if _EXPONENTS[0, i] else minus_2P
                    np.multiply(log_sum, P_i, out=row)
                    re_i = np.multiply(re_per_v, scale[4, i], out=scratch) if _EXPONENTS[4, i] else re_per_v
                    np.greater(np.multiply(re_i, row, out=scratch), self.re_critical, out=laminar)
                    np.logical_not(laminar, out=laminar)
                    np.multiply(v_lam, scale[3, i], out=row, where=laminar)
            yield rows
        return turbulent


class BuiltinModel(Value):
    """A model file bound to the built-in velocity function it names."""

    def __init__(self, spec: ModelSpec, f: Callable):
        self._set(spec=spec, f=f)

    @property
    def name(self) -> str:
        return self.spec.builtin

    @cached_property
    def decomposition(self) -> PiDecomposition:
        return pi_decomposition(build_dimension_matrix(self.spec.quantities), self.spec.qoi)

    def grid(self, quad_order: int) -> TensorGrid:
        return tensor_grid(quad_order, self.spec.log_bounds())


def bind_builtin(spec: ModelSpec, re_critical: float = RE_CRITICAL) -> BuiltinModel:
    """Bind a loaded model file to the built-in function its 'builtin' field names."""
    if spec.builtin is None:
        raise ModelError(
            f"model {spec.name!r} declares no built-in function; "
            "only pi-group analysis is available for it"
        )
    check_builtin_id(spec)
    return BuiltinModel(spec=spec, f=LogSpaceVelocity(re_critical=re_critical))

