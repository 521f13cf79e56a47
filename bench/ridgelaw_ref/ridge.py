"""Ridge-function evaluation and the directions a ridge model cannot see.

A ridge model computes profile(A^T x): nominally a function of all m inputs,
but constant along every direction orthogonal to A's columns. The
semi-empirical form splits off the scaling column, evaluating
exp(w^T log q) * g(log pi_1, ..., log pi_n), which is dimensionally
homogeneous by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ModelError, NumericalError
from .pigroups import PiDecomposition

_RANK_TOL = 1e-12
_ANNIHILATION_TOL = 1e-12


@dataclass(frozen=True)
class RidgeModel:
    """Floating-point ridge model: profile applied to A^T x."""

    A: np.ndarray  # m x (n+1)
    profile: Callable[[np.ndarray], float]

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        object.__setattr__(self, "A", A)
        if np.linalg.matrix_rank(A) < A.shape[1]:
            raise ModelError("ridge matrix A must have full column rank")

    @classmethod
    def from_decomposition(
        cls, decomposition: PiDecomposition, profile: Callable[[np.ndarray], float]
    ) -> "RidgeModel":
        # single rounding per entry: rationals rendered to nearest double once
        return cls(A=decomposition.A_float(), profile=profile)


@dataclass(frozen=True)
class SemiEmpiricalModel:
    """Scaling exponents w, pi-group exponents W, and a dimensionless profile g."""

    w: np.ndarray  # length m
    W: np.ndarray  # m x n
    g: Callable[[np.ndarray], float]

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float).reshape(-1)
        W = np.asarray(self.W, dtype=float).reshape(len(w), -1)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "W", W)


def ridge_eval(model: RidgeModel, x: Sequence[float]) -> float:
    """Evaluate profile(A^T x)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.A.shape[0],):
        raise ModelError(
            f"input has shape {x.shape}, expected ({model.A.shape[0]},)"
        )
    if not np.all(np.isfinite(x)):
        raise ModelError("ridge input must be finite")
    return float(model.profile(model.A.T @ x))


def semi_empirical_eval(model: SemiEmpiricalModel, q: Sequence[float]) -> float:
    """Evaluate exp(w^T log q) * g(W^T log q) at strictly positive q."""
    q = np.asarray(q, dtype=float)
    if q.shape != (len(model.w),):
        raise ModelError(f"input has shape {q.shape}, expected ({len(model.w)},)")
    if not np.all(q > 0.0):
        bad = int(np.argmin(q > 0.0))
        raise ModelError(f"semi-empirical input must be positive; component {bad} = {q[bad]}")
    log_q = np.log(q)
    return float(np.exp(model.w @ log_q) * model.g(model.W.T @ log_q))


def constancy_directions(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of A^T: the invariant directions.

    Uses modified Gram-Schmidt against a QR orthonormalization of A, picking
    the largest remaining residual direction at each step and finishing with
    one reorthogonalization pass; adequate and robust for the small m used
    here. Every returned column u satisfies max|A^T u| < 1e-12.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, ncols = A.shape
    if ncols > m:
        raise ModelError(f"A has more columns ({ncols}) than rows ({m})")
    Q, R = np.linalg.qr(A)
    diag = np.abs(np.diag(R))
    if ncols and diag.min() <= _RANK_TOL * max(diag.max(), 1.0):
        raise ModelError("A is numerically rank deficient")
    n_null = m - ncols
    if n_null == 0:
        return np.zeros((m, 0))
    residual = np.eye(m) - Q @ Q.T
    basis = []
    for _ in range(n_null):
        norms = np.linalg.norm(residual, axis=0)
        u = residual[:, int(np.argmax(norms))].copy()
        u -= Q @ (Q.T @ u)  # reorthogonalization pass
        for v in basis:
            u -= v * (v @ u)
        u /= np.linalg.norm(u)
        basis.append(u)
        residual -= np.outer(u, u @ residual)
    U = np.column_stack(basis)
    if np.max(np.abs(A.T @ U)) >= _ANNIHILATION_TOL:
        raise NumericalError("constancy directions failed the A^T u = 0 check")
    return U
