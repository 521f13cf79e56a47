"""The directions a ridge model cannot see.

A ridge model computes profile(A^T x): nominally a function of all m inputs,
but constant along every direction orthogonal to A's columns.
"""

from __future__ import annotations

import numpy as np

from .errors import ModelError, NumericalError

_RANK_TOL = 1e-12
_ANNIHILATION_TOL = 1e-12


def constancy_directions(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of A^T: the invariant directions.

    The trailing columns of the complete QR factor of A. Every returned
    column u satisfies max|A^T u| < 1e-12.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, ncols = A.shape
    if ncols > m:
        raise ModelError(f"A has more columns ({ncols}) than rows ({m})")
    Q, R = np.linalg.qr(A, mode="complete")
    diag = np.abs(np.diag(R))
    if ncols and diag.min() <= _RANK_TOL * max(diag.max(), 1.0):
        raise ModelError("A is numerically rank deficient")
    U = Q[:, ncols:]
    if U.size and np.max(np.abs(A.T @ U)) >= _ANNIHILATION_TOL:
        raise NumericalError("constancy directions failed the A^T u = 0 check")
    return U
