"""Gradient outer-product matrix estimation and its eigendecomposition.

The average of grad f grad f^T under a probability density is estimated by
tensor quadrature with forward-difference gradients; its leading eigenvectors
span the active subspace. For a ridge function the same matrix factors
through the low-dimensional profile, so the pullback path estimates the small
matrix T with gradients taken in the profile's own coordinates.

Accumulation is blocked into fixed-size chunks combined in index order, so
results are bit-identical regardless of how many worker threads consume the
grid.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import EvaluationError, NumericalError
from .quadrature import DEFAULT_CHUNK, TensorGrid

_SYMMETRY_TOL = 1e-12
_JACOBI_OFF_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 50
_EIG_CLAMP_REL = 1e-12
_GAP_REL = 1e-12
_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class GradientConfig:
    """Forward-difference settings; h is an absolute step in log coordinates."""

    h: float = 1e-5
    scheme: str = "forward"

    def __post_init__(self):
        if not self.h > 0.0:
            raise ValueError(f"finite-difference step must be positive, got {self.h}")
        if self.scheme != "forward":
            raise ValueError(f"only the forward-difference scheme is supported, got {self.scheme!r}")


@dataclass(frozen=True)
class GridMeta:
    """Estimation provenance: quadrature order, FD step, and point count."""

    quad_order: Optional[int]
    fd_step: Optional[float]
    point_count: Optional[int]


@dataclass(frozen=True)
class SubspaceEstimate:
    """Descending eigenvalues and orthonormal eigenvectors of an estimated C."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    grid_meta: Optional[GridMeta] = None
    clamped: bool = False  # true if tiny negative eigenvalues were zeroed


def _eval_rows(f: Callable, X: np.ndarray) -> np.ndarray:
    """Evaluate f on each row of X, batched when f supports it."""
    values = None
    try:
        out = np.asarray(f(X), dtype=float)
        if out.shape == (X.shape[0],):
            values = out
    except Exception:
        values = None
    if values is None:
        values = np.fromiter((float(f(row)) for row in X), dtype=float, count=len(X))
    if not np.all(np.isfinite(values)):
        bad = int(np.argmin(np.isfinite(values)))
        raise EvaluationError(
            f"model returned non-finite value {values[bad]} at point {X[bad].tolist()}",
            point=X[bad].copy(),
        )
    return values


def fd_gradient(f: Callable, x: np.ndarray, cfg: GradientConfig) -> np.ndarray:
    """Forward-difference gradient: component i is (f(x + h e_i) - f(x)) / h."""
    x = np.asarray(x, dtype=float)
    f0 = float(f(x))
    if not np.isfinite(f0):
        raise EvaluationError(f"model returned non-finite value {f0} at point {x.tolist()}", point=x.copy())
    grad = np.empty(x.shape[0])
    for i in range(x.shape[0]):
        xi = x.copy()
        xi[i] += cfg.h
        fi = float(f(xi))
        if not np.isfinite(fi):
            raise EvaluationError(
                f"model returned non-finite value {fi} at point {xi.tolist()}", point=xi
            )
        grad[i] = (fi - f0) / cfg.h
    return grad


def _chunk_gradient_outer(
    f: Callable, X: np.ndarray, weights: np.ndarray, h: float, lift: Optional[np.ndarray]
) -> np.ndarray:
    """Weighted sum of FD-gradient outer products over one block of points."""
    Y = X @ lift if lift is not None else X
    dim = Y.shape[1]
    f0 = _eval_rows(f, Y)
    G = np.empty((Y.shape[0], dim))
    for i in range(dim):
        Yi = Y.copy()
        Yi[:, i] += h
        G[:, i] = (_eval_rows(f, Yi) - f0) / h
    M = (G * weights[:, None]).T @ G
    # accumulate the lower triangle only, then mirror: symmetric by construction
    lower = np.tril(M)
    return lower + np.tril(M, -1).T


def _gradient_outer_sum(
    f: Callable,
    grid: TensorGrid,
    cfg: GradientConfig,
    lift: Optional[np.ndarray],
    threads: int,
    chunk_size: int,
) -> np.ndarray:
    total = len(grid)
    starts = list(range(0, total, chunk_size))

    def one_chunk(start: int) -> np.ndarray:
        X, w = grid.chunk(start, min(start + chunk_size, total))
        return _chunk_gradient_outer(f, X, w, cfg.h, lift)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(one_chunk, starts))
    else:
        partials = [one_chunk(s) for s in starts]
    dim = lift.shape[1] if lift is not None else grid.ndim
    C = np.zeros((dim, dim))
    for partial in partials:  # fixed combine order keeps sums deterministic
        C += partial
    return C


def estimate_C(
    f: Callable,
    grid: TensorGrid,
    cfg: GradientConfig,
    threads: int = 1,
    chunk_size: int = DEFAULT_CHUNK,
) -> np.ndarray:
    """Quadrature estimate of the m x m matrix C = avg of grad f grad f^T."""
    return _gradient_outer_sum(f, grid, cfg, lift=None, threads=threads, chunk_size=chunk_size)


def pullback_T(
    g_profile: Callable,
    A: np.ndarray,
    grid: TensorGrid,
    cfg: GradientConfig,
    threads: int = 1,
    chunk_size: int = DEFAULT_CHUNK,
) -> np.ndarray:
    """Estimate the n x n pulled-back matrix T = avg of grad g grad g^T at A^T x.

    A must have orthonormal columns; the eigenpairs of T then lift to the
    leading eigenpairs of C through U_C = A @ U_T.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    gram_err = np.max(np.abs(A.T @ A - np.eye(A.shape[1])))
    if gram_err > _ORTHO_TOL:
        raise ValueError(
            f"pullback requires orthonormal columns; Gram deviation {gram_err:.3e}"
        )
    return _gradient_outer_sum(g_profile, grid, cfg, lift=A, threads=threads, chunk_size=chunk_size)


def _jacobi_eigh(C: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi eigendecomposition of a small symmetric matrix."""
    A = C.copy()
    m = A.shape[0]
    V = np.eye(m)
    norm = np.linalg.norm(C, "fro")
    if norm == 0.0:
        return np.zeros(m), V
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = np.sqrt(np.sum(np.square(A - np.diag(np.diag(A)))))
        if off <= _JACOBI_OFF_TOL * norm:
            break
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq = A[p, q]
                if apq == 0.0:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                col_p, col_q = A[:, p].copy(), A[:, q].copy()
                A[:, p] = c * col_p - s * col_q
                A[:, q] = s * col_p + c * col_q
                row_p, row_q = A[p, :].copy(), A[q, :].copy()
                A[p, :] = c * row_p - s * row_q
                A[q, :] = s * row_p + c * row_q
                A[p, q] = A[q, p] = 0.0
                vp, vq = V[:, p].copy(), V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
    else:
        off = np.sqrt(np.sum(np.square(A - np.diag(np.diag(A)))))
        if off > _JACOBI_OFF_TOL * norm:
            raise NumericalError("Jacobi sweeps failed to reduce the off-diagonal norm")
    return np.diag(A).copy(), V


def eigendecompose(C: np.ndarray, grid_meta: Optional[GridMeta] = None) -> SubspaceEstimate:
    """Full spectral decomposition of a symmetric PSD matrix, descending order.

    Eigenvalues in (-1e-12 * lambda_1, 0) are clamped to zero with the
    ``clamped`` flag set; anything more negative means the input was not
    positive semidefinite and raises.
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if C.shape[0] != C.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {C.shape}")
    scale = np.max(np.abs(C))
    asym = np.max(np.abs(C - C.T))
    if scale > 0.0 and asym > _SYMMETRY_TOL * scale:
        raise ValueError(f"matrix is asymmetric: max |C - C^T| = {asym:.3e}")
    values, vectors = _jacobi_eigh((C + C.T) / 2.0)
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    lam_max = max(values[0], 0.0) if values.size else 0.0
    floor = -_EIG_CLAMP_REL * lam_max
    if np.any(values < floor):
        worst = values.min()
        raise NumericalError(
            f"eigenvalue {worst:.6e} is negative beyond rounding; matrix is not PSD"
        )
    clamped = bool(np.any(values < 0.0))
    values = np.maximum(values, 0.0)
    return SubspaceEstimate(
        eigenvalues=values, eigenvectors=vectors, grid_meta=grid_meta, clamped=clamped
    )


def active_subspace(est: SubspaceEstimate, k: int) -> np.ndarray:
    """First k eigenvector columns; requires a spectral gap at k."""
    m = est.eigenvalues.shape[0]
    if not 1 <= k < m:
        raise ValueError(f"active subspace dimension must satisfy 1 <= k < {m}, got {k}")
    lam = est.eigenvalues
    gap = abs(lam[k - 1] - lam[k])
    if gap <= _GAP_REL * max(lam[0], 0.0) or lam[0] == 0.0:
        raise NumericalError(
            f"no spectral gap between eigenvalues {k} and {k + 1} "
            f"({lam[k - 1]:.6e} vs {lam[k]:.6e}); choose a different k"
        )
    return est.eigenvectors[:, :k].copy()


def estimate_subspace(
    f: Callable,
    grid: TensorGrid,
    cfg: GradientConfig,
    threads: int = 1,
    chunk_size: int = DEFAULT_CHUNK,
) -> SubspaceEstimate:
    """Estimate C on the grid and eigendecompose it, recording run metadata."""
    C = estimate_C(f, grid, cfg, threads=threads, chunk_size=chunk_size)
    meta = GridMeta(quad_order=grid.order, fd_step=cfg.h, point_count=len(grid))
    return eigendecompose(C, grid_meta=meta)
