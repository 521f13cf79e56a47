"""Gradient outer-product matrix estimation and its eigendecomposition.

The average of grad f grad f^T under a probability density is estimated by
tensor quadrature with forward-difference gradients; its leading eigenvectors
span the active subspace. For a ridge function the same matrix factors
through the low-dimensional profile, so the pullback path estimates the small
matrix T with gradients taken in the profile's own coordinates.

Accumulation is blocked into fixed-size chunks summed in index order, which
bounds working memory and makes every result bit-reproducible. One pass over
the grid serves any number of FD steps: each chunk and its base values f(x)
are computed once and shared by every step. A model can supply the shifted
values itself through an ``fd_values(Y, steps)`` method; the differencing
and the checks on every value stay here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import EvaluationError, ModelError, NumericalError
from .quadrature import DEFAULT_CHUNK, TensorGrid

_SYMMETRY_TOL = 1e-12
_EIG_CLAMP_REL = 1e-12
_GAP_REL = 1e-12
_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class SubspaceEstimate:
    """Descending eigenvalues and orthonormal eigenvectors of an estimated C."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clamped: bool = False  # true if tiny negative eigenvalues were zeroed


def _checked(values, X: np.ndarray, i: Optional[int] = None, h: float = 0.0) -> np.ndarray:
    """f's values at the rows of X, shifted by h along dimension i if given, as n finite floats.

    f must map (n, m) points to n values; a non-finite value raises naming
    its (shifted) point.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (X.shape[0],):
        raise ModelError(
            f"model function returned shape {values.shape} for {X.shape[0]} points; "
            f"it must map an (n, m) array of points to n values"
        )
    if not np.all(np.isfinite(values)):
        bad = int(np.argmin(np.isfinite(values)))
        point = X[bad].copy()
        if i is not None:
            point[i] += h
        raise EvaluationError(
            f"model returned non-finite value {values[bad]} at point {point.tolist()}",
            point=point,
        )
    return values


def _shifted_values(f: Callable, Y: np.ndarray, steps: Sequence[float]) -> Iterator[np.ndarray]:
    """f(Y), then f(Y + h e_i) for each step h and dimension i, in that order.

    Each shift is applied in place to one work array and undone from Y after
    its evaluation, so a pass costs 1 + m * len(steps) calls of f.
    """
    yield f(Y)
    work = Y.copy()
    for h in steps:
        for i in range(Y.shape[1]):
            work[:, i] += h
            yield f(work)
            work[:, i] = Y[:, i]


def _fd_gradients(f: Callable, Y: np.ndarray, steps: Sequence[float]) -> Iterator[np.ndarray]:
    """Forward-difference gradients at the rows of Y, one (n, m) array per step.

    The values come from the model's ``fd_values(Y, steps)`` when it has one
    (it yields what ``_shifted_values`` would, usually more cheaply), else
    from calling f on each shifted copy of Y. The yielded array is reused by
    the next step. Every step must be positive and finite.
    """
    bad = [h for h in steps if not 0.0 < h < np.inf]
    if bad:
        raise ValueError(f"finite-difference step must be positive and finite, got {bad[0]}")
    fd_values = getattr(f, "fd_values", None)
    values = fd_values(Y, steps) if fd_values is not None else _shifted_values(f, Y, steps)
    f0 = _checked(next(values), Y)
    G = np.empty_like(Y)
    for h in steps:
        for i in range(Y.shape[1]):
            G[:, i] = (_checked(next(values), Y, i, h) - f0) / h
        yield G


def fd_gradient(f: Callable, x: np.ndarray, h: float) -> np.ndarray:
    """Forward-difference gradient of a point function: component i is (f(x + h e_i) - f(x)) / h.

    The one-row case of the grid kernel: f is called once per shifted point.
    """
    x = np.asarray(x, dtype=float)
    rows = lambda Z: np.array([float(f(z)) for z in Z])
    return next(_fd_gradients(rows, x[None, :], [h]))[0]


def _gradient_outer_sums(
    f: Callable, blocks: Iterable[Tuple[np.ndarray, np.ndarray]], steps: Sequence[float]
) -> List[np.ndarray]:
    """Weighted sums of FD-gradient outer products over (points, weights) blocks, one matrix per step."""
    sums = [0.0] * len(steps)
    for Y, w in blocks:
        for k, G in enumerate(_fd_gradients(f, Y, steps)):
            M = (G * w[:, None]).T @ G
            # accumulate the lower triangle only, then mirror: symmetric by construction
            sums[k] += np.tril(M) + np.tril(M, -1).T
    return sums


def estimate_C(f: Callable, grid: TensorGrid, h: float) -> np.ndarray:
    """Quadrature estimate of the m x m matrix C = avg of grad f grad f^T."""
    return _gradient_outer_sums(f, grid.chunks(DEFAULT_CHUNK), [h])[0]


def pullback_T(g_profile: Callable, A: np.ndarray, grid: TensorGrid, h: float) -> np.ndarray:
    """Estimate the n x n pulled-back matrix T = avg of grad g grad g^T at A^T x.

    A needs one row per grid dimension and orthonormal columns; the
    eigenpairs of T then lift to the leading eigenpairs of C through U_C = A @ U_T.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[0] != grid.ndim:
        raise ValueError(f"A has {A.shape[0]} rows but the grid has {grid.ndim} dimensions")
    gram_err = np.max(np.abs(A.T @ A - np.eye(A.shape[1])))
    if gram_err > _ORTHO_TOL:
        raise ValueError(
            f"pullback requires orthonormal columns; Gram deviation {gram_err:.3e}"
        )
    blocks = ((X @ A, w) for X, w in grid.chunks(DEFAULT_CHUNK))
    return _gradient_outer_sums(g_profile, blocks, [h])[0]


def eigendecompose(C: np.ndarray) -> SubspaceEstimate:
    """Full spectral decomposition of a symmetric PSD matrix, descending order.

    Eigenvalues in (-1e-12 * lambda_1, 0) are clamped to zero with the
    ``clamped`` flag set; anything more negative means the input was not
    positive semidefinite and raises. Each eigenvector's largest-magnitude
    component is positive, which fixes the sign LAPACK leaves free.
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if C.shape[0] != C.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {C.shape}")
    if not np.all(np.isfinite(C)):
        raise NumericalError("matrix has non-finite entries")
    scale = np.max(np.abs(C))
    asym = np.max(np.abs(C - C.T))
    if scale > 0.0 and asym > _SYMMETRY_TOL * scale:
        raise ValueError(f"matrix is asymmetric: max |C - C^T| = {asym:.3e}")
    try:
        values, vectors = np.linalg.eigh((C + C.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    pivots = np.argmax(np.abs(vectors), axis=0)
    vectors = vectors * np.sign(vectors[pivots, np.arange(vectors.shape[1])])
    lam_max = max(values[0], 0.0) if values.size else 0.0
    floor = -_EIG_CLAMP_REL * lam_max
    if np.any(values < floor):
        worst = values.min()
        raise NumericalError(
            f"eigenvalue {worst:.6e} is negative beyond rounding; matrix is not PSD"
        )
    clamped = bool(np.any(values < 0.0))
    values = np.maximum(values, 0.0)
    return SubspaceEstimate(eigenvalues=values, eigenvectors=vectors, clamped=clamped)


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


def estimate_subspace(f: Callable, grid: TensorGrid, h: float) -> SubspaceEstimate:
    """Estimate C on the grid and eigendecompose it."""
    return eigendecompose(estimate_C(f, grid, h))


def estimate_subspaces(f: Callable, grid: TensorGrid, steps: Sequence[float]) -> List[SubspaceEstimate]:
    """One estimate per FD step, all from a single pass over the grid.

    Each chunk is generated once and f is evaluated once at its points, then
    once per distinct step and dimension; a repeated step is computed once.
    Every estimate equals the one ``estimate_subspace`` gives for its step.
    """
    hs = [float(h) for h in steps]
    distinct = list(dict.fromkeys(hs))
    sums = _gradient_outer_sums(f, grid.chunks(DEFAULT_CHUNK), distinct)
    by_step = {h: eigendecompose(C) for h, C in zip(distinct, sums)}
    return [by_step[h] for h in hs]
