"""Gradient outer-product matrix estimation and its eigendecomposition.

The average of grad f grad f^T under a probability density is estimated by
tensor quadrature with forward-difference gradients; its leading eigenvectors
span the active subspace. For a ridge function the same matrix factors
through the low-dimensional profile, so the pullback path estimates the small
matrix T with gradients taken in the profile's own coordinates.

The grid is evaluated in the chunks of ``TensorGrid.chunks()``, which keep
numpy's per-call cost low and working memory small. Each chunk adds one
weighted outer product per step, in index order, so every sum runs in one
fixed order and every result repeats bit for bit. One pass over the grid
serves any number of FD steps: each chunk and its base values f(x) are
computed once and shared by every step. A model can supply the shifted
values itself through an ``fd_values(Y, steps)`` method, one (m, n) array
per step; the differencing, done in place, and the checks stay here. The
shifted values are checked through each step's m x m product, and a chunk
whose product is not finite is drawn again to name the value.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ._value import Value
from .errors import EvaluationError, ModelError, NumericalError
from .quadrature import TensorGrid

_SYMMETRY_TOL = 1e-12
_EIG_CLAMP_REL = 1e-12
_GAP_REL = 1e-12
_ORTHO_TOL = 1e-10


class SubspaceEstimate(Value):
    """Descending eigenvalues and orthonormal eigenvectors of an estimated C."""

    def __init__(
        self,
        eigenvalues: np.ndarray,
        eigenvectors: np.ndarray,
        clamped: bool = False,  # an eigenvalue at the rounding floor was zeroed; zero ones have arbitrary eigenvectors
    ):
        self._set(eigenvalues=eigenvalues, eigenvectors=eigenvectors, clamped=clamped)


def _columns(B) -> np.ndarray:
    """B as a float array of basis vectors in its columns: a 1-D array is one column."""
    B = np.asarray(B, dtype=float)
    return B.reshape(-1, 1) if B.ndim < 2 else B


def _shaped(values, n: int) -> np.ndarray:
    """f's values at n points as n floats; f must map (n, m) points to n values."""
    values = np.asarray(values, dtype=float)
    if values.shape != (n,):
        raise ModelError(
            f"model function returned shape {values.shape} for {n} points; "
            f"it must map an (n, m) array of points to n values"
        )
    return values


def _nonfinite(values: np.ndarray, X: np.ndarray, i: Optional[int] = None, h: float = 0.0) -> EvaluationError:
    """The error for the first non-finite entry of values, taken at the rows of X shifted by h along i."""
    bad = int(np.argmin(np.isfinite(values)))
    point = X[bad].copy()
    if i is not None:
        point[i] += h
    return EvaluationError(
        f"model returned non-finite value {values[bad]} at point {point.tolist()}",
        point=point,
    )


def _shifted_values(f: Callable, Y: np.ndarray, steps: Sequence[float]) -> Iterator[np.ndarray]:
    """f(Y), then one (m, n) array per step h whose row i is f(Y + h e_i).

    Each shift is applied in place to one work array and undone from Y after
    its evaluation, so a pass costs 1 + m * len(steps) calls of f. Each
    value's shape is checked as it arrives and copied into its row of one
    array, which every step reuses.
    """
    n, m = Y.shape
    yield f(Y)
    work = Y.copy()
    rows = np.empty((m, n))
    for h in steps:
        for i in range(m):
            work[:, i] += h
            rows[i] = _shaped(f(work), n)
            work[:, i] = Y[:, i]
        yield rows


def _values(f: Callable, Y: np.ndarray, steps: Sequence[float]) -> Iterator[np.ndarray]:
    """f(Y), then one (m, n) array of shifted values per step: the model's ``fd_values``, else f per shift."""
    fd_values = getattr(f, "fd_values", None)
    return fd_values(Y, steps) if fd_values is not None else _shifted_values(f, Y, steps)


def _fd_differences(f: Callable, Y: np.ndarray, steps: Sequence[float]) -> Iterator[np.ndarray]:
    """Forward differences f(Y + h e_i) - f(Y) at the rows of Y, one (m, n) array per step.

    Row i of a step's array is the difference along dimension i at every
    point. The values come from ``_values``. f(Y) is checked first for its
    shape and finiteness; each step's array is checked for its shape only,
    then differenced in place and yielded, so the model may reuse it for
    the next step. The caller checks the differences' finiteness, through
    ``_check_step`` where they are not finite. Every step must be positive
    and finite, and must move the chunk's largest |x|: a step below its
    spacing gives x + h == x.
    """
    bad = [h for h in steps if not 0.0 < h < np.inf]
    if bad:
        raise ValueError(f"finite-difference step must be positive and finite, got {bad[0]}")
    x_max = max(Y.max(initial=0.0), -Y.min(initial=0.0))
    lost = [h for h in steps if x_max + h == x_max]
    if lost:
        raise ValueError(
            f"finite-difference step {lost[0]} is below the spacing of the inputs: x + h == x at |x| = {x_max:.6g}"
        )
    values = _values(f, Y, steps)
    n, m = Y.shape
    f0 = _shaped(next(values), n)
    if not np.isfinite(f0).all():
        raise _nonfinite(f0, Y)
    for h in steps:
        D = np.asarray(next(values), dtype=float)
        if D.shape != (m, n):
            raise ModelError(
                f"model fd_values returned shape {D.shape} for step {h}; "
                f"it must yield one (m, n) = {(m, n)} array per step"
            )
        if not D.flags.writeable:
            raise ModelError(f"model fd_values returned a read-only array for step {h}; it is differenced in place")
        D -= f0
        yield D


def _check_step(f: Callable, Y: np.ndarray, steps: Sequence[float], k: int) -> None:
    """Raise for the first non-finite model value of step k, in (dimension, row) order, if there is one.

    The chunk's values are drawn again up to step k, as the pass drew them,
    because the differences were taken in place. Finite values whose
    difference overflowed raise nothing.
    """
    V = np.asarray(next(itertools.islice(_values(f, Y, steps), k + 1, None)), dtype=float)
    finite = np.isfinite(V)
    if not finite.all():
        i = int(np.argmin(finite.all(axis=1)))
        raise _nonfinite(V[i], Y, i, steps[k])


def fd_gradient(f: Callable, x: np.ndarray, h: float) -> np.ndarray:
    """Forward-difference gradient of a point function: component i is (f(x + h e_i) - f(x)) / h.

    The one-row case of the grid kernel: f is called once per shifted point.
    """
    x = np.asarray(x, dtype=float)
    rows = lambda Z: np.array([float(f(z)) for z in Z])
    X = x[None, :]
    D = next(_fd_differences(rows, X, [h]))[:, 0]
    if not np.isfinite(D).all():
        _check_step(rows, X, [h], 0)
    return D / h


def _gradient_outer_sums(
    f: Callable, chunks: Iterable[Tuple[np.ndarray, np.ndarray]], steps: Sequence[float]
) -> List[np.ndarray]:
    """Weighted sums of FD-gradient outer products over (points, weights) chunks, one matrix per step.

    Each chunk adds one (D * (w / h^2)) @ D.T per step h, in chunk order, with
    D its differences: 1/h^2 rides on the n weights, not on the m n
    differences. With positive weights a non-finite difference makes its
    product non-finite, so only such a product sends its chunk to
    ``_check_step``; a product of finite values is added as it is.
    """
    sums = [0.0] * len(steps)
    # C and every value are checked for finiteness; a with in the generator would leak its state
    with np.errstate(all="ignore"):
        for Y, w in chunks:
            # D * (w / h^2), written into one array per chunk: a fresh one per step faults its pages in anew
            weighted = np.empty((Y.shape[1], len(Y)))
            for k, (h, D) in enumerate(zip(steps, _fd_differences(f, Y, steps))):
                M = np.multiply(D, w / (h * h), out=weighted) @ D.T
                if not np.isfinite(M).all():
                    _check_step(f, Y, steps, k)
                sums[k] += M
    # symmetrize once per step: mirror the lower triangle, summed chunk by chunk, onto the upper
    return [np.tril(S) + np.tril(S, -1).T for S in sums]


def estimate_C(f: Callable, grid: TensorGrid, h: float) -> np.ndarray:
    """Quadrature estimate of the m x m matrix C = avg of grad f grad f^T."""
    return _gradient_outer_sums(f, grid.chunks(), [h])[0]


def pullback_T(g_profile: Callable, A: np.ndarray, grid: TensorGrid, h: float) -> np.ndarray:
    """Estimate the n x n pulled-back matrix T = avg of grad g grad g^T at A^T x.

    A needs one row per grid dimension and orthonormal columns (a 1-D A is
    one column); the eigenpairs of T then lift to the leading eigenpairs of C
    through U_C = A @ U_T.
    """
    A = _columns(A)
    if A.shape[0] != grid.ndim:
        raise ValueError(f"A has {A.shape[0]} rows but the grid has {grid.ndim} dimensions")
    gram_err = np.max(np.abs(A.T @ A - np.eye(A.shape[1])))
    if not gram_err <= _ORTHO_TOL:  # a nan deviation fails too
        raise ValueError(
            f"pullback requires orthonormal columns; Gram deviation {gram_err:.3e}"
        )
    chunks = ((X @ A, w) for X, w in grid.chunks())
    return _gradient_outer_sums(g_profile, chunks, [h])[0]


def eigendecompose(C: np.ndarray) -> SubspaceEstimate:
    """Full spectral decomposition of a symmetric PSD matrix, descending order.

    Eigenvalues at or below the rounding floor m * eps * lambda_1 (m the size
    of C) are set to exactly 0 with the ``clamped`` flag set; one below
    -1e-12 * lambda_1 means C is not PSD and raises. Each eigenvector's largest-magnitude
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
        # eigh reads one triangle; the symmetry check above bounds the other's difference
        values, vectors = np.linalg.eigh(C)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"eigenvalues of a finite matrix are not finite: {values.tolist()}")
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
    at_floor = values <= len(values) * np.finfo(float).eps * lam_max
    values[at_floor] = 0.0
    return SubspaceEstimate(eigenvalues=values, eigenvectors=vectors, clamped=bool(at_floor.any()))


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


def estimate_subspaces(f: Callable, grid: TensorGrid, steps: Sequence[float]) -> List[SubspaceEstimate]:
    """One estimate per FD step, all from a single pass over the grid.

    Each chunk is generated once and f is evaluated once at its points, then
    once per distinct step and dimension; a repeated step is computed once.
    Each estimate equals ``eigendecompose(estimate_C(f, grid, h))`` for its step h.
    """
    hs = [float(h) for h in steps]
    distinct = list(dict.fromkeys(hs))
    sums = _gradient_outer_sums(f, grid.chunks(), distinct)
    by_step = {h: eigendecompose(C) for h, C in zip(distinct, sums)}
    return [by_step[h] for h in hs]
