"""The orthogonal split of log-input space that dimensional analysis predicts.

A ridge model computes profile(A^T x): nominally a function of all m inputs,
but constant along every direction orthogonal to A's columns. Its active
subspace therefore lies inside span(A). Both halves of that split come from
one QR routine: ``constancy_directions`` returns the orthogonal complement of
span(A), and the inclusion test orthonormalizes both bases it compares.

The inclusion test asks whether every basis vector of a candidate subspace
can be written as a linear combination of an enclosing basis: each column is
fit by least squares and the squared residual norms are summed. A total of
zero means the candidate space is contained in the enclosing one; the sweep
tracks how that total decays as the finite-difference step shrinks. No model
code loads here: the sweep is handed its model, whose pass counts the routing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ._value import Value
from .activesubspace import SubspaceEstimate, _columns, _estimate_subspaces, active_subspace
from .errors import ModelError, NumericalError

if TYPE_CHECKING:  # the numerics layer loads no model code
    from .pipeflow import BuiltinModel

_RANK_TOL = 1e-12
_ANNIHILATION_TOL = 1e-12
_SLOPE_FLOOR = 1e-24  # residuals below this are rounding noise; excluded from fits


class InclusionReport(Value):
    """Per-column squared residuals of candidate-in-enclosing least squares."""

    def __init__(self, per_column_residuals: Tuple[float, ...], total: float):
        self._set(per_column_residuals=per_column_residuals, total=total)


def _orthonormalize(B: np.ndarray, name: str, mode: str = "reduced") -> np.ndarray:
    """Q of B's reduced or complete QR, checked finite and of full column rank."""
    Q, R = np.linalg.qr(B, mode=mode)
    if not (np.isfinite(Q).all() and np.isfinite(R).all()):
        raise NumericalError(f"{name} basis has a non-finite QR factor")
    diag = np.abs(np.diag(R))
    if diag.size and diag.min() <= _RANK_TOL * max(diag.max(), 1.0):
        raise ModelError(f"{name} basis is numerically rank deficient")
    return Q


def constancy_directions(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of A^T: the invariant directions.

    The trailing columns of the complete QR factor of A, whose columns span
    the directions (a 1-D A is one column). Every returned column u satisfies
    max|A^T u| < 1e-12.
    """
    A = _columns(A)
    m, ncols = A.shape
    if ncols > m:
        raise ModelError(f"A has more columns ({ncols}) than rows ({m})")
    U = _orthonormalize(A, "A", mode="complete")[:, ncols:]
    if np.any(np.abs(A.T @ U) >= _ANNIHILATION_TOL):
        raise NumericalError("constancy directions failed the A^T u = 0 check")
    return U


def inclusion_residual(B1: np.ndarray, B2: np.ndarray) -> InclusionReport:
    """Least-squares inclusion residual of span(B1) within span(B2).

    A basis holds its vectors in its columns; a 1-D basis is one column.
    Both bases are orthonormalized (QR) before the residuals are computed,
    so ``total`` depends only on the two column spaces. The per-column
    residuals are those of the candidate's Q columns, the j-th spanned by its
    first j columns, so they follow the candidate's column order: reordering
    its columns changes the split, not the sum. The least-squares solves use
    the Householder QR of the enclosing basis rather than normal equations.
    """
    B1, B2 = _columns(B1), _columns(B2)
    if B1.ndim != 2 or B2.ndim != 2:
        raise ModelError("bases must be 2-d arrays with basis vectors as columns")
    if B1.shape[0] != B2.shape[0]:
        raise ModelError(
            f"bases live in different ambient dimensions: {B1.shape[0]} vs {B2.shape[0]}"
        )
    m_ambient = B1.shape[0]
    n_cand, n_encl = B1.shape[1], B2.shape[1]
    if not 1 <= n_cand <= n_encl <= m_ambient:
        raise ModelError(
            f"need 1 <= candidate columns <= enclosing columns <= ambient dimension, "
            f"got {n_cand}, {n_encl}, {m_ambient}"
        )
    Q1 = _orthonormalize(B1, "candidate")
    Q2 = _orthonormalize(B2, "enclosing")
    residual = Q1 - Q2 @ (Q2.T @ Q1)
    per_column = np.sum(residual * residual, axis=0)
    if not np.isfinite(per_column).all():
        raise NumericalError("inclusion residual is not finite")
    return InclusionReport(tuple(float(r) for r in per_column), float(per_column.sum()))


def fit_loglog_slope(pairs: Sequence[Tuple[float, float]]) -> Optional[float]:
    """OLS slope of log(r2) against log(h), skipping rounding-floor residuals."""
    usable = [(h, r2) for h, r2 in pairs if r2 >= _SLOPE_FLOOR]
    if len(usable) < 2:
        return None
    log_h = np.log([h for h, _ in usable])
    log_r2 = np.log([r2 for _, r2 in usable])
    slope, _ = np.polyfit(log_h, log_r2, 1)
    return float(slope)


class SweepResult(Value):
    """Inclusion residuals across finite-difference steps, plus the fitted slope."""

    def __init__(
        self,
        subspace_dim: int,
        entries: Tuple[Tuple[float, float], ...],  # (h, r2), h descending
        slope: Optional[float],
        estimate: Optional[SubspaceEstimate] = None,  # full estimate at the sweep's fd_step
    ):
        self._set(subspace_dim=subspace_dim, entries=entries, slope=slope, estimate=estimate)


def convergence_sweep(
    model: BuiltinModel,
    steps: Iterable[float],
    quad_order: int,
    fd_step: Optional[float] = None,
) -> SweepResult:
    """Sweep the FD step for a built-in model and report r2(h) with its slope.

    For each h the active subspace (k from the pass's routing count through
    ``pipeflow.active_dim``) is estimated on the same quadrature grid and
    tested for inclusion in the orthonormalized dimensional-analysis basis.
    All estimates come from one pass over the grid; with ``fd_step`` that
    pass also yields the full estimate at fd_step, returned as ``estimate``.
    """
    from .pipeflow import active_dim  # the module of the model the sweep is handed

    steps = [float(h) for h in steps]
    if not steps or any(a <= b for a, b in zip(steps, steps[1:])):
        raise ValueError(f"sweep needs strictly descending step sizes, got {steps}")
    grid = model.grid(quad_order)
    enclosing = _orthonormalize(model.decomposition.A_float(), "dimensional-analysis")
    extra = [] if fd_step is None else [fd_step]
    estimates, turbulent = _estimate_subspaces(model.f, grid, steps + extra)
    if turbulent is None:
        raise ModelError(f"model {model.name!r}: its function reports no routing count, so the sweep has no k")
    entries: List[Tuple[float, float]] = []
    k = active_dim(turbulent, len(grid))
    for h, est in zip(steps, estimates):
        try:
            basis = active_subspace(est, k)
        except NumericalError:
            lam = est.eigenvalues
            raise NumericalError(
                f"no spectral gap at step h = {h:g} between eigenvalues {k} and {k + 1} "
                f"({lam[k - 1]:.6e} vs {lam[k]:.6e}; {turbulent} of {len(grid)} grid points route turbulent "
                f"at re_crit = {model.f.re_critical:g}); k = {k} is the model's active dimension"
            ) from None
        report = inclusion_residual(basis, enclosing)
        entries.append((h, report.total))
    return SweepResult(
        subspace_dim=k,
        entries=tuple(entries),
        slope=fit_loglog_slope(entries),
        estimate=estimates[-1] if fd_step is not None else None,
    )
