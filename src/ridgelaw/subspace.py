"""Subspace-inclusion residuals and the step-size convergence sweep.

The inclusion test asks whether every basis vector of a candidate subspace
can be written as a linear combination of an enclosing basis: each column is
fit by least squares and the squared residual norms are summed. A total of
zero means the candidate space is contained in the enclosing one; the sweep
tracks how that total decays as the finite-difference step shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .activesubspace import SubspaceEstimate, active_subspace, estimate_subspaces
from .errors import ModelError, NumericalError
from .pipeflow import BuiltinModel

_RANK_TOL = 1e-12
_SLOPE_FLOOR = 1e-24  # residuals below this are rounding noise; excluded from fits


@dataclass(frozen=True)
class InclusionReport:
    """Per-column squared residuals of candidate-in-enclosing least squares."""

    per_column_residuals: Tuple[float, ...]
    total: float
    dims: Tuple[int, int]  # (candidate columns, enclosing columns)
    candidate_condition: float
    enclosing_condition: float


def _orthonormalize(B: np.ndarray, name: str) -> np.ndarray:
    Q, R = np.linalg.qr(B)
    if not (np.isfinite(Q).all() and np.isfinite(R).all()):
        raise NumericalError(f"{name} basis has a non-finite QR factor")
    diag = np.abs(np.diag(R))
    if diag.min() <= _RANK_TOL * max(diag.max(), 1.0):
        raise ModelError(f"{name} basis is numerically rank deficient")
    return Q


def inclusion_residual(B1: np.ndarray, B2: np.ndarray) -> InclusionReport:
    """Least-squares inclusion residual of span(B1) within span(B2).

    Both bases are orthonormalized (QR) before the residuals are computed,
    so the result depends only on the two column spaces. The least-squares
    solves use the Householder QR of the enclosing basis rather than normal
    equations.
    """
    B1 = np.atleast_2d(np.asarray(B1, dtype=float))
    B2 = np.atleast_2d(np.asarray(B2, dtype=float))
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
    cond1 = float(np.linalg.cond(B1))
    cond2 = float(np.linalg.cond(B2))
    residual = Q1 - Q2 @ (Q2.T @ Q1)
    per_column = np.sum(residual * residual, axis=0)
    if not np.isfinite(per_column).all():
        raise NumericalError("inclusion residual is not finite")
    return InclusionReport(
        per_column_residuals=tuple(float(r) for r in per_column),
        total=float(per_column.sum()),
        dims=(n_cand, n_encl),
        candidate_condition=cond1,
        enclosing_condition=cond2,
    )


def fit_loglog_slope(pairs: Sequence[Tuple[float, float]]) -> Optional[float]:
    """OLS slope of log(r2) against log(h), skipping rounding-floor residuals."""
    usable = [(h, r2) for h, r2 in pairs if r2 >= _SLOPE_FLOOR]
    if len(usable) < 2:
        return None
    log_h = np.log([h for h, _ in usable])
    log_r2 = np.log([r2 for _, r2 in usable])
    slope, _ = np.polyfit(log_h, log_r2, 1)
    return float(slope)


@dataclass(frozen=True)
class SweepResult:
    """Inclusion residuals across finite-difference steps, plus the fitted slope."""

    model: str
    quad_order: int
    subspace_dim: int
    entries: Tuple[Tuple[float, float], ...]  # (h, r2), h descending
    slope: Optional[float]
    estimate: Optional[SubspaceEstimate] = None  # full estimate at the sweep's fd_step


def convergence_sweep(
    model: BuiltinModel,
    steps: Iterable[float],
    quad_order: int,
    fd_step: Optional[float] = None,
) -> SweepResult:
    """Sweep the FD step for a built-in model and report r2(h) with its slope.

    For each h the active subspace (one direction for the laminar model,
    three for the turbulent one) is estimated on the same quadrature grid and
    tested for inclusion in the orthonormalized dimensional-analysis basis.
    All estimates come from one pass over the grid; with ``fd_step`` that
    pass also yields the full estimate at fd_step, returned as ``estimate``.
    """
    steps = [float(h) for h in steps]
    if not steps:
        raise ModelError("sweep needs at least one step size")
    if any(h <= 0.0 for h in steps):
        raise ModelError("step sizes must be positive")
    if any(a <= b for a, b in zip(steps, steps[1:])):
        raise ModelError("step sizes must be strictly descending")
    grid = model.grid(quad_order)
    enclosing = _orthonormalize(model.decomposition.A_float(), "dimensional-analysis")
    extra = [] if fd_step is None else [fd_step]
    estimates = estimate_subspaces(model.f, grid, steps + extra)
    entries: List[Tuple[float, float]] = []
    for h, est in zip(steps, estimates):
        basis = active_subspace(est, model.active_dim)
        report = inclusion_residual(basis, enclosing)
        entries.append((h, report.total))
    return SweepResult(
        model=model.name,
        quad_order=quad_order,
        subspace_dim=model.active_dim,
        entries=tuple(entries),
        slope=fit_loglog_slope(entries),
        estimate=estimates[-1] if fd_step is not None else None,
    )
