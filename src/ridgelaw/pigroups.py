"""Dimension matrices, nondimensionalizing exponents, and null-space pi groups.

Everything here runs in exact rational arithmetic: the dimension matrix is
reduced by fraction-free (Bareiss) elimination with a canonical pivot rule,
so the particular solution, the null basis, and every rank decision are
exact and reproducible. Floating point only appears at the very end, when a
rational matrix is rendered to doubles for the numerics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .dimensions import DimensionVector, QuantityDecl, UnitSystem, is_dimensionless
from .errors import ModelError

RationalVector = Tuple[Fraction, ...]
RationalMatrix = Tuple[RationalVector, ...]  # tuple of rows


def rational_to_float(rows: Sequence[Sequence[Fraction]]) -> np.ndarray:
    """Render a rational matrix (or vector of rows) to nearest doubles."""
    return np.array([[float(x) for x in row] for row in rows], dtype=float)


@dataclass(frozen=True)
class DimensionMatrix:
    """k x m matrix whose columns are the dimension vectors of m quantities."""

    entries: RationalMatrix
    column_names: Tuple[str, ...]
    system: UnitSystem

    def __post_init__(self):
        rows = tuple(tuple(e for e in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        if len(rows) != self.system.k:
            raise ModelError("dimension matrix must have one row per fundamental unit")
        if any(len(row) != len(self.column_names) for row in rows):
            raise ModelError("dimension matrix rows must match the number of quantities")

    @property
    def k(self) -> int:
        return len(self.entries)

    @property
    def m(self) -> int:
        return len(self.column_names)


@dataclass(frozen=True)
class PiDecomposition:
    """Particular solution w, null basis W, and the assembled matrix A = [w | W].

    ``rank`` is the exact rank of the dimension matrix; ``n`` (the number of
    pi groups) equals m - rank. When the quantity of interest is already
    dimensionless, w is zero and A is just W (``qoi_dimensionless`` records
    that no scaling prefactor is needed).
    """

    w: RationalVector
    W: RationalMatrix  # m rows, n columns
    A: RationalMatrix  # m rows, n+1 columns (n columns when qoi_dimensionless)
    rank: int
    qoi_dimensionless: bool = False

    @property
    def m(self) -> int:
        return len(self.w)

    @property
    def n(self) -> int:
        return len(self.W[0]) if self.W else 0

    def W_float(self) -> np.ndarray:
        return rational_to_float(self.W).reshape(self.m, self.n)

    def A_float(self) -> np.ndarray:
        ncols = len(self.A[0]) if self.A else 0
        return rational_to_float(self.A).reshape(self.m, ncols)


def build_dimension_matrix(quantities: Sequence[QuantityDecl]) -> DimensionMatrix:
    """Assemble the k x m dimension matrix, columns in declaration order."""
    if not quantities:
        raise ModelError("need at least one quantity to build a dimension matrix")
    system = quantities[0].dimension.system
    for q in quantities:
        if q.dimension.system != system:
            raise ModelError(
                f"quantity {q.name!r} uses a different unit system than {quantities[0].name!r}"
            )
    rows = tuple(
        tuple(q.dimension.exponents[i] for q in quantities) for i in range(system.k)
    )
    return DimensionMatrix(rows, tuple(q.name for q in quantities), system)


def _clear_denominators(row: Sequence[Fraction]) -> List[Fraction]:
    """Scale a row by the positive LCM of its denominators (integral entries)."""
    scale = math.lcm(*(x.denominator for x in row)) if row else 1
    return [x * scale for x in row]


def _bareiss_echelon(rows: List[List[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    """Fraction-free row echelon form with the canonical pivot rule.

    Pivot rule: leftmost column with a nonzero entry among the remaining
    rows, then the topmost such entry. Rows are pre-scaled to integers; the
    Bareiss update keeps them integral, so no rounding decision is ever made.
    Returns the echelon rows and the pivot column indices in order.
    """
    work = [_clear_denominators(r) for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    pivot_cols: List[int] = []
    prev_pivot = Fraction(1)
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
        for i in range(r + 1, nrows):
            row_i, row_r = work[i], work[r]
            factor = row_i[c]
            for j in range(c + 1, ncols):
                row_i[j] = (row_r[c] * row_i[j] - factor * row_r[j]) / prev_pivot
            row_i[c] = Fraction(0)
        prev_pivot = work[r][c]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    return work, pivot_cols


def _back_substitute(
    echelon: List[List[Fraction]],
    pivot_cols: List[int],
    nvars: int,
    rhs_col: Optional[int],
    free_values: dict,
) -> List[Fraction]:
    """Solve for the pivot variables given fixed values for the free ones."""
    x = [Fraction(0)] * nvars
    for col, value in free_values.items():
        x[col] = value
    for i in reversed(range(len(pivot_cols))):
        c = pivot_cols[i]
        row = echelon[i]
        acc = row[rhs_col] if rhs_col is not None else Fraction(0)
        for j in range(c + 1, nvars):
            acc -= row[j] * x[j]
        x[c] = acc / row[c]
    return x


class NumericalVerificationFailure(AssertionError):
    """Internal exact-arithmetic postcondition violated (indicates a bug)."""


def rank_exact(D: DimensionMatrix) -> int:
    """Exact rank via fraction-free elimination over the rationals."""
    rows = [list(r) for r in D.entries]
    _, pivots = _bareiss_echelon(rows)
    return len(pivots)


def _matvec(entries: RationalMatrix, x: Sequence[Fraction]) -> List[Fraction]:
    return [sum((row[j] * x[j] for j in range(len(x))), Fraction(0)) for row in entries]


def solve_particular(D: DimensionMatrix, target: DimensionVector) -> RationalVector:
    """One exact solution w of D @ w = target, free variables set to zero.

    The solution is deterministic under the canonical pivot rule and is
    verified by exact back-substitution before it is returned.
    """
    if target.system != D.system:
        raise ModelError("target dimension vector uses a different unit system")
    m = D.m
    augmented = [list(row) + [t] for row, t in zip(D.entries, target.exponents)]
    echelon, pivots = _bareiss_echelon(augmented)
    if pivots and pivots[-1] == m:
        raise ModelError(
            "the quantity of interest's units cannot be formed from the given "
            "quantities (inconsistent linear system)"
        )
    free_cols = {c: Fraction(0) for c in range(m) if c not in pivots}
    w = _back_substitute(echelon, pivots, m, rhs_col=m, free_values=free_cols)
    if _matvec(D.entries, w) != list(target.exponents):
        raise NumericalVerificationFailure("particular solution failed exact verification")
    return tuple(w)


def _normalize_column(col: List[Fraction]) -> Tuple[Fraction, ...]:
    """Scale to integer entries; flip sign so the first nonzero is positive."""
    scale = math.lcm(*(x.denominator for x in col))
    scaled = [x * scale for x in col]
    first = next((x for x in scaled if x != 0), None)
    if first is not None and first < 0:
        scaled = [-x for x in scaled]
    return tuple(scaled)


def null_space_basis(D: DimensionMatrix) -> RationalMatrix:
    """Exact rational basis of the null space of D, one column per free variable.

    Columns are normalized to integer entries with a positive leading sign;
    tests should compare column spaces, not entries, since any pivot rule
    yields an equally valid basis.
    """
    m = D.m
    rows = [list(r) for r in D.entries]
    echelon, pivots = _bareiss_echelon(rows)
    free_cols = [c for c in range(m) if c not in pivots]
    columns = []
    for fc in free_cols:
        free_values = {c: Fraction(1 if c == fc else 0) for c in free_cols}
        v = _back_substitute(echelon, pivots, m, rhs_col=None, free_values=free_values)
        columns.append(_normalize_column(v))
    for col in columns:
        if any(r != 0 for r in _matvec(D.entries, col)):
            raise NumericalVerificationFailure("null-space column failed exact D @ v = 0 check")
    # store row-major: m rows, n columns
    return tuple(tuple(col[i] for col in columns) for i in range(m))


def assemble_A(w: Sequence[Fraction], W: RationalMatrix) -> RationalMatrix:
    """Stack [w | W] and verify full column rank by exact elimination."""
    m = len(w)
    n = len(W[0]) if W else 0
    if W and len(W) != m:
        raise ModelError(f"w has length {m} but W has {len(W)} rows")
    rows = tuple((w[i],) + (tuple(W[i]) if W else ()) for i in range(m))
    _, pivots = _bareiss_echelon([list(r) for r in rows])
    if len(pivots) != n + 1:
        raise ModelError(
            "A = [w | W] is rank deficient; w lies in the span of the null basis "
            "(the quantity of interest is dimensionless, so no scaling column is needed)"
        )
    return rows


def pi_decomposition(
    quantities: Sequence[QuantityDecl], qoi: DimensionVector
) -> PiDecomposition:
    """Full pipeline: dimension matrix, rank, particular solution, null basis, A.

    Incomplete systems (rank < k) are permitted with a warning; the number of
    pi groups is then m - rank. A dimensionless quantity of interest gets a
    zero w and A = W.
    """
    D = build_dimension_matrix(quantities)
    rank = rank_exact(D)
    if rank < D.k:
        warnings.warn(
            f"dimension matrix has rank {rank} < {D.k} fundamental units; "
            "the quantities do not span a complete set of dimensions",
            stacklevel=2,
        )
    W = null_space_basis(D)
    if is_dimensionless(qoi):
        w = tuple(Fraction(0) for _ in range(D.m))
        return PiDecomposition(w=w, W=W, A=W, rank=rank, qoi_dimensionless=True)
    w = solve_particular(D, qoi)
    A = assemble_A(w, W)
    return PiDecomposition(w=w, W=W, A=A, rank=rank, qoi_dimensionless=False)
