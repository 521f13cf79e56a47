"""Dimension matrices, nondimensionalizing exponents, and null-space pi groups.

Everything here runs in exact rational arithmetic. One fraction-free
(Bareiss) elimination of the augmented matrix [D | v(qoi)], with a canonical
pivot rule, gives the rank, the particular solution w and the null basis W,
so every rank decision is exact and reproducible. The results are checked
exactly: D·w = v, D·W = 0, and on the free rows W is diagonal and nonzero
while w is zero, which proves that A = [w | W] has full column rank.
Floating point only appears at the very end, when a rational matrix is
rendered to doubles for the numerics.
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

    def A_float(self) -> np.ndarray:
        ncols = len(self.A[0]) if self.A else 0
        return np.array([[float(x) for x in row] for row in self.A], dtype=float).reshape(self.m, ncols)


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


def _matvec(entries: RationalMatrix, x: Sequence[Fraction]) -> List[Fraction]:
    return [sum((row[j] * x[j] for j in range(len(x))), Fraction(0)) for row in entries]


def _normalize_column(col: List[Fraction]) -> Tuple[Fraction, ...]:
    """Scale to integer entries; flip sign so the first nonzero is positive."""
    scale = math.lcm(*(x.denominator for x in col))
    scaled = [x * scale for x in col]
    first = next((x for x in scaled if x != 0), None)
    if first is not None and first < 0:
        scaled = [-x for x in scaled]
    return tuple(scaled)




def pi_decomposition(D: DimensionMatrix, qoi: DimensionVector) -> PiDecomposition:
    """Rank, particular solution w, null basis W and A = [w | W] from one elimination.

    The augmented matrix [D | v(qoi)] is eliminated once. The pivot rule
    looks only at columns <= c, so its first m columns pivot exactly as D
    alone does: the rank is the number of pivots left of v, and a pivot on v
    means the qoi's units cannot be formed. w (free variables zero) and one
    null column per free variable (that variable one, the others zero) are
    back-substituted from the same echelon rows.

    Incomplete systems (rank < k) are permitted with a warning; the number of
    pi groups is then m - rank. A dimensionless quantity of interest gets a
    zero w and A = W.
    """
    if qoi.system != D.system:
        raise ModelError("the quantity of interest uses a different unit system")
    m = D.m
    echelon, pivots = _bareiss_echelon(
        [list(row) + [v] for row, v in zip(D.entries, qoi.exponents)]
    )
    consistent = not pivots or pivots[-1] < m
    rank = len(pivots) if consistent else len(pivots) - 1
    if rank < D.k:
        warnings.warn(
            f"dimension matrix has rank {rank} < {D.k} fundamental units; "
            "the quantities do not span a complete set of dimensions",
            stacklevel=2,
        )
    if not consistent:
        raise ModelError(
            "the quantity of interest's units cannot be formed from the given "
            "quantities (inconsistent linear system)"
        )
    free = [c for c in range(m) if c not in pivots]
    w = tuple(
        _back_substitute(echelon, pivots, m, rhs_col=m, free_values={c: Fraction(0) for c in free})
    )
    columns = [
        _normalize_column(
            _back_substitute(
                echelon, pivots, m, rhs_col=None,
                free_values={c: Fraction(1 if c == f else 0) for c in free},
            )
        )
        for f in free
    ]
    if _matvec(D.entries, w) != list(qoi.exponents) or any(
        any(_matvec(D.entries, col)) for col in columns
    ):
        raise NumericalVerificationFailure("w or W failed the exact checks D·w = v, D·W = 0")
    # On the free rows W is diagonal with a nonzero diagonal and w is zero, so
    # W has full column rank and a nonzero w lies outside its span.
    dimensionless = is_dimensionless(qoi)
    full_rank = (
        all((col[g] != 0) == (g == f) for f, col in zip(free, columns) for g in free)
        and not any(w[g] for g in free)
        and (dimensionless or any(w))
    )
    if not full_rank:
        raise NumericalVerificationFailure("A failed the exact full-column-rank check")
    W = tuple(tuple(col[i] for col in columns) for i in range(m))
    A = W if dimensionless else tuple((w[i],) + W[i] for i in range(m))
    return PiDecomposition(w=w, W=W, A=A, rank=rank, qoi_dimensionless=dimensionless)
