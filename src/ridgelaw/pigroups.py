"""Dimension matrices, nondimensionalizing exponents, and null-space pi groups.

Everything here runs in exact arithmetic. The rows of the augmented matrix
[D | v(qoi)] are scaled to integers once, and one fraction-free Gauss-Jordan
pass over them, with a canonical pivot rule, gives the rank; W and w are read
off the reduced rows, so every rank decision is exact and reproducible. W is
an integer matrix (Python ints, one primitive exponent vector per pi group);
w is rational (Fractions), and so is A's first column. The results are checked
exactly, in integers: D·w = v, D·W = 0 (each column's products summed over its
support), and on the free rows W is diagonal and nonzero while w is zero, which
proves that A = [w | W] has full column rank and that the entries off each
support are zero.
Floating point only appears at the very end, when a rational matrix is
rendered to doubles for the numerics (A_float, which imports numpy on call).
"""

from __future__ import annotations

import math
import operator
import warnings
from fractions import Fraction
from typing import List, Sequence, Tuple

from ._value import Value
from .dimensions import DimensionVector, QuantityDecl, UnitSystem, is_dimensionless
from .errors import ModelError

RationalVector = Tuple[Fraction, ...]
RationalMatrix = Tuple[RationalVector, ...]  # tuple of rows
IntegerMatrix = Tuple[Tuple[int, ...], ...]  # tuple of rows of Python ints


class DimensionMatrix(Value):
    """k x m matrix whose columns are the dimension vectors of m quantities."""

    def __init__(self, entries: Sequence[Sequence[Fraction]], column_names: Sequence[str], system: UnitSystem):
        rows = tuple(map(tuple, entries))
        column_names = tuple(column_names)
        if len(rows) != system.k:
            raise ModelError("dimension matrix must have one row per fundamental unit")
        if any(len(row) != len(column_names) for row in rows):
            raise ModelError("dimension matrix rows must match the number of quantities")
        self._set(entries=rows, column_names=column_names, system=system)

    @property
    def k(self) -> int:
        return len(self.entries)

    @property
    def m(self) -> int:
        return len(self.column_names)


class PiDecomposition(Value):
    """Particular solution w, null basis W, and the assembled matrix A = [w | W].

    W's entries are ints and w's are Fractions; A's rows reuse both objects.
    ``rank`` is the exact rank of the dimension matrix; ``n`` (the number of
    pi groups) equals m - rank. When the quantity of interest is already
    dimensionless, w is zero and A is just W (``qoi_dimensionless`` records
    that no scaling prefactor is needed).
    """

    def __init__(
        self,
        w: RationalVector,
        W: IntegerMatrix,  # m rows, n columns
        A: RationalMatrix,  # m rows, n+1 columns (n columns when qoi_dimensionless)
        rank: int,
        qoi_dimensionless: bool = False,
    ):
        self._set(w=w, W=W, A=A, rank=rank, qoi_dimensionless=qoi_dimensionless)

    @property
    def m(self) -> int:
        return len(self.w)

    @property
    def n(self) -> int:
        return len(self.W[0]) if self.W else 0

    def A_float(self):
        """A as an m x (n+1) float array (m x n when qoi_dimensionless)."""
        import numpy as np

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


def _integer_row(row: Sequence[Fraction]) -> List[int]:
    """The row scaled by the positive LCM of its denominators, as Python ints."""
    ratios = [x.as_integer_ratio() for x in row]
    scale = math.lcm(*[q for _, q in ratios])
    return [p * (scale // q) for p, q in ratios]


def _gauss_jordan(rows: Sequence[Sequence[int]]) -> Tuple[List[List[int]], int, List[int]]:
    """Fraction-free Gauss-Jordan elimination of integer rows, canonical pivots.

    Pivot rule: leftmost column with a nonzero entry among the remaining
    rows, then the topmost such entry. Every row but the pivot row, above it
    as well as below, gets the Bareiss update (p·row - a·pivot_row) // prev,
    whose division is exact, so no rounding decision is ever made. Returns
    the reduced rows, the common pivot d that every pivot row ends with, and
    the pivot columns in order; each pivot column is zero off its pivot row.
    """
    work = [list(row) for row in rows]
    pivot_cols: List[int] = []
    prev = 1
    for c in range(len(work[0]) if work else 0):
        r = len(pivot_cols)
        if r == len(work):
            break
        pivot_row = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pivot, p = work[r], work[r][c]
        for i, row in enumerate(work):
            if i != r:
                a = row[c]
                if a:
                    work[i] = [(p * x - a * y) // prev for x, y in zip(row, pivot)]
                elif p != prev:  # the same update with a = 0
                    work[i] = [p * x // prev for x in row]
        prev = p
        pivot_cols.append(c)
    return work, prev, pivot_cols


class NumericalVerificationFailure(AssertionError):
    """Internal exact-arithmetic postcondition violated (indicates a bug)."""


def _null_column(reduced: List[List[int]], d: int, pivots: List[int], f: int) -> List[int]:
    """Primitive integer null vector with x_f = d, x_p = -R[i][f], first nonzero positive.

    Its support is the pivot columns and f: every other entry is zero.
    """
    col = [0] * len(reduced[0])
    col[f] = d
    for i, c in enumerate(pivots):
        col[c] = -reduced[i][f]
    g = math.gcd(*col)
    g = g if next(x for x in col if x) > 0 else -g
    return [x // g for x in col]


def pi_decomposition(D: DimensionMatrix, qoi: DimensionVector) -> PiDecomposition:
    """Rank, particular solution w, null basis W and A = [w | W] from one elimination.

    The augmented matrix [D | v(qoi)] is eliminated once. The pivot rule
    looks only at columns <= c, so its first m columns pivot exactly as D
    alone does: the rank is the number of pivots left of v, and a pivot on v
    means the qoi's units cannot be formed. The reduced rows give w (free
    variables zero) and one null column per free variable (that variable
    nonzero, the other free ones zero) directly, with no back-substitution.

    Incomplete systems (rank < k) are permitted with a warning; the number of
    pi groups is then m - rank. A dimensionless quantity of interest gets a
    zero w and A = W.
    """
    if qoi.system != D.system:
        raise ModelError("the quantity of interest uses a different unit system")
    m = D.m
    scaled = [
        _integer_row(row + (v,)) for row, v in zip(D.entries, qoi.exponents, strict=True)
    ]
    reduced, d, pivots = _gauss_jordan(scaled)
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
    # one null column of [D | v] per free column, v's own included: W's columns have
    # x_v = 0 and v's is (-w, 1) up to a factor, so D·W = 0 and D·w = v are one check
    free = [c for c in range(m + 1) if c not in pivots]
    columns = [_null_column(reduced, d, pivots, f) for f in free]
    # each product is summed over its column's support, the pivots and f: the
    # full-rank check below proves that every other free entry is zero
    at_pivots = [[col[c] for c in pivots] for col in columns]
    for row in scaled:
        row_at_pivots = [row[c] for c in pivots]
        if any(
            sum(map(operator.mul, row_at_pivots, x), row[f] * col[f])
            for f, col, x in zip(free, columns, at_pivots)
        ):
            raise NumericalVerificationFailure("w or W failed the exact checks D·w = v, D·W = 0")
    # On the free rows W is diagonal with a nonzero diagonal and w is zero, so
    # W has full column rank and a nonzero w lies outside its span.
    dimensionless = is_dimensionless(qoi)
    full_rank = all(col[f] and [col[g] for g in free].count(0) == len(free) - 1 for f, col in zip(free, columns))
    v_column = columns.pop()
    if not (full_rank and (dimensionless or any(v_column[:m]))):
        raise NumericalVerificationFailure("A failed the exact full-column-rank check")
    zero = Fraction(0)
    w = tuple(Fraction(-x, v_column[m]) if x else zero for x in v_column[:m])
    W = tuple(zip(*columns))[:m] if columns else ((),) * m
    A = W if dimensionless else tuple((x,) + row for x, row in zip(w, W))
    return PiDecomposition(w=w, W=W, A=A, rank=rank, qoi_dimensionless=dimensionless)
