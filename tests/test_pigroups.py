"""Exact dimension-matrix algebra: rank, particular solutions, null bases."""

import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ridgelaw.dimensions import DimensionVector, QuantityDecl, UnitSystem, make_dimension
from ridgelaw.errors import ModelError
from ridgelaw.pigroups import DimensionMatrix, NumericalVerificationFailure, build_dimension_matrix, pi_decomposition
from ridgelaw.models import load_model
from ridgelaw.subspace import inclusion_residual
from tests.conftest import CLASSICAL_PIPE_W, exact_matvec

KMS = UnitSystem(("kg", "m", "s"))
PIPE = load_model("pipeflow_laminar")


def fr(v):
    return tuple(Fraction(x) for x in v)


def inclusion_both_ways(B1, B2):
    """Larger of the two directed inclusion residuals: zero iff the spans agree."""
    return max(inclusion_residual(B1, B2).total, inclusion_residual(B2, B1).total)


def matrix(system, rows, names=None):
    rows = tuple(fr(r) for r in rows)
    names = tuple(names or (f"q{j}" for j in range(len(rows[0]))))
    return DimensionMatrix(rows, names, system)


@pytest.fixture(scope="module")
def pipe_D():
    return build_dimension_matrix(PIPE.quantities)


class TestBuildDimensionMatrix:
    def test_pipe_rows_match_unit_bookkeeping(self, pipe_D):
        assert pipe_D.entries == (
            fr([1, 1, 0, 0, 1]),
            fr([-3, -1, 1, 1, -2]),
            fr([0, -1, 0, 0, -2]),
        )
        assert pipe_D.column_names == ("rho", "mu", "D", "eps", "dPdL")

    def test_single_dimensionless_quantity(self):
        q = QuantityDecl("pi", make_dimension(KMS, []))
        D = build_dimension_matrix([q])
        assert D.entries == (fr([0]), fr([0]), fr([0]))

    def test_duplicate_quantities_give_identical_columns(self):
        vel = make_dimension(KMS, [("m", 1), ("s", -1)])
        D = build_dimension_matrix([QuantityDecl("v1", vel), QuantityDecl("v2", vel)])
        assert D.entries == (fr([0, 0]), fr([1, 1]), fr([-1, -1]))

    def test_empty_list_rejected(self):
        with pytest.raises(ModelError):
            build_dimension_matrix([])

    @pytest.mark.parametrize(
        "rows, message",
        [
            ((fr([1]), fr([0])), "^dimension matrix must have one row per fundamental unit$"),
            ((fr([1]), fr([0, 1]), fr([0])), "^dimension matrix rows must match the number of quantities$"),
        ],
    )
    def test_matrix_of_the_wrong_shape_rejected(self, rows, message):
        with pytest.raises(ModelError, match=message):
            DimensionMatrix(rows, ("q",), KMS)

    def test_mixed_systems_rejected(self):
        other = UnitSystem(("m", "s"))
        with pytest.raises(ModelError):
            build_dimension_matrix(
                [
                    QuantityDecl("a", make_dimension(KMS, [])),
                    QuantityDecl("b", make_dimension(other, [])),
                ]
            )


def decompose(D, target=None):
    """pi_decomposition of D; the target defaults to dimensionless."""
    return pi_decomposition(D, target or DimensionVector(fr([0] * D.k), D.system))


def exact_rank(rows):
    """Rank by plain Gauss-Jordan elimination over the rationals (an independent oracle)."""
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_one_elimination_per_decomposition(pipe_D, monkeypatch):
    import ridgelaw.pigroups

    calls = []
    original = ridgelaw.pigroups._gauss_jordan

    def counting(rows):
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(ridgelaw.pigroups, "_gauss_jordan", counting)
    pi_decomposition(pipe_D, PIPE.qoi)
    assert calls == [3]


class TestRankExact:
    def test_pipe_matrix_has_rank_three(self, pipe_D):
        assert decompose(pipe_D, PIPE.qoi).rank == 3

    def test_zero_matrix(self):
        with pytest.warns(UserWarning, match="rank 0"):
            assert decompose(matrix(KMS, [[0, 0], [0, 0], [0, 0]])).rank == 0

    def test_identity(self):
        assert decompose(matrix(KMS, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])).rank == 3


class TestSolveParticular:
    def test_pipe_velocity_target(self, pipe_D):
        w = decompose(pipe_D, PIPE.qoi).w
        assert exact_matvec(pipe_D.entries, w) == list(PIPE.qoi.exponents)

    def test_poiseuille_monomial_is_also_a_solution(self, pipe_D):
        # independent oracle: the laminar closed form dPdL * D^2 / (32 mu)
        # has velocity units, so its exponents must solve the same system
        candidate = fr([0, -1, 2, 0, 1])
        assert exact_matvec(pipe_D.entries, candidate) == list(PIPE.qoi.exponents)

    def test_zero_target_gives_zero_solution(self, pipe_D):
        assert decompose(pipe_D).w == fr([0, 0, 0, 0, 0])

    def test_scalar_rational_solve(self):
        one_unit = UnitSystem(("m",))
        D = DimensionMatrix((fr([2]),), ("q",), one_unit)
        target = DimensionVector(fr([1]), one_unit)
        assert decompose(D, target).w == (Fraction(1, 2),)

    def test_inconsistent_target_rejected(self):
        # a target with time units cannot come from purely spatial columns
        D = matrix(KMS, [[0, 0], [1, 2], [0, 0]])
        target = DimensionVector(fr([0, 0, 1]), KMS)
        with pytest.warns(UserWarning, match="rank 1"), pytest.raises(ModelError, match="cannot be formed"):
            decompose(D, target)


class TestNullSpaceBasis:
    def test_pipe_null_space_matches_classical_groups(self, pipe_D):
        W = decompose(pipe_D, PIPE.qoi).W
        assert exact_matvec(pipe_D.entries, [row[0] for row in W]) == [0, 0, 0]
        assert exact_matvec(pipe_D.entries, [row[1] for row in W]) == [0, 0, 0]
        Wf = np.array([[float(x) for x in row] for row in W])
        assert Wf.shape == (5, 2)
        assert inclusion_both_ways(Wf, CLASSICAL_PIPE_W) <= 1e-24

    def test_invertible_matrix_has_empty_basis(self):
        D = matrix(KMS, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        W = decompose(D).W
        assert all(len(row) == 0 for row in W)

    def test_ratio_group(self):
        one_unit = UnitSystem(("m",))
        D = DimensionMatrix((fr([1, -1]),), ("a", "b"), one_unit)
        W = decompose(D).W
        assert W == (fr([1]), fr([1]))

    def test_columns_are_integer_normalized_with_positive_lead(self):
        with pytest.warns(UserWarning, match="rank 1"):
            W = decompose(matrix(KMS, [[2, 1], [0, 0], [0, 0]])).W
        col = [row[0] for row in W]
        assert all(x.denominator == 1 for x in col)
        first = next(x for x in col if x != 0)
        assert first > 0


class TestAssembleA:
    def test_pipe_A_has_rank_three(self, pipe_D):
        A = decompose(pipe_D, PIPE.qoi).A
        assert len(A) == 5 and len(A[0]) == 3
        assert exact_rank(A) == 3

    def test_single_entry(self):
        one_unit = UnitSystem(("m",))
        D = DimensionMatrix((fr([1]),), ("q",), one_unit)
        A = decompose(D, DimensionVector(fr([1]), one_unit)).A
        assert A == ((Fraction(1),),)

    def test_two_by_two(self):
        one_unit = UnitSystem(("m",))
        D = DimensionMatrix((fr([1, 0]),), ("q", "p"), one_unit)
        A = decompose(D, DimensionVector(fr([1]), one_unit)).A
        assert A == (fr([1, 0]), fr([0, 1]))


# --- randomized exactness properties ------------------------------------

small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def rational_matrix(k, m):
    return st.lists(
        st.lists(small_fracs, min_size=m, max_size=m), min_size=k, max_size=k
    )


@st.composite
def matrix_and_target(draw):
    """A random D with a consistent, a dimensionless or an arbitrary target."""
    k = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=5))
    rows = draw(rational_matrix(k, m))
    system = UnitSystem(tuple(f"u{i}" for i in range(k)))
    D = DimensionMatrix(tuple(tuple(r) for r in rows), tuple(f"q{j}" for j in range(m)), system)
    kind = draw(st.sampled_from(["consistent", "dimensionless", "arbitrary"]))
    if kind == "consistent":
        z = draw(st.lists(small_fracs, min_size=m, max_size=m))
        exponents = tuple(exact_matvec(D.entries, z))
    elif kind == "dimensionless":
        exponents = fr([0] * k)
    else:
        exponents = tuple(draw(st.lists(small_fracs, min_size=k, max_size=k)))
    return D, DimensionVector(exponents, system)


@settings(deadline=None, max_examples=120)
@given(case=matrix_and_target())
def test_solve_and_null_space_are_exact(case):
    D, target = case
    rank = exact_rank(D.entries)
    consistent = exact_rank([row + (t,) for row, t in zip(D.entries, target.exponents)]) == rank
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if not consistent:
            with pytest.raises(ModelError, match="cannot be formed"):
                pi_decomposition(D, target)
            assert len(caught) == (rank < D.k)
            return
        decomp = pi_decomposition(D, target)
    assert len(caught) == (rank < D.k)
    w, W, n = decomp.w, decomp.W, decomp.n
    assert len(W) == D.m and all(type(x) is int for row in W for x in row)
    assert exact_matvec(D.entries, w) == list(target.exponents)
    assert decomp.rank == rank and rank + n == D.m
    for j in range(n):
        col = [row[j] for row in W]
        assert exact_matvec(D.entries, col) == [0] * D.k
        # each column is primitive: integers with gcd 1 and a positive lead
        assert all(x.denominator == 1 for x in col)
        assert math.gcd(*(x.numerator for x in col)) == 1
        assert next(x for x in col if x != 0) > 0
    # on the free rows (the coordinates that are not pivots of D) W is
    # diagonal and nonzero and w is zero
    ranks = [exact_rank([row[:c] for row in D.entries]) for c in range(D.m + 1)]
    free = [c for c in range(D.m) if ranks[c + 1] == ranks[c]]
    assert len(free) == n
    for j, f in enumerate(free):
        assert all((W[g][j] != 0) == (g == f) for g in free)
        assert w[f] == 0
    dimensionless = not any(target.exponents)
    assert decomp.qoi_dimensionless == dimensionless
    if dimensionless:
        assert not any(w) and decomp.A == W
    else:
        assert decomp.A == tuple((w[i],) + W[i] for i in range(D.m))
        assert exact_rank(decomp.A) == n + 1


def test_W_holds_ints_and_A_float_is_unchanged(pipe_D):
    decomp = decompose(pipe_D, PIPE.qoi)
    assert all(type(x) is int for row in decomp.W for x in row)
    assert all(type(x) is Fraction for x in decomp.w)
    assert all(row[0] is x and row[1:] == W_row for row, x, W_row in zip(decomp.A, decomp.w, decomp.W))
    # the doubles of the all-Fraction A, bit for bit
    expected = np.array([[float(Fraction(x)) for x in row] for row in decomp.A])
    assert decomp.A_float().tobytes() == expected.tobytes()


def test_pi_values_invariant_under_null_orthogonal_rescale(pipe_D):
    # log c in the row space of D is orthogonal to every null column, so the
    # pi groups cannot see the rescaling
    rng = np.random.default_rng(7)
    Wf = np.array([[float(x) for x in row] for row in decompose(pipe_D).W])
    Df = np.array([[float(x) for x in row] for row in pipe_D.entries])
    q = np.exp(rng.uniform(-1.0, 1.0, size=5))
    y = rng.uniform(-0.5, 0.5, size=3)
    c = np.exp(Df.T @ y)
    base = np.exp(Wf.T @ np.log(q))
    scaled = np.exp(Wf.T @ np.log(c * q))
    assert np.allclose(scaled, base, rtol=1e-12)


def test_null_basis_column_space_survives_column_permutation(pipe_D):
    # permuting quantity order changes which columns are pivots, but the
    # (un-permuted) null space itself must not change
    perm = [4, 2, 0, 3, 1]
    rows = tuple(tuple(row[j] for j in perm) for row in pipe_D.entries)
    D_perm = DimensionMatrix(rows, tuple(pipe_D.column_names[j] for j in perm), pipe_D.system)
    W_perm = decompose(D_perm).W
    inverse = np.argsort(perm)
    W_perm_f = np.array([[float(x) for x in row] for row in W_perm])[inverse, :]
    W_f = np.array([[float(x) for x in row] for row in decompose(pipe_D).W])
    assert inclusion_both_ways(W_perm_f, W_f) <= 1e-24


def test_pi_decomposition_flags_dimensionless_qoi(pipe_D):
    zero = make_dimension(KMS, [])
    decomp = pi_decomposition(pipe_D, zero)
    assert decomp.qoi_dimensionless
    assert all(x == 0 for x in decomp.w)
    assert decomp.A == decomp.W


def test_pi_decomposition_rejects_a_qoi_of_another_unit_system(pipe_D):
    velocity = make_dimension(UnitSystem(("m", "s", "kg")), [("m", 1), ("s", -1)])
    with pytest.raises(ModelError, match="^the quantity of interest uses a different unit system$"):
        pi_decomposition(pipe_D, velocity)


def test_pi_decomposition_warns_on_incomplete_system():
    length_only = make_dimension(KMS, [("m", 1)])
    quantities = [QuantityDecl("a", length_only), QuantityDecl("b", length_only)]
    with pytest.warns(UserWarning, match="rank"):
        pi_decomposition(build_dimension_matrix(quantities), length_only)


# each wrong column that _null_column could return: (which column to alter, how)
def _on_another_free_column(col, f, pivots, free):
    col[next(g for g in free if g != f)] = 1


def _pivot_entry_off_by_one(col, f, pivots, free):
    col[pivots[0]] += 1


WRONG_COLUMNS = {
    "W column nonzero on another free column": ("W", _on_another_free_column),
    "W column with a pivot entry off by one": ("W", _pivot_entry_off_by_one),
    "w column with a pivot entry off by one": ("v", _pivot_entry_off_by_one),
    "w column nonzero on a free column": ("v", _on_another_free_column),
}


@pytest.mark.parametrize("model", ["pipeflow_laminar", "tests/data/pi_wide.json"])
@pytest.mark.parametrize("case", sorted(WRONG_COLUMNS))
def test_a_wrong_null_column_fails_the_exact_checks(monkeypatch, model, case):
    # D·w = v and D·W = 0 are summed over each column's support only; an entry off it is caught all the same
    import ridgelaw.pigroups

    which, alter = WRONG_COLUMNS[case]
    spec = load_model(str(Path(__file__).parents[1] / model) if model.endswith(".json") else model)
    D = build_dimension_matrix(spec.quantities)
    original = ridgelaw.pigroups._null_column
    altered = []

    def wrong(reduced, d, pivots, f):
        col = original(reduced, d, pivots, f)
        m = len(reduced[0]) - 1
        if not altered and (f == m) == (which == "v"):
            alter(col, f, pivots, [c for c in range(m) if c not in pivots])
            altered.append(f)
        return col

    pi_decomposition(D, spec.qoi)  # the true columns pass
    monkeypatch.setattr(ridgelaw.pigroups, "_null_column", wrong)
    with pytest.raises(NumericalVerificationFailure):
        pi_decomposition(D, spec.qoi)
    assert len(altered) == 1
