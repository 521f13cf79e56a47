"""Finite-difference gradients, C estimation, and the eigendecomposition."""

import math
import tracemalloc

import numpy as np
import pytest

from ridgelaw import activesubspace, quadrature
from ridgelaw.activesubspace import (
    active_subspace,
    eigendecompose,
    estimate_C,
    estimate_subspaces,
    fd_gradient,
    pullback_T,
    _gradient_outer_sums,
)
from ridgelaw.errors import EvaluationError, ModelError, NumericalError
from ridgelaw.quadrature import TensorGrid, tensor_grid
from ridgelaw.subspace import inclusion_residual

H = 1e-5


class TestFdGradient:
    def test_constant_function(self):
        g = fd_gradient(lambda x: 4.2, np.zeros(3), H)
        assert np.array_equal(g, np.zeros(3))

    def test_linear_function_is_exact(self):
        a = np.array([2.0, -0.5, 0.25])
        g = fd_gradient(lambda x: float(a @ x), np.array([0.5, 0.25, -1.0]), H)
        assert g == pytest.approx(a, abs=1e-10)

    def test_quadratic_has_first_order_bias(self):
        g = fd_gradient(lambda x: float(x[0] ** 2), np.array([1.0]), 1e-3)
        assert g[0] == pytest.approx(2.001, abs=1e-10)

    def test_nonfinite_value_carries_the_point(self):
        def f(x):
            return math.inf if x[0] > 0.5 else 1.0

        with pytest.raises(EvaluationError) as err:
            fd_gradient(f, np.array([0.5 - 1e-6, 0.0]), 1e-3)
        assert err.value.point is not None
        assert err.value.point[0] > 0.5

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            fd_gradient(lambda x: 1.0, np.zeros(2), 0.0)


@pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", ["fd_gradient", "estimate_C", "estimate_subspaces", "pullback_T"])
def test_step_must_be_positive_and_finite(entry, h):
    grid = tensor_grid(2, [(-1.0, 1.0)] * 2)
    calls = []

    def f(x):
        calls.append(len(x))
        return x[..., 0]

    run = {
        "fd_gradient": lambda: fd_gradient(lambda x: f(x[None, :])[0], np.zeros(2), h),
        "estimate_C": lambda: estimate_C(f, grid, h),
        "estimate_subspaces": lambda: estimate_subspaces(f, grid, [1e-3, h]),
        "pullback_T": lambda: pullback_T(f, np.eye(2)[:, :1], grid, h),
    }[entry]
    with pytest.raises(ValueError, match=rf"must be positive and finite, got {h}$"):
        run()
    assert calls == []  # rejected before the model is called


@pytest.mark.parametrize("h", [1e-17, 5e-324])
@pytest.mark.parametrize("entry", ["fd_gradient", "estimate_C", "estimate_subspaces", "pullback_T"])
def test_step_must_move_the_largest_input(entry, h):
    # on [20, 21] a step below ~3.6e-15 gives x + h == x: a zero gradient everywhere
    grid = tensor_grid(2, [(20.0, 21.0)] * 2)
    calls = []

    def f(x):
        calls.append(len(x))
        return x[..., 0]

    run = {
        "fd_gradient": lambda: fd_gradient(lambda x: f(x[None, :])[0], np.full(2, 20.5), h),
        "estimate_C": lambda: estimate_C(f, grid, h),
        "estimate_subspaces": lambda: estimate_subspaces(f, grid, [1e-3, h]),
        "pullback_T": lambda: pullback_T(f, np.eye(2)[:, :1], grid, h),
    }[entry]
    with pytest.raises(ValueError, match=rf"^finite-difference step {h} is below the spacing of the inputs: "):
        run()
    assert calls == []


def test_step_that_moves_the_largest_input_is_kept():
    # 1e-14 is above the spacing of doubles near 20 (3.6e-15)
    g = fd_gradient(lambda x: 3.0 * x[0] - x[1], np.array([20.5, 1.0]), 1e-14)
    assert np.all(g != 0.0)


class TestEstimateC:
    def test_linear_function_gives_rank_one_outer_product(self):
        a = np.array([1.0, -2.0, 0.5])
        grid = tensor_grid(3, [(-1.0, 1.0)] * 3)
        C = estimate_C(lambda x: x @ a, grid, H)
        assert C == pytest.approx(np.outer(a, a), abs=1e-9)

    def test_ridge_function_energy_stays_in_span(self):
        rng = np.random.default_rng(5)
        A = np.linalg.qr(rng.normal(size=(4, 2)))[0]

        def f(x):
            y = np.asarray(x) @ A
            return np.sin(y[..., 0]) + y[..., 1] ** 2 + 0.3 * y[..., 0] * y[..., 1]

        grid = tensor_grid(5, [(-1.0, 1.0)] * 4)
        est = eigendecompose(estimate_C(f, grid, 1e-6))
        lam = est.eigenvalues
        assert lam[2] / lam[0] < 1e-9  # rank at most n = 2 up to FD noise
        basis = est.eigenvectors[:, :2]
        assert inclusion_residual(basis, A).total < 1e-9

    def test_additive_squares_give_diagonal_C(self):
        grid = tensor_grid(6, [(-1.0, 1.0), (-1.0, 1.0)])
        C = estimate_C(lambda x: x[..., 0] ** 2 + x[..., 1] ** 2, grid, H)
        assert abs(C[0, 1]) < 1e-9
        assert C[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-3)  # E[(2x)^2], x uniform

    def test_rows_only_functions_are_rejected(self):
        a = np.array([1.0, 2.0])
        grid = tensor_grid(3, [(0.0, 1.0)] * 2)
        calls = []

        def scalar_f(x):
            calls.append(np.shape(x))
            assert np.ndim(x) == 1, "called with a batch"
            return float(a @ x)

        with pytest.raises(AssertionError, match="called with a batch"):
            estimate_C(scalar_f, grid, H)
        assert calls == [(9, 2)]  # one batched call, no per-row retry

        wrong_shape = lambda x: x @ np.eye(2)  # (n, 2) values for n points
        with pytest.raises(ModelError, match=r"shape \(9, 2\) for 9 points"):
            estimate_C(wrong_shape, grid, H)

    def test_deterministic_across_reruns(self, monkeypatch):
        def f(x):
            return np.exp(0.3 * x[..., 0]) * np.cos(x[..., 1]) + x[..., 2] ** 3

        monkeypatch.setattr(quadrature, "DEFAULT_CHUNK", 64)
        grid = tensor_grid(7, [(-1.0, 1.0)] * 3)
        c1 = estimate_C(f, grid, H)
        c2 = estimate_C(f, grid, H)
        assert np.array_equal(c1, c2)

    def test_symmetric_by_construction(self):
        grid = tensor_grid(4, [(-1.0, 1.0)] * 3)
        C = estimate_C(lambda x: np.sin(x[..., 0] * x[..., 1]) + x[..., 2], grid, H)
        assert np.array_equal(C, C.T)

    @pytest.mark.parametrize(
        "estimate, distinct_steps",
        [
            (lambda f, grid: estimate_C(f, grid, H), 1),
            (lambda f, grid: estimate_subspaces(f, grid, [1e-2, 1e-3, 1e-2]), 2),
        ],
    )
    def test_symmetrized_once_per_step_however_many_chunks(self, estimate, distinct_steps, monkeypatch):
        f = lambda x: np.sin(x[..., 0] * x[..., 1]) + x[..., 2]
        calls = []
        original = np.tril

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np, "tril", counting)
        counts = []
        for chunk_size in (1, 4096):
            monkeypatch.setattr(quadrature, "DEFAULT_CHUNK", chunk_size)
            grid = tensor_grid(4, [(-1.0, 1.0)] * 3)  # 64 points: 64 chunks of 1, or one chunk
            calls.clear()
            estimate(f, grid)
            counts.append(len(calls))
        # one mirror of the summed lower triangle per step: two np.tril calls
        assert counts == [2 * distinct_steps] * 2

    def test_equals_the_sum_of_chunkwise_symmetrized_outer_products(self, monkeypatch):
        # mirroring the summed lower triangle once gives the same bits as mirroring every chunk
        f = lambda x: np.exp(0.3 * x[..., 0]) * np.cos(x[..., 1]) + x[..., 2] ** 3
        monkeypatch.setattr(quadrature, "DEFAULT_CHUNK", 4)
        grid = tensor_grid(5, [(-1.0, 1.0)] * 3)  # 125 points: 32 chunks
        expected = 0.0
        for X, w in grid.chunks():
            # (m, n): one row per dimension
            D = next(activesubspace._fd_differences(f, X, [H], np.empty(X.shape[::-1])))
            M = (D * (w / (H * H))) @ D.T
            expected += np.tril(M) + np.tril(M, -1).T
        assert np.array_equal(estimate_C(f, grid, H), expected)

    @pytest.mark.parametrize("model", ["laminar", "turbulent", "plain"])
    def test_within_rounding_of_dividing_each_difference_by_h(self, model, laminar_model, turbulent_model):
        # 1/h^2 on the weights, against ((D / h) * w) @ (D / h).T on the same values: rounding only
        plain = lambda x: np.exp(0.3 * x[..., 0]) * np.cos(x[..., 1]) + x[..., 2] ** 3
        f, grid = {
            "laminar": (laminar_model.f, laminar_model.grid(7)),
            "turbulent": (turbulent_model.f, turbulent_model.grid(7)),
            "plain": (plain, tensor_grid(7, [(-1.0, 1.0)] * 3)),
        }[model]
        steps = [1e-2, 1e-4, 1e-6]
        divided = [0.0] * len(steps)
        for Y, w in grid.chunks():
            values = activesubspace._values(f, Y, steps, np.empty(Y.shape[::-1]))
            f0 = next(values)
            for k, (h, V) in enumerate(zip(steps, values)):
                G = (V - f0) / h
                divided[k] += (G * w) @ G.T
        for C, S in zip(_gradient_outer_sums(f, grid.chunks(), steps), divided):
            S = np.tril(S) + np.tril(S, -1).T
            assert np.max(np.abs(C - S)) <= 1e-14 * np.linalg.norm(S)

    @pytest.mark.parametrize(
        "f",
        [
            lambda x: np.where(x[..., 0] >= 0.005, 1e308, -1e308),  # the difference overflows at the middle node
            lambda x: 1e200 * x[..., 0],  # finite differences whose product overflows
        ],
        ids=["difference", "product"],
    )
    def test_finite_values_whose_differences_or_product_overflow_end_in_a_numerical_error(self, f):
        # no model value is non-finite, so no EvaluationError: the non-finite C fails the eigensolve
        grid = tensor_grid(3, [(-1.0, 1.0)] * 2)  # nodes 0 and +-0.775 in each dimension
        C = estimate_C(f, grid, 1e-2)
        assert not np.isfinite(C).all()
        with pytest.raises(NumericalError, match="non-finite entries"):
            eigendecompose(C)
        with pytest.raises(NumericalError, match="non-finite entries"):
            estimate_subspaces(f, grid, [1e-2, 1e-3])


class TestMultiStepPass:
    STEPS = (1e-2, 1e-3, 1e-2, 1e-5)  # 1e-2 repeats

    @staticmethod
    def f(x):
        return np.exp(0.3 * x[..., 0]) * np.cos(x[..., 1]) + x[..., 2] ** 3

    @pytest.mark.parametrize("chunk_size", [1, 4])  # 343 points: 343 chunks, or 86 with a short last one
    def test_each_step_equals_its_one_step_estimate(self, chunk_size, monkeypatch):
        monkeypatch.setattr(quadrature, "DEFAULT_CHUNK", chunk_size)
        grid = tensor_grid(7, [(-1.0, 1.0)] * 3)
        sums = _gradient_outer_sums(self.f, grid.chunks(), self.STEPS)
        ests = estimate_subspaces(self.f, grid, self.STEPS)
        assert len(ests) == len(self.STEPS)
        for h, C, est in zip(self.STEPS, sums, ests):
            assert np.array_equal(C, estimate_C(self.f, grid, h))
            one = eigendecompose(estimate_C(self.f, grid, h))
            assert np.array_equal(est.eigenvalues, one.eigenvalues)
            assert np.array_equal(est.eigenvectors, one.eigenvectors)
        assert ests[0] is ests[2]

    def test_lifted_steps_equal_pullback(self, monkeypatch):
        monkeypatch.setattr(quadrature, "DEFAULT_CHUNK", 64)
        grid = tensor_grid(5, [(-1.0, 1.0)] * 3)
        A = np.linalg.qr(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]]))[0]
        g = lambda y: np.sin(y[..., 0]) * y[..., 1] ** 2
        lifted = ((X @ A, w) for X, w in grid.chunks())
        sums = _gradient_outer_sums(g, lifted, [1e-3, 1e-6])
        for h, T in zip([1e-3, 1e-6], sums):
            assert np.array_equal(T, pullback_T(g, A, grid, h))

    def test_one_chunk_call_and_one_plus_m_s_evaluations_per_chunk(self, monkeypatch):
        monkeypatch.setattr(quadrature, "DEFAULT_CHUNK", 16)
        grid = tensor_grid(3, [(-1.0, 1.0)] * 3)  # 27 points: chunks of 16 and 11
        chunk_calls = []
        original_chunk = TensorGrid.chunk

        def counting_chunk(grid_self, start, stop):
            chunk_calls.append((start, stop))
            return original_chunk(grid_self, start, stop)

        monkeypatch.setattr(TensorGrid, "chunk", counting_chunk)
        rows = []

        def counting_f(x):
            rows.append(x.shape[0])
            return self.f(x)

        estimate_subspaces(counting_f, grid, self.STEPS)
        assert chunk_calls == [(0, 16), (16, 27)]
        per_chunk = 1 + grid.ndim * 3  # three distinct steps
        assert rows == [16] * per_chunk + [11] * per_chunk

    def test_nonpositive_step_rejected(self):
        grid = tensor_grid(3, [(-1.0, 1.0)] * 2)
        with pytest.raises(ValueError, match="positive"):
            estimate_subspaces(lambda x: x[..., 0], grid, [1e-3, 0.0])


class TestFdValuesHook:
    """A model with fd_values supplies its shifted values; the kernel still checks each one."""

    class Linear:
        def __init__(self, bad_shift=None):
            self.bad_shift = bad_shift  # (step, dimension) whose third row turns inf

        def __call__(self, x):
            return x @ np.array([1.0, 2.0, -3.0])

        def fd_values(self, Y, steps, rows):
            yield self(Y)
            for h in steps:  # rows is the caller's one step array
                for i in range(Y.shape[1]):
                    shifted = Y.copy()
                    shifted[:, i] += h
                    rows[i] = self(shifted)
                    if (h, i) == self.bad_shift:
                        rows[i, 2] = np.inf
                yield rows

    def test_gives_the_plain_path_result(self, monkeypatch):
        monkeypatch.setattr(quadrature, "DEFAULT_CHUNK", 16)
        grid = tensor_grid(4, [(-1.0, 1.0)] * 3)
        hook = _gradient_outer_sums(self.Linear(), grid.chunks(), [1e-2, 1e-4])
        plain = _gradient_outer_sums(lambda x: self.Linear()(x), grid.chunks(), [1e-2, 1e-4])
        for C, C_plain in zip(hook, plain):
            assert np.array_equal(C, C_plain)

    def test_nonfinite_shifted_value_carries_the_shifted_point(self, monkeypatch):
        monkeypatch.setattr(quadrature, "DEFAULT_CHUNK", 16)
        grid = tensor_grid(3, [(-1.0, 1.0)] * 3)
        with pytest.raises(EvaluationError) as err:
            estimate_subspaces(self.Linear(bad_shift=(1e-3, 1)), grid, [1e-2, 1e-3])
        expected = grid.chunk(0, 16)[0][2]
        expected[1] += 1e-3
        assert np.array_equal(err.value.point, expected)

    def test_wrong_shape_is_a_model_error(self):
        class Short(self.Linear):
            def fd_values(self, Y, steps, rows):
                for values in super().fd_values(Y, steps, rows):
                    yield values[:-1]

        with pytest.raises(ModelError, match="returned shape"):
            estimate_C(Short(), tensor_grid(2, [(-1.0, 1.0)] * 3), H)

    def test_step_array_of_wrong_shape_is_a_model_error(self):
        class OneValuePerStep(self.Linear):
            def fd_values(self, Y, steps, rows):
                values = super().fd_values(Y, steps, rows)
                yield next(values)
                for filled in values:
                    yield filled[0]  # the first dimension's values only

        message = r"^model fd_values yielded another array for step 0\.001; it must fill rows and yield it$"
        with pytest.raises(ModelError, match=message):
            estimate_C(OneValuePerStep(), tensor_grid(2, [(-1.0, 1.0)] * 3), 1e-3)

    def test_read_only_step_array_is_a_model_error(self):
        class ReadOnly(self.Linear):
            def fd_values(self, Y, steps, rows):
                for values in super().fd_values(Y, steps, rows):
                    yield np.broadcast_to(values, values.shape)  # a read-only view

        with pytest.raises(ModelError, match=r"^model fd_values yielded another array for step 0\.001;"):
            estimate_C(ReadOnly(), tensor_grid(2, [(-1.0, 1.0)] * 3), 1e-3)

    def test_the_pass_fills_one_step_array_per_chunk_shape(self, monkeypatch):
        seen = []  # the arrays themselves, so no id is reused

        class Recording(self.Linear):
            def fd_values(self, Y, steps, rows):
                seen.append(rows)
                yield from super().fd_values(Y, steps, rows)

        monkeypatch.setattr(quadrature, "DEFAULT_CHUNK", 16)
        # 64 points: four equal chunks; 125 points: seven of 16 and a last one of 13
        for order, shapes in ((4, [(3, 16)] * 4), (5, [(3, 16)] * 7 + [(3, 13)])):
            seen.clear()
            estimate_subspaces(Recording(), tensor_grid(order, [(-1.0, 1.0)] * 3), [1e-2, 1e-3])
            assert [rows.shape for rows in seen] == shapes
            assert len({id(rows) for rows in seen}) == len(set(shapes))

    def test_the_plain_path_fills_the_rows_it_is_given(self):
        Y, _ = tensor_grid(2, [(-1.0, 1.0)] * 3).chunk(0, 8)
        rows = np.empty((3, 8))
        f0, *steps = activesubspace._shifted_values(self.Linear(), Y, [1e-2, 1e-3], rows)
        assert len(steps) == 2 and all(values is rows for values in steps)


class TestBatchedChecks:
    """f(Y) is checked first; each step's array is checked to be the pass's own, then for finiteness at once."""

    class Spoiled:
        """A linear model whose k-th yielded array (0 is f(Y)) gets spoiled entries, or loses its last point."""

        def __init__(self, spoil, short=()):
            self.spoil = spoil  # {k: [(index, value), ...]}
            self.short = short  # the k whose array loses its last point

        def __call__(self, x):
            return x @ np.array([1.0, 2.0, -3.0])

        def fd_values(self, Y, steps, rows):
            values = self(Y)
            for k in range(1 + len(steps)):  # f(Y), then rows filled for each step
                if k:
                    values = rows
                    for i in range(Y.shape[1]):
                        shifted = Y.copy()
                        shifted[:, i] += steps[k - 1]
                        rows[i] = self(shifted)
                for index, bad in self.spoil.get(k, ()):
                    values[index] = bad
                yield values[..., :-1] if k in self.short else values

    STEPS = [1e-2, 1e-3]

    def setup_method(self):
        self.GRID = tensor_grid(3, [(-1.0, 1.0)] * 3)  # fresh: its tiles are sized on the first chunk

    def run(self, monkeypatch, spoil, short=()):
        monkeypatch.setattr(quadrature, "DEFAULT_CHUNK", 16)
        return estimate_subspaces(self.Spoiled(spoil, short), self.GRID, self.STEPS)

    def test_two_dimensions_of_one_step_name_the_first(self, monkeypatch):
        # step 1e-3 is array 2: dimension 2 spoils row 1, dimension 1 row 5
        with pytest.raises(EvaluationError, match=r"^model returned non-finite value inf at point") as err:
            self.run(monkeypatch, {2: [((2, 1), np.nan), ((1, 5), np.inf)]})
        expected = self.GRID.chunk(0, 16)[0][5]
        expected[1] += 1e-3
        assert np.array_equal(err.value.point, expected)

    def test_nonfinite_f_at_Y_is_reported_first(self, monkeypatch):
        with pytest.raises(EvaluationError, match=r"^model returned non-finite value nan at point") as err:
            self.run(monkeypatch, {0: [(3, np.nan)], 1: [((0, 0), np.inf)]})
        assert np.array_equal(err.value.point, self.GRID.chunk(0, 16)[0][3])

    def test_wrong_shape_is_a_model_error_before_the_step_is_checked(self, monkeypatch):
        with pytest.raises(ModelError, match=r"^model fd_values yielded another array for step 0\.01;"):
            self.run(monkeypatch, {1: [((0, 0), np.inf)]}, short={1})

    def test_plain_row_of_wrong_shape_is_a_model_error_before_the_step_is_checked(self, monkeypatch):
        # a plain callable's rows are shape-checked as they arrive: dimension 0's inf is never reported
        def f(x):
            values = x @ np.array([1.0, 2.0, -3.0])
            if x[0, 0] != self.GRID.chunk(0, 1)[0][0, 0]:
                values[0] = np.inf  # dimension 0 shifted
            return values[:-1] if x[0, 1] != self.GRID.chunk(0, 1)[0][0, 1] else values  # dimension 1 shifted

        monkeypatch.setattr(quadrature, "DEFAULT_CHUNK", 16)
        with pytest.raises(ModelError, match=r"returned shape \(15,\) for 16 points"):
            estimate_subspaces(f, self.GRID, self.STEPS)

    def test_C_agrees_with_the_column_major_gradient_layout(self, turbulent_model):
        # the same values summed as (D * v[:, None]).T @ D with D of shape (n, m), and summed per
        # 4096-point slice as an earlier pass did: only the order of the additions differs
        steps = [1e-2, 1e-4, 1e-6]
        grid = turbulent_model.grid(7)
        column_major, per_slice = [0.0] * len(steps), [0.0] * len(steps)
        for Y, w in grid.chunks():
            differences = activesubspace._fd_differences(turbulent_model.f, Y, steps, np.empty(Y.shape[::-1]))
            for k, (h, D) in enumerate(zip(steps, differences)):
                v = w / (h * h)
                columns = np.ascontiguousarray(D.T)
                column_major[k] += (columns * v[:, None]).T @ columns
                for c in (slice(0, 4096), slice(4096, None)):
                    per_slice[k] += (D[:, c] * v[c]) @ D[:, c].T
        for expected in (column_major, per_slice):
            for C, S in zip(_gradient_outer_sums(turbulent_model.f, grid.chunks(), steps), expected):
                S = np.tril(S) + np.tril(S, -1).T
                assert np.max(np.abs(C - S)) <= 1e-13 * np.linalg.norm(S)


class TestEigendecompose:
    def test_identity(self):
        est = eigendecompose(np.eye(3))
        assert est.eigenvalues == pytest.approx([1.0, 1.0, 1.0], abs=1e-14)
        assert np.allclose(est.eigenvectors.T @ est.eigenvectors, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        est = eigendecompose(np.diag([4.0, 1.0]))
        assert est.eigenvalues == pytest.approx([4.0, 1.0], abs=1e-14)
        assert abs(abs(est.eigenvectors[0, 0]) - 1.0) < 1e-14

    def test_two_by_two_hand_solved(self):
        est = eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert est.eigenvalues == pytest.approx([3.0, 1.0], abs=1e-12)
        u = est.eigenvectors[:, 0]
        assert abs(abs(u @ [1 / math.sqrt(2), 1 / math.sqrt(2)]) - 1.0) < 1e-12

    def test_three_by_three_hand_solved(self):
        # eigenvalues of [[2,1,0],[1,2,0],[0,0,5]] are 5, 3, 1
        C = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 5.0]])
        est = eigendecompose(C)
        assert est.eigenvalues == pytest.approx([5.0, 3.0, 1.0], abs=1e-12)

    def test_entries_near_the_double_range_are_solved(self):
        # squares of these entries overflow, which must not stop the solver
        est = eigendecompose(1e300 * np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert est.eigenvalues == pytest.approx([3e300, 1e300], rel=1e-12)

    def test_largest_doubles_solved_without_overflow(self):
        # (C + C^T) / 2 would overflow to inf and give nan eigenvalues
        est = eigendecompose(np.diag([1e308, 1e308]))
        assert est.eigenvalues.tolist() == [1e308, 1e308]

    @pytest.mark.parametrize("C", [1e308 * np.array([[1.5, 0.5], [0.5, 1.5]]), 1.7e308 * np.ones((2, 2))])
    def test_eigenvalue_past_the_double_range_is_a_numerical_failure(self, C):
        # the largest eigenvalue (2e308, 3.4e308) is not a double
        with pytest.raises(NumericalError, match="eigenvalues of a finite matrix are not finite"):
            eigendecompose(C)

    @pytest.mark.parametrize(
        "C, message",
        [
            (np.array([[1.0, 2.0], [0.0, 1.0]]), "asymmetric"),
            (np.ones((2, 3)), r"^expected a square matrix, got shape \(2, 3\)$"),
        ],
    )
    def test_asymmetric_input_rejected(self, C, message):
        with pytest.raises(ValueError, match=message):
            eigendecompose(C)

    def test_tiny_negative_eigenvalues_are_clamped(self):
        rng = np.random.default_rng(2)
        Q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        C = Q @ np.diag([1.0, 1e-16, -1e-16]) @ Q.T
        C = (C + C.T) / 2.0
        est = eigendecompose(C)
        assert est.clamped
        assert est.eigenvalues[0] == pytest.approx(1.0, rel=1e-14)
        assert est.eigenvalues[1:].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("seed", range(5))
    def test_rounding_noise_does_not_change_the_floor_or_the_flag(self, seed):
        # a rank-one C, then the same C plus symmetric noise of norm 1e-16 ||C||: the null eigenvalues
        # read exactly 0 both times, not whatever the noise made of them
        rng = np.random.default_rng(seed)
        u = rng.normal(size=5)
        C = np.outer(u, u)
        E = rng.normal(size=(5, 5))
        E += E.T
        noisy = C + 1e-16 * np.linalg.norm(C, 2) / np.linalg.norm(E, 2) * E
        exact, perturbed = eigendecompose(C), eigendecompose(noisy)
        assert exact.eigenvalues[1:].tolist() == perturbed.eigenvalues[1:].tolist() == [0.0] * 4
        assert exact.clamped and perturbed.clamped
        # the noise is a real change of C, so lambda_1 may move by as much as the noise itself
        assert perturbed.eigenvalues[0] == pytest.approx(exact.eigenvalues[0], rel=1e-14)

    def test_genuinely_negative_eigenvalue_aborts(self):
        with pytest.raises(NumericalError, match="not PSD"):
            eigendecompose(np.diag([1.0, -0.5]))

    def test_random_psd_eigenpairs_follow_the_sign_rule(self):
        rng = np.random.default_rng(8)
        for m in (2, 3, 5, 8):
            B = rng.normal(size=(m, m))
            C = B.T @ B
            est = eigendecompose(C)
            values, vectors = est.eigenvalues, est.eigenvectors
            ref = np.sort(np.linalg.eigvalsh(C))[::-1]
            assert values == pytest.approx(ref, rel=1e-12, abs=1e-12)
            assert np.allclose(vectors.T @ vectors, np.eye(m), atol=1e-12)
            for lam, u in zip(values, vectors.T):
                assert np.linalg.norm(C @ u - lam * u) <= 1e-10 * max(ref[0], 1.0)
                assert u[np.argmax(np.abs(u))] > 0.0  # the sign rule

    def test_eigen_residuals_on_estimated_matrix(self):
        grid = tensor_grid(5, [(-1.0, 1.0)] * 3)
        C = estimate_C(lambda x: np.cos(x[..., 0]) + x[..., 1] * x[..., 2], grid, H)
        est = eigendecompose(C)
        for lam, u in zip(est.eigenvalues, est.eigenvectors.T):
            assert np.linalg.norm(C @ u - lam * u) <= 1e-10 * est.eigenvalues[0]


class TestActiveSubspace:
    def test_leading_direction_of_diagonal(self):
        est = eigendecompose(np.diag([4.0, 1.0]))
        U = active_subspace(est, 1)
        assert abs(abs(U[0, 0]) - 1.0) < 1e-14

    def test_no_gap_is_rejected_with_advice(self):
        est = eigendecompose(np.diag([1.0, 1.0, 0.0]))
        with pytest.raises(NumericalError, match="different k"):
            active_subspace(est, 1)

    def test_k_bounds(self):
        est = eigendecompose(np.diag([4.0, 1.0]))
        with pytest.raises(ValueError):
            active_subspace(est, 2)
        with pytest.raises(ValueError):
            active_subspace(est, 0)


class TestPullbackT:
    def test_linear_profile_gives_rank_one(self):
        rng = np.random.default_rng(4)
        A = np.linalg.qr(rng.normal(size=(4, 2)))[0]
        grid = tensor_grid(3, [(-1.0, 1.0)] * 4)
        T = pullback_T(lambda y: y @ np.array([1.0, 2.0]), A, grid, H)
        assert T == pytest.approx(np.outer([1.0, 2.0], [1.0, 2.0]), abs=1e-9)

    def test_one_dimensional_pullback_matches_lifted_lambda1(self):
        rng = np.random.default_rng(6)
        A = np.linalg.qr(rng.normal(size=(3, 1)))[0]

        def g(y):
            y = np.asarray(y)
            return np.sin(y[..., 0]) + 0.5 * y[..., 0] ** 2

        def f(x):
            return g(np.asarray(x) @ A)

        grid = tensor_grid(7, [(-1.0, 1.0)] * 3)
        h = 1e-7  # FD bias differs between the two routes at O(h)
        T = pullback_T(g, A, grid, h)
        est = eigendecompose(estimate_C(f, grid, h))
        assert T[0, 0] == pytest.approx(est.eigenvalues[0], rel=1e-5)

    def test_A_needs_one_row_per_grid_dimension(self):
        grid = tensor_grid(2, [(-1.0, 1.0)] * 3)
        with pytest.raises(ValueError, match="A has 2 rows but the grid has 3 dimensions"):
            pullback_T(lambda y: y[..., 0], np.eye(2)[:, :1], grid, H)

    def test_one_dimensional_A_is_one_column(self):
        grid = tensor_grid(3, [(-1.0, 1.0)] * 3)
        a = np.array([0.6, 0.0, 0.8])
        g = lambda y: np.sin(y[..., 0])
        assert np.array_equal(pullback_T(g, a, grid, H), pullback_T(g, a[:, None], grid, H))

    def test_non_orthonormal_A_rejected(self):
        grid = tensor_grid(2, [(-1.0, 1.0)] * 2)
        with pytest.raises(ValueError, match="orthonormal"):
            pullback_T(lambda y: y[..., 0], np.array([[2.0], [0.0]]), grid, H)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_A_rejected(self, bad):
        # the profile ignores its input, so only the Gram check can catch A
        grid = tensor_grid(2, [(-1.0, 1.0)] * 2)
        with pytest.raises(ValueError, match="orthonormal columns; Gram deviation"):
            pullback_T(lambda y: np.zeros(len(y)), np.array([[bad], [0.0]]), grid, H)


def test_forward_difference_error_is_first_order():
    # on a smooth function the FD error must shrink linearly in h
    point = np.array([0.3, -0.2])

    def f(x):
        return math.exp(0.5 * x[0]) * math.cos(x[1])

    exact = np.array(
        [0.5 * math.exp(0.5 * point[0]) * math.cos(point[1]),
         -math.exp(0.5 * point[0]) * math.sin(point[1])]
    )
    steps = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    errors = []
    for h in steps:
        g = fd_gradient(f, point, h)
        errors.append(np.linalg.norm(g - exact))
    slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    assert abs(slope - 1.0) <= 0.15


def test_trailing_eigenvalues_stay_under_fd_noise_envelope(laminar_model, turbulent_model):
    # bulk velocity is a ridge of n+1 = 3 linear combinations (one for the
    # laminar monomial), so eigenvalues past that rank are pure FD noise;
    # c = 20 is the empirical envelope constant with 2x headroom
    c = 20.0
    for model, rank in ((laminar_model, 1), (turbulent_model, 3)):
        grid = model.grid(7)
        for h in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            lam = eigendecompose(estimate_C(model.f, grid, h)).eigenvalues
            assert lam[rank] / lam[0] <= c * h, (model.name, h, lam)



def test_pass_working_memory_stays_under_2_mb(turbulent_model):
    # the order-11 turbulent pass (161 051 points, six steps) peaks at 1 656 640 B with chunks of
    # 8192 points, since the pass owns its one step array: the 343 360 B left hold one more (m, n)
    # array (327 680 B); 16384-point chunks peak near 4 MB and the whole grid's points alone take 6.4 MB
    grid = turbulent_model.grid(11)
    grid.chunk(0, 1)  # the grid's tiles live as long as the grid; they are built before measuring
    estimate_subspaces(turbulent_model.f, turbulent_model.grid(3), [1e-2])  # numpy's first-call allocations
    tracemalloc.start()
    try:
        estimate_subspaces(turbulent_model.f, grid, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 3e-3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000, peak
