"""Gauss-Legendre rules and tensor grids."""

import math

import numpy as np
import pytest

from ridgelaw import quadrature
from ridgelaw.quadrature import DEFAULT_CHUNK, gauss_legendre, tensor_grid


def _no_rule(order):
    raise AssertionError(f"a rule of order {order} was computed")


class TestGaussLegendre:
    def test_order_one_is_midpoint_rule(self):
        rule = gauss_legendre(1)
        assert rule.nodes == pytest.approx([0.0], abs=1e-15)
        assert rule.weights == pytest.approx([2.0], abs=1e-15)

    def test_order_two_textbook_values(self):
        rule = gauss_legendre(2)
        assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
        assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_order_eleven_integrates_t20(self):
        rule = gauss_legendre(11)
        value = float(np.sum(rule.weights * rule.nodes**20))
        assert abs(value - 2.0 / 21.0) < 1e-13

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 7, 9, 11, 16, 33, 64])
    def test_weights_sum_to_two_and_nodes_symmetric(self, order):
        rule = gauss_legendre(order)
        assert abs(rule.weights.sum() - 2.0) < 1e-13
        assert np.max(np.abs(rule.nodes + rule.nodes[::-1])) < 1e-13
        assert np.all(rule.weights > 0.0)
        assert np.all(np.diff(rule.nodes) > 0.0)

    @pytest.mark.parametrize("order", range(1, 64))
    def test_exact_to_degree_2n_minus_1_exactly_symmetric_and_ascending(self, order):
        rule = gauss_legendre(order)
        for k in range(2 * order):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0  # integral of x^k over [-1, 1]
            assert abs(np.sum(rule.weights * rule.nodes**k) - exact) <= 1e-13, k
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        assert np.array_equal(rule.weights, rule.weights[::-1])
        assert np.all(np.diff(rule.nodes) > 0.0) and np.all(rule.weights > 0.0)

    @pytest.mark.parametrize("order", [2, 5, 11, 20])
    def test_matches_reference_nodes(self, order):
        # independent oracle: numpy's Golub-Welsch implementation, which the package does not use
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(order)
        rule = gauss_legendre(order)
        assert np.max(np.abs(rule.nodes - ref_nodes)) < 1e-14
        assert np.max(np.abs(rule.weights - ref_weights)) < 1e-14


class TestRuleCache:
    """Each order's rule is computed once per process and shared; grids still map nodes afresh."""

    @pytest.mark.parametrize("order", [1, 2, 5, 11, 15])
    def test_second_grid_runs_no_newton_and_keeps_every_bit(self, order):
        bounds = [(0.5, 2.0), (-3.0, 7.0), (1e-9, 10.0)]
        gauss_legendre.cache_clear()
        fresh = tensor_grid(order, bounds)
        assert gauss_legendre.cache_info().misses == 1  # the cache sees the rule computed once
        again = tensor_grid(order, bounds)
        info = gauss_legendre.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert np.array_equal(again.mapped_nodes, fresh.mapped_nodes)
        assert np.array_equal(again.unit_weights, fresh.unit_weights)
        assert again.mapped_nodes is not fresh.mapped_nodes

    @pytest.mark.parametrize("order", [1, 4, 5, 16])
    def test_shared_rule_is_read_only_and_equals_the_uncached_one(self, order):
        rule = gauss_legendre(order)
        assert gauss_legendre(order) is rule
        assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable
        uncached = gauss_legendre.__wrapped__(order)
        assert np.array_equal(rule.nodes, uncached.nodes)
        assert np.array_equal(rule.weights, uncached.weights)


class TestTensorGrid:
    def test_point_count_order11_dim5(self):
        grid = tensor_grid(11, [(0.0, 1.0)] * 5)
        assert len(grid) == 161051

    def test_order_one_hits_box_center(self):
        grid = tensor_grid(1, [(0.0, 4.0), (-2.0, 0.0)])
        X, w = grid.chunk(0, len(grid))
        assert X == pytest.approx(np.array([[2.0, -1.0]]), abs=1e-15)
        assert w == pytest.approx([1.0], abs=1e-15)

    def test_mean_of_identity_on_0_2(self):
        grid = tensor_grid(3, [(0.0, 2.0)])
        X, w = grid.chunk(0, len(grid))
        assert abs(float(w @ X[:, 0]) - 1.0) < 1e-13

    def test_weights_sum_to_one(self):
        grid = tensor_grid(7, [(0.0, 1.0), (3.0, 5.0), (-1.0, 1.0)])
        total = sum(wc.sum() for _, wc in grid.chunks())
        assert abs(total - 1.0) < 1e-12

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValueError):
            tensor_grid(3, [(1.0, 1.0)])

    @pytest.mark.parametrize("order", [6209, 100000])
    def test_grid_past_an_index_rejected_before_any_rule(self, monkeypatch, order):
        # 6209 ** 5 > sys.maxsize, far past MAX_GRID_POINTS; the grid could not even report its length
        monkeypatch.setattr(quadrature, "gauss_legendre", _no_rule)
        with pytest.raises(ValueError, match=rf"^a grid of quadrature order {order} in 5 dimensions has more than"):
            tensor_grid(order, [(0.0, 1.0)] * 5)

    def test_order_63_in_5_dimensions_is_within_the_point_budget(self):
        grid = tensor_grid(63, [(0.0, 1.0)] * 5)
        assert len(grid) == 63**5 <= quadrature.MAX_GRID_POINTS
        assert "_axis_tiles" not in vars(grid)  # nothing is built until the first chunk

    def test_order_64_in_5_dimensions_is_past_the_point_budget(self, monkeypatch):
        monkeypatch.setattr(quadrature, "gauss_legendre", _no_rule)
        with pytest.raises(ValueError) as err:
            tensor_grid(64, [(0.0, 1.0)] * 5)
        assert str(err.value) == (
            "a grid of quadrature order 64 in 5 dimensions has more than 1000000000 points (1073741824)"
        )

    def test_lexicographic_ordering(self):
        grid = tensor_grid(2, [(0.0, 1.0), (10.0, 11.0)])
        X, _ = grid.chunk(0, len(grid))
        a, b = grid.mapped_nodes[0]
        c, d = grid.mapped_nodes[1]
        expected = np.array([[a, c], [a, d], [b, c], [b, d]])
        assert np.array_equal(X, expected)

    def test_iterator_matches_chunks(self):
        grid = tensor_grid(3, [(0.0, 1.0), (0.0, 2.0)])
        dense_X, dense_w = grid.chunk(0, len(grid))
        chunks = list(grid.chunks(size=4))  # 9 points: 4, 4, 1
        assert [len(w) for _, w in chunks] == [4, 4, 1]
        assert np.array_equal(np.concatenate([X for X, _ in chunks]), dense_X)
        assert np.array_equal(np.concatenate([w for _, w in chunks]), dense_w)

    def test_chunked_consumption_covers_all_points(self):
        grid = tensor_grid(4, [(0.0, 1.0)] * 3)
        seen = 0
        for X, w in grid.chunks(size=7):
            assert X.shape[0] == w.shape[0]
            seen += X.shape[0]
        assert seen == len(grid)


def test_polynomial_exactness_up_to_degree_2n_minus_1():
    # random polynomials with per-coordinate degree <= 2*order - 1; the grid
    # average must equal the analytic uniform-density average
    rng = np.random.default_rng(42)
    order = 4
    max_deg = 2 * order - 1
    bounds = [(-1.0, 2.0), (0.5, 1.5)]
    grid = tensor_grid(order, bounds)
    X, w = grid.chunk(0, len(grid))
    for _ in range(20):
        degs = rng.integers(0, max_deg + 1, size=2)
        coeff = rng.uniform(-1.0, 1.0)
        values = coeff * X[:, 0] ** degs[0] * X[:, 1] ** degs[1]
        estimate = float(w @ values)
        exact = coeff
        for (lo, hi), d in zip(bounds, degs):
            exact *= (hi ** (d + 1) - lo ** (d + 1)) / ((d + 1) * (hi - lo))
        assert abs(estimate - exact) < 1e-11 * max(1.0, abs(exact))


def test_degree_2n_is_not_exact():
    # sanity check that the exactness bound is sharp
    order = 2
    grid = tensor_grid(order, [(-1.0, 1.0)])
    X, w = grid.chunk(0, len(grid))
    estimate = float(w @ X[:, 0] ** (2 * order))
    exact = 1.0 / (2 * order + 1)
    assert abs(estimate - exact) > 1e-3


def _unravel_chunk(grid, start, stop):
    """Reference chunk: every index's digits by np.unravel_index, weights multiplied in dimension order."""
    digits_by_dim = np.unravel_index(np.arange(start, stop), (grid.order,) * grid.ndim)
    points = np.empty((stop - start, grid.ndim))
    weights = np.ones(stop - start)
    for d, digits in enumerate(digits_by_dim):
        points[:, d] = grid.mapped_nodes[d, digits]
        weights *= grid.unit_weights[digits]
    return points, weights


def _ranges(grid, size):
    """Index ranges of `size` (cut at the grid's end) at and across every digit and period boundary."""
    total = len(grid)
    if size > total:
        # ends of the grid longer than a chunk, and the whole grid where it is small enough to keep memory low
        ends = [(max(total - k, 0), total) for k in (2 * DEFAULT_CHUNK + 1, DEFAULT_CHUNK + 1, 7)]
        return ends + [(0, total)] * (total <= 2**16)
    starts = {0, total - size}
    for d in range(grid.ndim):
        stride = grid.order ** (grid.ndim - 1 - d)
        for boundary in (stride, 2 * stride, grid.order * stride):
            starts.update(boundary + shift for shift in (-size, -(size // 2), -1, 0, 1))
    return [(start, min(start + size, total)) for start in sorted(starts) if 0 <= start < total]


class TestChunkTiles:
    """Chunks sliced from per-axis tiles keep every bit of the index arithmetic."""

    @pytest.mark.parametrize("size", [1, 7, DEFAULT_CHUNK, "past the end"])
    @pytest.mark.parametrize("ndim", [1, 2, 5])
    @pytest.mark.parametrize("order", [1, 2, 3, 5, 15, 16])
    def test_chunk_equals_the_unravel_index_reference(self, order, ndim, size):
        rng = np.random.default_rng(order * 10 + ndim)
        bounds = [(rng.uniform(-3.0, 0.0), rng.uniform(0.5, 4.0)) for _ in range(ndim)]
        grid = tensor_grid(order, bounds)
        size = len(grid) + 1 if size == "past the end" else size
        for start, stop in _ranges(grid, size):
            points, weights = grid.chunk(start, stop)
            ref_points, ref_weights = _unravel_chunk(grid, start, stop)
            assert points.shape == (stop - start, ndim) and points.flags.c_contiguous
            assert points.tobytes() == ref_points.tobytes(), (start, stop)
            assert weights.tobytes() == ref_weights.tobytes(), (start, stop)

    def test_chunks_cover_the_grid_as_the_reference_does(self):
        grid = tensor_grid(15, [(-1.0, 2.0), (0.5, 1.5), (-3.0, -1.0)])  # 3375 points; periods 15, 225, 3375
        for size in (7, 100, DEFAULT_CHUNK):
            got = list(grid.chunks(size))
            points = np.concatenate([X for X, _ in got])
            weights = np.concatenate([w for _, w in got])
            ref_points, ref_weights = _unravel_chunk(grid, 0, len(grid))
            assert points.tobytes() == ref_points.tobytes()
            assert weights.tobytes() == ref_weights.tobytes()

    @pytest.mark.parametrize("ndim", [1, 3])
    def test_chunks_leave_the_tiles_as_they_were(self, ndim):
        # a chunk is the caller's to write: it must not be a view of the grid's tiles
        grid = tensor_grid(5, [(0.0, 1.0)] * ndim)
        X, w = grid.chunk(1, 4)
        X[...] = np.nan
        w[...] = np.nan
        assert np.array_equal(grid.chunk(1, 4)[0], _unravel_chunk(grid, 1, 4)[0])
        assert np.array_equal(grid.chunk(1, 4)[1], _unravel_chunk(grid, 1, 4)[1])
