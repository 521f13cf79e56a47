"""Gauss-Legendre rules, each from one LAPACK eigensolve, and tensor-product grids over boxes.

Grid weights are normalized so they sum to one: a weighted sum of function
values is the average of the function under a uniform probability density on
the box. Grids are never materialized whole; points are produced lazily from
their lexicographic index, so large orders cannot exhaust memory while small
ones stay cheap to iterate. ``chunks()`` walks a grid in DEFAULT_CHUNK-point
chunks, the finite-difference pass's only size, read at call time; each chunk
is sliced from per-axis tiles wherever a dimension's digits repeat within it.
A grid holds at most MAX_GRID_POINTS points.
"""

from __future__ import annotations

import functools
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from ._value import Value

# points per chunk of the finite-difference pass: the model is evaluated and
# the outer products summed once per chunk, which bounds the pass's working
# memory; being fixed, it pins the summation order bit for bit
DEFAULT_CHUNK = 8192

# the most points a tensor grid may have: five dimensions up to order 63
MAX_GRID_POINTS = 10**9


class QuadratureRule1D(Value):
    """Nodes and weights on [-1, 1]; exact for polynomials up to degree 2n - 1 for n nodes."""

    def __init__(self, nodes: np.ndarray, weights: np.ndarray):
        self._set(nodes=nodes, weights=weights)


@functools.cache
def gauss_legendre(order: int) -> QuadratureRule1D:
    """Gauss-Legendre rule by the Golub-Welsch method.

    Nodes and weights come from the eigenpairs of the Legendre Jacobi matrix
    (off-diagonal k / sqrt(4k^2 - 1)), each averaged with its mirror image,
    which makes the rule exactly symmetric. Each order is computed once per
    process and shared: the rule is frozen and its arrays are read-only.
    """
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    k = np.arange(1.0, order)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    x, vectors = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))  # ascending nodes
    v0 = vectors[0]
    nodes = (x - x[::-1]) / 2.0
    weights = v0**2 + v0[::-1] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule1D(nodes=nodes, weights=weights)


class TensorGrid(Value):
    """Tensor-product Gauss-Legendre grid over a box, uniform-density weights.

    ``mapped_nodes[d]`` holds the order nodes affinely mapped into dimension
    d's interval; per-dimension weights are the 1-D weights divided by 2, so
    every product weight is positive and all of them sum to one. Points are
    ordered lexicographically in the dimension-0-slowest multi-index, which
    pins the accumulation order for bit-reproducible sums.
    """

    def __init__(
        self,
        order: int,
        bounds: Tuple[Tuple[float, float], ...],
        mapped_nodes: np.ndarray,  # shape (ndim, order)
        unit_weights: np.ndarray,  # shape (order,), sums to 1 per dimension
    ):
        self._set(order=order, bounds=bounds, mapped_nodes=mapped_nodes, unit_weights=unit_weights)

    @property
    def ndim(self) -> int:
        return len(self.bounds)

    def __len__(self) -> int:
        return self.order ** self.ndim

    @functools.cached_property
    def _axis_tiles(self) -> Tuple[Tuple[int, Optional[np.ndarray], Optional[np.ndarray]], ...]:
        """Per dimension: the index stride of its digit, and node and weight tiles.

        Dimension d's digit advances every stride = order ** (ndim - 1 - d)
        indices and repeats with period order * stride. Where that period is
        at most the span of a chunk of the finite-difference pass (DEFAULT_CHUNK
        points), the tiles hold the dimension's column over the fewest whole
        periods that span period + span - 1 indices or the whole grid, so any
        range of up to span indices is one slice of them; elsewhere the tiles
        are None. They are built on the first chunk and live as long as the
        grid.
        """
        total = len(self)
        span = DEFAULT_CHUNK
        tiles = []
        for d in range(self.ndim):
            stride = self.order ** (self.ndim - 1 - d)
            period = self.order * stride
            if period > span:
                tiles.append((stride, None, None))
                continue
            shape = (-(-min(total, period + span - 1) // period), self.order, stride)
            node_tile, weight_tile = np.empty(shape), np.empty(shape)
            node_tile[...] = self.mapped_nodes[d, :, None]
            weight_tile[...] = self.unit_weights[:, None]
            tiles.append((stride, node_tile.reshape(-1), weight_tile.reshape(-1)))
        return tuple(tiles)

    def chunk(self, start: int, stop: int) -> Tuple[np.ndarray, np.ndarray]:
        """Points and weights for lexicographic indices [start, stop), 0 <= start <= stop <= len(self).

        A dimension whose tiles cover the range is sliced from them; any other
        is np.repeat over its runs of one digit. Either way the values are
        those of the multi-index, and the weights multiply in dimension order.
        """
        if not 0 <= start <= stop <= len(self):
            raise ValueError(f"chunk [{start}, {stop}) is not a range of the grid's {len(self)} points")
        n = stop - start
        points = np.empty((n, self.ndim), dtype=float)
        weights = np.ones(n, dtype=float)
        for d, (stride, node_tile, weight_tile) in enumerate(self._axis_tiles):
            offset = start % (self.order * stride)
            if node_tile is not None and offset + n <= node_tile.shape[0]:
                points[:, d] = node_tile[offset : offset + n]
                weights *= weight_tile[offset : offset + n]
                continue
            runs = np.arange(start // stride, (stop - 1) // stride + 1)
            counts = np.minimum(stop, (runs + 1) * stride) - np.maximum(start, runs * stride)
            runs %= self.order
            points[:, d] = np.repeat(self.mapped_nodes[d, runs], counts)
            weights *= np.repeat(self.unit_weights[runs], counts)
        return points, weights

    def chunks(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        total, size = len(self), DEFAULT_CHUNK
        for start in range(0, total, size):
            yield self.chunk(start, min(start + size, total))


def tensor_grid(rule_order: int, bounds: Sequence[Tuple[float, float]]) -> TensorGrid:
    """Tensor grid of a given 1-D order over per-dimension (lo, hi) intervals.

    The point count order ** ndim may be at most MAX_GRID_POINTS; a larger
    grid is rejected before any rule is computed.
    """
    count = rule_order ** len(bounds)
    if count > MAX_GRID_POINTS:
        raise ValueError(
            f"a grid of quadrature order {rule_order} in {len(bounds)} dimensions has more than "
            f"{MAX_GRID_POINTS} points ({count})"
        )
    rule = gauss_legendre(rule_order)
    clean = []
    for d, (lo, hi) in enumerate(bounds):
        lo, hi = float(lo), float(hi)
        if not lo < hi:
            raise ValueError(f"degenerate bounds in dimension {d}: ({lo}, {hi})")
        clean.append((lo, hi))
    if not clean:
        raise ValueError("tensor grid needs at least one dimension")
    mapped = np.array(
        [lo + (hi - lo) * (rule.nodes + 1.0) / 2.0 for lo, hi in clean], dtype=float
    )
    unit_weights = rule.weights / 2.0
    mapped.setflags(write=False)
    unit_weights.setflags(write=False)
    return TensorGrid(
        order=rule_order,
        bounds=tuple(clean),
        mapped_nodes=mapped,
        unit_weights=unit_weights,
    )
