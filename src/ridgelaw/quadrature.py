"""Gauss-Legendre rules and tensor-product grids over hyperrectangles.

Grid weights are normalized so they sum to one: a weighted sum of function
values is the average of the function under a uniform probability density on
the box. Grids are never materialized whole; points are produced lazily from
their lexicographic index, so large orders cannot exhaust memory while small
ones stay cheap to iterate.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np

from .defaults import DEFAULT_CHUNK
from .errors import NumericalError

_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100


def _legendre_value_derivative(n: int, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


@dataclass(frozen=True)
class QuadratureRule1D:
    """Nodes and weights on [-1, 1]; exact for polynomials up to degree 2*order - 1."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


@functools.cache
def gauss_legendre(order: int) -> QuadratureRule1D:
    """Gauss-Legendre rule by Newton iteration on the Legendre polynomial.

    Initial guesses come from the Chebyshev-angle approximation of the roots;
    only the non-negative half is solved and then mirrored, which makes the
    node set exactly symmetric about zero. Each order is computed once per
    process and the rule is shared: it is frozen and its arrays are read-only.
    """
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    n = order
    half = (n + 1) // 2
    i = np.arange(1, half + 1)
    x = np.cos(np.pi * (4 * i - 1) / (4 * n + 2))  # descending, positive half
    for _ in range(_NEWTON_MAX_ITER):
        p, dp = _legendre_value_derivative(n, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    else:
        raise NumericalError(f"Legendre root Newton iteration failed to converge at order {n}")
    if n % 2 == 1:
        x[-1] = 0.0  # odd-degree middle root is exactly zero
    _, dp = _legendre_value_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    if n % 2 == 1:
        nodes = np.concatenate([-x[:-1], [0.0], x[-2::-1]])
        weights = np.concatenate([w[:-1], [w[-1]], w[-2::-1]])
    else:
        nodes = np.concatenate([-x, x[::-1]])
        weights = np.concatenate([w, w[::-1]])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule1D(nodes=nodes, weights=weights, order=n)


@dataclass(frozen=True)
class TensorGrid:
    """Tensor-product Gauss-Legendre grid over a box, uniform-density weights.

    ``mapped_nodes[d]`` holds the order nodes affinely mapped into dimension
    d's interval; per-dimension weights are the 1-D weights divided by 2, so
    every product weight is positive and all of them sum to one. Points are
    ordered lexicographically in the dimension-0-slowest multi-index, which
    pins the accumulation order for bit-reproducible sums.
    """

    order: int
    bounds: Tuple[Tuple[float, float], ...]
    mapped_nodes: np.ndarray  # shape (ndim, order)
    unit_weights: np.ndarray  # shape (order,), sums to 1 per dimension

    @property
    def ndim(self) -> int:
        return len(self.bounds)

    def __len__(self) -> int:
        return self.order ** self.ndim

    def chunk(self, start: int, stop: int) -> Tuple[np.ndarray, np.ndarray]:
        """Points and weights for lexicographic indices [start, stop)."""
        # C order is the dimension-0-slowest order
        digits_by_dim = np.unravel_index(np.arange(start, stop), (self.order,) * self.ndim)
        points = np.empty((stop - start, self.ndim), dtype=float)
        weights = np.ones(stop - start, dtype=float)
        for d, digits in enumerate(digits_by_dim):
            points[:, d] = self.mapped_nodes[d, digits]
            weights *= self.unit_weights[digits]
        return points, weights

    def chunks(self, size: int = DEFAULT_CHUNK) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        total = len(self)
        for start in range(0, total, size):
            yield self.chunk(start, min(start + size, total))


def tensor_grid(rule_order: int, bounds: Sequence[Tuple[float, float]]) -> TensorGrid:
    """Tensor grid of a given 1-D order over per-dimension (lo, hi) intervals.

    The point count order ** ndim must fit an index (sys.maxsize); a larger
    grid is rejected before any rule is computed.
    """
    if rule_order ** len(bounds) > sys.maxsize:
        raise ValueError(
            f"a grid of quadrature order {rule_order} in {len(bounds)} dimensions has more than {sys.maxsize} points"
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
