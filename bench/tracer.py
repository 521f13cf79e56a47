"""Spans around ridgelaw's public functions, recorded from outside the package.

The tracer replaces named bindings (module globals and class attributes)
with timing wrappers for the length of one traced batch and puts the
originals back afterwards. A binding that no longer exists is skipped with
a warning: the per-layer metrics that depend only on it read null, and the
run goes on. Spans carry (name, start, end, parent, request); a layer's self
time is its spans' time minus the time of their direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


def _eval_rows(args, kwargs, result) -> Dict[str, int]:
    """Rows evaluated and bytes computed from array sizes (input rows + outputs, float64)."""
    x = args[1]
    rows = x.shape[0] if getattr(x, "ndim", 1) == 2 else 1
    return {"rows": rows, "bytes": rows * (x.shape[-1] + 1) * 8}


def _chunk_points(args, kwargs, result) -> Dict[str, int]:
    return {"points": len(result[0])}


def _grid_points(args, kwargs, result) -> Dict[str, int]:
    grid = kwargs.get("grid", args[1] if len(args) > 1 else None)
    return {"points": len(grid)}


@dataclass(frozen=True)
class PatchPoint:
    """A binding to wrap: span name, module, attribute path, optional counter meter.

    ``workloads`` lists the workloads expected to reach the binding.
    """

    span: str
    module: str
    attr: str
    meter: Optional[Callable] = None
    workloads: Tuple[str, ...] = ()

    @property
    def key(self) -> str:
        return f"{self.module}.{self.attr}"


_ALL = ("reproduce-turbulent", "active-boxes", "pi-wide")
_ESTIMATING = ("reproduce-turbulent", "active-boxes")

# Every binding a workload's commands go through, one entry per module that
# binds the name: replacing the defining module's attribute does not reach a
# module that imported the function by name.
PATCH_POINTS = (
    PatchPoint("cli.run_command", "ridgelaw.cli", "run_command", None, _ALL),
    PatchPoint("cli.build_parser", "ridgelaw.cli", "build_parser", None, _ALL),
    PatchPoint("cli.load_model", "ridgelaw.cli", "load_model", None, ("active-boxes", "pi-wide")),
    PatchPoint("pigroups.pi_decomposition", "ridgelaw.cli", "pi_decomposition", None, ("active-boxes", "pi-wide")),
    PatchPoint("pigroups.pi_decomposition", "ridgelaw.pipeflow", "pi_decomposition", None, _ESTIMATING),
    PatchPoint("quadrature.tensor_grid", "ridgelaw.cli", "tensor_grid", None, ("active-boxes",)),
    PatchPoint("quadrature.tensor_grid", "ridgelaw.pipeflow", "tensor_grid", None, ("reproduce-turbulent",)),
    PatchPoint("quadrature.chunk", "ridgelaw.quadrature", "TensorGrid.chunk", _chunk_points, _ESTIMATING),
    PatchPoint("pipeflow.eval", "ridgelaw.pipeflow", "LogSpaceVelocity.__call__", _eval_rows, _ESTIMATING),
    PatchPoint(
        "activesubspace.estimate_subspace", "ridgelaw.cli", "estimate_subspace", _grid_points, _ESTIMATING
    ),
    PatchPoint(
        "activesubspace.estimate_subspace", "ridgelaw.subspace", "estimate_subspace", _grid_points,
        ("reproduce-turbulent",),
    ),
    PatchPoint("activesubspace.estimate_C", "ridgelaw.activesubspace", "estimate_C", None, _ESTIMATING),
    PatchPoint("activesubspace.eigendecompose", "ridgelaw.activesubspace", "eigendecompose", None, _ESTIMATING),
    PatchPoint("subspace.convergence_sweep", "ridgelaw.cli", "convergence_sweep", None, ("reproduce-turbulent",)),
    PatchPoint("subspace.inclusion_residual", "ridgelaw.subspace", "inclusion_residual", None, ("reproduce-turbulent",)),
    # the `inclusion` subcommand's binding; no workload runs that subcommand
    PatchPoint("subspace.inclusion_residual", "ridgelaw.cli", "inclusion_residual", None, ()),
)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


class Tracer:
    """Installs wrappers on the patch points and records spans in memory."""

    def __init__(self, points: Sequence[PatchPoint] = PATCH_POINTS):
        self.points = tuple(points)
        self.spans: List[list] = []  # [name, start, end, parent, request, counters]
        self.hits: Dict[str, int] = defaultdict(int)  # calls per binding key
        self.missing: List[str] = []  # binding keys not found
        self.meter_failures: set = set()  # span names whose counters could not be read
        self._stack: List[int] = []
        self._requests = 0
        self._installed: List[tuple] = []

    def _wrap(self, point: PatchPoint, fn: Callable) -> Callable:
        spans, stack, hits, clock = self.spans, self._stack, self.hits, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                request = spans[stack[0]][4]
            else:
                request = self._requests
                self._requests += 1
            span = [point.span, 0.0, 0.0, stack[-1] if stack else -1, request, None]
            stack.append(len(spans))
            spans.append(span)
            hits[point.key] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if point.meter is not None:
                try:
                    span[5] = point.meter(args, kwargs, result)
                except Exception as exc:  # a changed signature must not fail the run
                    if point.span not in self.meter_failures:
                        _warn(f"cannot read counters of {point.key}: {exc!r}; they read null")
                    self.meter_failures.add(point.span)
            return result

        return wrapper

    def install(self) -> None:
        missing = []
        for point in self.points:
            owner_path, _, name = point.attr.rpartition(".")
            try:
                owner = importlib.import_module(point.module)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = vars(owner)[name]
            except (ImportError, AttributeError, KeyError):
                if point.key not in self.missing:
                    _warn(f"patch point {point.key} not found; metrics that need only it read null")
                missing.append(point.key)
                continue
            setattr(owner, name, self._wrap(point, original))
            self._installed.append((owner, name, original))
        self.missing = missing

    def uninstall(self) -> None:
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    def reset(self) -> None:
        self.spans.clear()
        self.hits.clear()
        self._requests = 0

    @property
    def available(self) -> set:
        """Span names with at least one installed binding."""
        missing = set(self.missing)
        return {p.span for p in self.points if p.key not in missing}


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counters: Optional[Dict[str, int]] = None


def span_stats(spans: Sequence[list], meter_failures=()) -> Dict[str, SpanStats]:
    """Per span name: calls, inclusive time, self time and summed counters."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    stats: Dict[str, SpanStats] = defaultdict(SpanStats)
    for i, (name, start, end, _, _, counters) in enumerate(spans):
        st = stats[name]
        st.calls += 1
        st.total_s += end - start
        st.self_s += end - start - child_s[i]
        if counters is not None:
            st.counters = st.counters or defaultdict(int)
            for key, value in counters.items():
                st.counters[key] += value
    for name in meter_failures:
        if name in stats:
            stats[name].counters = None
    return stats


def _counter(stats, span: str, key: str):
    st = stats.get(span)
    if st is None or st.calls == 0:
        return 0
    return None if st.counters is None else st.counters.get(key, 0)


def _ratio(a, b):
    if a is None or b is None:
        return None
    return a / b if b else 0.0


# name, unit, better, spans it needs, value(stats, batch facts)
LAYER_METRICS = (
    ("pipeflow.eval_calls", "count", "lower", ("pipeflow.eval",), lambda s, b: s["pipeflow.eval"].calls),
    ("pipeflow.eval_rows", "count", "lower", ("pipeflow.eval",), lambda s, b: _counter(s, "pipeflow.eval", "rows")),
    ("pipeflow.eval_s", "s", "lower", ("pipeflow.eval",), lambda s, b: s["pipeflow.eval"].total_s),
    (
        "pipeflow.evals_per_grid_point", "evals/point", "lower",
        ("pipeflow.eval", "activesubspace.estimate_subspace"),
        lambda s, b: _ratio(
            _counter(s, "pipeflow.eval", "rows"), _counter(s, "activesubspace.estimate_subspace", "points")
        ),
    ),
    (
        "pipeflow.eval_bytes_computed", "B", "lower", ("pipeflow.eval",),
        lambda s, b: _counter(s, "pipeflow.eval", "bytes"),
    ),
    ("quadrature.chunk_calls", "count", "lower", ("quadrature.chunk",), lambda s, b: s["quadrature.chunk"].calls),
    ("quadrature.chunk_s", "s", "lower", ("quadrature.chunk",), lambda s, b: s["quadrature.chunk"].total_s),
    (
        "quadrature.points_generated", "count", "lower", ("quadrature.chunk",),
        lambda s, b: _counter(s, "quadrature.chunk", "points"),
    ),
    (
        "quadrature.tensor_grid_calls", "count", "lower", ("quadrature.tensor_grid",),
        lambda s, b: s["quadrature.tensor_grid"].calls,
    ),
    (
        "quadrature.tensor_grid_s", "s", "lower", ("quadrature.tensor_grid",),
        lambda s, b: s["quadrature.tensor_grid"].total_s,
    ),
    (
        "activesubspace.estimate_C_calls", "count", "lower", ("activesubspace.estimate_C",),
        lambda s, b: s["activesubspace.estimate_C"].calls,
    ),
    (
        "activesubspace.grid_points", "count", "higher", ("activesubspace.estimate_subspace",),
        lambda s, b: _counter(s, "activesubspace.estimate_subspace", "points"),
    ),
    (
        # forward differences and outer-product accumulation: what the
        # estimation spans spend outside grid generation, model evaluation
        # and the eigensolve
        "activesubspace.fd_self_s", "s", "lower", ("activesubspace.estimate_subspace",),
        lambda s, b: s["activesubspace.estimate_subspace"].self_s + s["activesubspace.estimate_C"].self_s,
    ),
    (
        "activesubspace.eigendecompose_calls", "count", "lower", ("activesubspace.eigendecompose",),
        lambda s, b: s["activesubspace.eigendecompose"].calls,
    ),
    (
        "activesubspace.eigendecompose_s", "s", "lower", ("activesubspace.eigendecompose",),
        lambda s, b: s["activesubspace.eigendecompose"].total_s,
    ),
    (
        "pigroups.pi_decomposition_calls", "count", "lower", ("pigroups.pi_decomposition",),
        lambda s, b: s["pigroups.pi_decomposition"].calls,
    ),
    (
        "pigroups.pi_decomposition_s", "s", "lower", ("pigroups.pi_decomposition",),
        lambda s, b: s["pigroups.pi_decomposition"].total_s,
    ),
    (
        "pigroups.decompositions_per_cmd", "1/cmd", "lower", ("pigroups.pi_decomposition",),
        lambda s, b: s["pigroups.pi_decomposition"].calls / b["commands"],
    ),
    ("cli.build_parser_s", "s", "lower", ("cli.build_parser",), lambda s, b: s["cli.build_parser"].total_s),
    ("cli.load_model_calls", "count", "lower", ("cli.load_model",), lambda s, b: s["cli.load_model"].calls),
    ("cli.load_model_s", "s", "lower", ("cli.load_model",), lambda s, b: s["cli.load_model"].total_s),
    ("cli.self_s", "s", "lower", ("cli.run_command",), lambda s, b: s["cli.run_command"].self_s),
    ("cli.bytes_written", "B", "lower", (), lambda s, b: b["bytes_written"]),
    (
        "subspace.inclusion_residual_calls", "count", "lower", ("subspace.inclusion_residual",),
        lambda s, b: s["subspace.inclusion_residual"].calls,
    ),
    (
        "subspace.inclusion_residual_s", "s", "lower", ("subspace.inclusion_residual",),
        lambda s, b: s["subspace.inclusion_residual"].total_s,
    ),
    (
        "subspace.convergence_sweep_self_s", "s", "lower", ("subspace.convergence_sweep",),
        lambda s, b: s["subspace.convergence_sweep"].self_s,
    ),
    ("check.inclusion_miss_ratio", "ratio", "lower", (), lambda s, b: b["inclusion_miss_ratio"]),
    ("trace.overhead_s", "s", "lower", (), lambda s, b: b["overhead_s"]),
)


def layer_metrics(tracer: Tracer, facts: Dict) -> Dict[str, Optional[float]]:
    """Per-layer metric values for one traced batch; None where a needed span is missing."""
    stats = defaultdict(SpanStats, span_stats(tracer.spans, tracer.meter_failures))
    available = tracer.available
    values = {}
    for name, _unit, _better, needs, value in LAYER_METRICS:
        values[name] = value(stats, facts) if all(n in available for n in needs) else None
    return values
