"""bench/tracer.py's patch points against the package: a renamed or moved binding shows here.

The tracer skips a binding it cannot find and its metrics read null or 0, so
only this test notices when a refactor of the package blinds one of them.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# the bindings that have been gone since the package stopped binding them (ROADMAP, "What fails and why");
# the tracer mend deletes them from PATCH_POINTS
STALE = {
    "ridgelaw.cli.tensor_grid",
    "ridgelaw.cli.estimate_subspace",
    "ridgelaw.subspace.estimate_subspace",
    "ridgelaw.cli.convergence_sweep",
    "ridgelaw.cli.inclusion_residual",
}


def load_tracer():
    """bench/tracer.py as a module of its own, loaded from its path."""
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up while the class is made
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def resolves(point) -> bool:
    """Whether the binding exists where the tracer would replace it: the module, then the dotted attribute."""
    owner_path, _, name = point.attr.rpartition(".")
    owner = importlib.import_module(point.module)
    for part in filter(None, owner_path.split(".")):
        owner = getattr(owner, part, None)
    return owner is not None and name in vars(owner)


def test_every_patch_point_resolves_except_the_known_stale_ones():
    points = load_tracer().PATCH_POINTS
    unresolved = {p.key for p in points if not resolves(p)}
    assert unresolved <= STALE, sorted(unresolved - STALE)
    assert len({p.key for p in points} - STALE) >= 10  # the check has bindings to resolve


def test_a_renamed_binding_is_caught(monkeypatch):
    from ridgelaw import pipeflow

    point = next(p for p in load_tracer().PATCH_POINTS if p.attr == "LogSpaceVelocity.__call__")
    assert resolves(point)
    monkeypatch.delattr(pipeflow.LogSpaceVelocity, "__call__")
    assert not resolves(point)
