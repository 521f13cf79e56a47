"""The package's public names: each resolves, on first access, to its defining module's object."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ridgelaw

# defining module -> the names the package exports from it, in __all__ order
EXPORTED_FROM = {
    "dimensions": "DimensionVector QuantityDecl UnitSystem is_dimensionless make_dimension",
    "errors": "EvaluationError ModelError NumericalError",
    "pigroups": "DimensionMatrix PiDecomposition build_dimension_matrix pi_decomposition",
    "quadrature": "QuadratureRule1D TensorGrid gauss_legendre tensor_grid",
    "activesubspace": (
        "SubspaceEstimate active_subspace eigendecompose estimate_C estimate_subspaces "
        "fd_gradient pullback_T"
    ),
    "subspace": "InclusionReport SweepResult constancy_directions convergence_sweep inclusion_residual",
    "models": "RE_CRITICAL",
}
DEFINED_IN = {name: module for module, names in EXPORTED_FROM.items() for name in names.split()}
# the exact layer never pays for numpy; the numerics layer loads no model code
EXACT_LAYER = ("dimensions", "errors", "pigroups", "models")
MODEL_CODE = {"ridgelaw.dimensions", "ridgelaw.pigroups", "ridgelaw.models", "ridgelaw.pipeflow"}


def test_all_lists_version_and_the_30_names():
    assert ridgelaw.__all__ == ["__version__", *DEFINED_IN]
    assert len(ridgelaw.__all__) == 30


@pytest.mark.parametrize("name", sorted(DEFINED_IN))
def test_name_is_the_defining_modules_object(name):
    module = importlib.import_module(f"ridgelaw.{DEFINED_IN[name]}")
    assert getattr(ridgelaw, name) is getattr(module, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from ridgelaw import *", namespace)
    assert all(namespace[name] is getattr(ridgelaw, name) for name in ridgelaw.__all__)


def _fresh(code):
    """The JSON that code prints in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(ridgelaw.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_dir_lists_the_exports_before_any_access():
    missing = _fresh("import json, ridgelaw; print(json.dumps(sorted(set(ridgelaw.__all__) - set(dir(ridgelaw)))))")
    assert missing == []


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        ridgelaw.no_such_name
    assert not hasattr(ridgelaw, "no_such_name")


def test_the_deleted_estimate_subspace_wrapper_is_not_reachable():
    # eigendecompose(estimate_C(f, grid, h)) is the one way to a single-step estimate
    with pytest.raises(AttributeError, match="'estimate_subspace'"):
        ridgelaw.estimate_subspace
    assert not hasattr(importlib.import_module("ridgelaw.activesubspace"), "estimate_subspace")


def test_names_import_their_module_on_first_access():
    probe = (
        "import json, sys, ridgelaw\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] in ('ridgelaw', 'numpy'))\n"
        "steps = [loaded()]\n"
        "ridgelaw.pi_decomposition\n"
        "steps.append(loaded())\n"
        "ridgelaw.estimate_C\n"
        "steps.append(loaded())\n"
        "print(json.dumps(steps))\n"
    )
    bare, exact, estimating = _fresh(probe)
    assert bare == ["ridgelaw"]
    assert "ridgelaw.pigroups" in exact and "numpy" not in exact
    assert "ridgelaw.activesubspace" in estimating and "numpy" in estimating


@pytest.mark.parametrize("name", sorted(DEFINED_IN))
def test_a_name_loads_only_its_own_layer(name):
    loaded = set(
        _fresh(
            f"import json, sys, ridgelaw; ridgelaw.{name}; "
            "print(json.dumps([m for m in sys.modules if m.split('.')[0] in ('ridgelaw', 'numpy')]))"
        )
    )
    if DEFINED_IN[name] in EXACT_LAYER:
        assert "numpy" not in loaded, sorted(loaded)
    else:
        assert "numpy" in loaded and not loaded & MODEL_CODE, sorted(loaded)


def test_re_critical_loads_the_model_files_module_without_the_pi_algorithm():
    # a bound model computes its own decomposition, in pipeflow; the model-file schema needs none
    loaded = set(
        _fresh(
            "import json, sys, ridgelaw; ridgelaw.RE_CRITICAL; "
            "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'ridgelaw']))"
        )
    )
    assert {"ridgelaw.models", "ridgelaw.dimensions", "ridgelaw.errors"} <= loaded, sorted(loaded)
    assert "ridgelaw.pigroups" not in loaded, sorted(loaded)


def test_constancy_directions_lives_with_the_inclusion_test():
    # one module, one QR routine, for both halves of the orthogonal split
    assert ridgelaw.constancy_directions is importlib.import_module("ridgelaw.subspace").constancy_directions
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("ridgelaw.ridge")


# every module of the package but __main__, which runs the command line on import
PACKAGE = Path(ridgelaw.__file__).parent
MODULES = sorted(
    ".".join(("ridgelaw", *path.relative_to(PACKAGE).with_suffix("").parts)).removesuffix(".__init__")
    for path in PACKAGE.rglob("*.py")
    if path.name != "__main__.py"
)


def test_the_command_line_loads_neither_dataclasses_nor_inspect():
    # the value classes share one small base; dataclasses and the inspect it imports took a third of the import
    loaded = _fresh(
        "import contextlib, io, json, sys, ridgelaw.cli\n"
        "probe = lambda: [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
        "steps = [probe()]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = ridgelaw.cli.run_command(['pi', 'pipeflow_turbulent'])\n"
        "print(json.dumps([code, steps[0], probe()]))\n"
    )
    assert loaded == [0, [], []]


def test_numpy_and_every_module_load_no_dataclasses():
    assert len(MODULES) == 11 and "ridgelaw.models" in MODULES, MODULES
    loaded = _fresh(
        "import importlib, json, sys, numpy\n"
        f"for name in {MODULES!r}: importlib.import_module(name)\n"
        "print(json.dumps([m for m in sys.modules if m == 'dataclasses' or m.startswith('ridgelaw')]))"
    )
    assert sorted(loaded) == MODULES
