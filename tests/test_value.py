"""The value classes: construction, validation, equality, hashing, immutability and repr."""

import inspect
from fractions import Fraction

import numpy as np
import pytest

from ridgelaw import pipeflow
from ridgelaw.activesubspace import SubspaceEstimate, eigendecompose
from ridgelaw.dimensions import DimensionVector, QuantityDecl, UnitSystem
from ridgelaw.errors import ModelError
from ridgelaw.models import ModelSpec, load_model
from ridgelaw.pigroups import DimensionMatrix, PiDecomposition
from ridgelaw.pipeflow import RE_CRITICAL, BuiltinModel, LogSpaceVelocity, bind_builtin
from ridgelaw.quadrature import QuadratureRule1D, TensorGrid, tensor_grid
from ridgelaw.subspace import InclusionReport, SweepResult

F = Fraction
SYSTEM = UnitSystem(("kg", "m", "s"))
SPEED = DimensionVector((F(0), F(1), F(-1)), SYSTEM)
NODE, WEIGHT = np.array([0.0]), np.array([2.0])  # the one-point Gauss-Legendre rule
VALUES, VECTORS = np.array([2.0, 1.0]), np.eye(2)
REQUIRED = inspect.Parameter.empty

# class -> its parameters as (name, default), one valid argument per parameter,
# and a field with another value that makes the instance unequal
CASES = {
    UnitSystem: ([("unit_names", REQUIRED)], (("kg", "m", "s"),), ("unit_names", ("kg", "m"))),
    DimensionVector: (
        [("exponents", REQUIRED), ("system", REQUIRED)],
        ((F(0), F(1), F(-1)), SYSTEM),
        ("exponents", (F(1), F(0), F(0))),
    ),
    QuantityDecl: (
        [("name", REQUIRED), ("dimension", REQUIRED), ("range_lo", None), ("range_hi", None)],
        ("v", SPEED, 0.5, 2.0),
        ("name", "w"),
    ),
    DimensionMatrix: (
        [("entries", REQUIRED), ("column_names", REQUIRED), ("system", REQUIRED)],
        (((F(0),), (F(1),), (F(-1),)), ("v",), SYSTEM),
        ("column_names", ("w",)),
    ),
    PiDecomposition: (
        [("w", REQUIRED), ("W", REQUIRED), ("A", REQUIRED), ("rank", REQUIRED), ("qoi_dimensionless", False)],
        ((F(1), F(0)), ((0,), (1,)), ((F(1), 0), (F(0), 1)), 1, False),
        ("rank", 2),
    ),
    ModelSpec: (
        [
            ("name", REQUIRED),
            ("system", REQUIRED),
            ("quantities", REQUIRED),
            ("qoi", REQUIRED),
            ("builtin", None),
            ("source", ""),
            ("text", ""),
        ],
        ("m", SYSTEM, (QuantityDecl("v", SPEED),), SPEED, "pipeflow_laminar", "m.json", "{}"),
        ("text", "{ }"),
    ),
    QuadratureRule1D: ([("nodes", REQUIRED), ("weights", REQUIRED)], (NODE, WEIGHT), ("nodes", np.array([0.5]))),
    TensorGrid: (
        [("order", REQUIRED), ("bounds", REQUIRED), ("mapped_nodes", REQUIRED), ("unit_weights", REQUIRED)],
        (1, ((0.0, 1.0),), np.array([[0.5]]), np.array([1.0])),
        ("order", 2),
    ),
    SubspaceEstimate: (
        [("eigenvalues", REQUIRED), ("eigenvectors", REQUIRED), ("clamped", False)],
        (VALUES, VECTORS, False),
        ("clamped", True),
    ),
    InclusionReport: ([("per_column_residuals", REQUIRED), ("total", REQUIRED)], ((1e-20,), 1e-20), ("total", 2e-20)),
    SweepResult: (
        [("subspace_dim", REQUIRED), ("entries", REQUIRED), ("slope", REQUIRED), ("estimate", None)],
        (1, ((1e-2, 1e-4), (1e-3, 1e-6)), 2.0, SubspaceEstimate(VALUES, VECTORS)),
        ("slope", None),
    ),
    LogSpaceVelocity: ([("re_critical", RE_CRITICAL)], (2500.0,), ("re_critical", 2600.0)),
    BuiltinModel: (
        [("spec", REQUIRED), ("f", REQUIRED)],
        (load_model("laminar"), LogSpaceVelocity()),
        ("f", LogSpaceVelocity(2600.0)),
    ),
}
CLASSES = list(CASES)


def _names(cls):
    return [name for name, _ in CASES[cls][0]]


def _make(cls, **changes):
    _, args, _ = CASES[cls]
    return cls(*(changes.get(name, arg) for name, arg in zip(_names(cls), args)))


def test_the_thirteen_value_classes():
    assert len(CASES) == 13


@pytest.mark.parametrize("cls", CLASSES)
def test_parameters_are_the_fields_in_order_with_their_defaults(cls):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == CASES[cls][0]
    assert cls._fields == tuple(_names(cls))


@pytest.mark.parametrize("cls", CLASSES)
def test_positional_and_keyword_construction_agree(cls):
    _, args, _ = CASES[cls]
    positional, keyword = cls(*args), cls(**dict(zip(_names(cls), args)))
    assert positional == keyword
    for value in (positional, keyword):
        assert list(vars(value)) == _names(cls)  # each field stored, nothing else
        assert all(getattr(value, name) is arg or getattr(value, name) == arg for name, arg in zip(_names(cls), args))


@pytest.mark.parametrize("cls", [cls for cls in CLASSES if CASES[cls][0][-1][1] is not REQUIRED])
def test_omitted_arguments_take_their_defaults(cls):
    params, args, _ = CASES[cls]
    given = [arg for (_, default), arg in zip(params, args) if default is REQUIRED]
    value = cls(*given)
    assert [getattr(value, name) for name, default in params if default is not REQUIRED] == [
        default for _, default in params if default is not REQUIRED
    ]


@pytest.mark.parametrize("cls", CLASSES)
def test_equal_by_value_and_hashed_as_the_field_tuple(cls):
    a, b = _make(cls), _make(cls)
    assert a is not b and a == b and not a != b
    fields = tuple(getattr(a, name) for name in _names(cls))
    try:
        expected = hash(fields)
    except TypeError:  # an array field: unhashable, as the tuple of fields is
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected


@pytest.mark.parametrize("cls", CLASSES)
def test_a_changed_field_makes_an_unequal_value(cls):
    name, other = CASES[cls][2]
    assert _make(cls) != _make(cls, **{name: other})
    assert not _make(cls) == _make(cls, **{name: other})


@pytest.mark.parametrize("cls", CLASSES)
def test_values_of_different_classes_are_unequal(cls):
    value = _make(cls)
    other = _make(CLASSES[CLASSES.index(cls) - 1])
    assert value.__eq__(other) is NotImplemented
    assert value != other and other != value
    assert value != object()


def _rule(nodes, weights):
    return lambda: QuadratureRule1D(np.array(nodes), np.array(weights))


# each side is built from its own arrays, so no field is shared and identity cannot decide
@pytest.mark.parametrize(
    "make_a, make_b, equal",
    [
        (lambda: tensor_grid(3, [(0, 1), (1, 2)]), lambda: tensor_grid(3, [(0, 1), (1, 2)]), True),
        (lambda: eigendecompose(np.diag([2.0, 1.0])), lambda: eigendecompose(np.diag([2.0, 1.0])), True),
        (_rule([-0.5, 0.5], [1.0, 1.0]), _rule([-0.5, 0.5], [1.0, 1.0]), True),
        (_rule([-0.5, 0.5], [1.0, 1.0]), _rule([-0.5, 0.25], [1.0, 1.0]), False),
        (_rule([-0.5, 0.5], [1.0, 1.0]), _rule([-0.5, 0.5], [1.0, 1.0, 1.0]), False),
        (_rule([-0.5, 0.5], [1.0, 1.0]), _rule([[-0.5, 0.5]], [1.0, 1.0]), False),  # equal once broadcast
    ],
    ids=["grids", "estimates", "rules", "unequal-entries", "shape-mismatch", "broadcastable-shapes"],
)
def test_array_fields_compare_by_shape_and_entries(make_a, make_b, equal):
    a, b = make_a(), make_b()
    assert (a == b, b == a, a != b) == (equal, equal, not equal)


@pytest.mark.parametrize("cls", CLASSES)
def test_fields_cannot_be_assigned_or_deleted(cls):
    value = _make(cls)
    before = tuple(getattr(value, name) for name in _names(cls))
    for name in [*_names(cls), "extra"]:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    assert all(x is y for x, y in zip(before, (getattr(value, name) for name in _names(cls))))


@pytest.mark.parametrize("cls", CLASSES)
def test_repr_names_the_class_and_its_fields(cls):
    value = _make(cls)
    shown = [name for name in _names(cls) if (cls, name) != (ModelSpec, "text")]
    assert repr(value) == f"{cls.__name__}(" + ", ".join(f"{n}={getattr(value, n)!r}" for n in shown) + ")"


def test_repr_examples():
    assert repr(UnitSystem(["kg", "m"])) == "UnitSystem(unit_names=('kg', 'm'))"
    assert repr(LogSpaceVelocity()) == "LogSpaceVelocity(re_critical=3000.0)"
    assert repr(QuantityDecl("v", SPEED, 1, 2)) == (
        "QuantityDecl(name='v', dimension=DimensionVector(exponents=(Fraction(0, 1), Fraction(1, 1), "
        "Fraction(-1, 1)), system=UnitSystem(unit_names=('kg', 'm', 's'))), range_lo=1.0, range_hi=2.0)"
    )
    spec = load_model("laminar")
    assert spec.text and "text=" not in repr(spec) and spec.text not in repr(spec)


def test_fields_are_converted_on_construction():
    assert UnitSystem(["kg", "m"]).unit_names == ("kg", "m")
    exponents = DimensionVector([1, "1/2", F(-1)], SYSTEM).exponents
    assert exponents == (F(1), F(1, 2), F(-1)) and all(type(e) is Fraction for e in exponents)
    q = QuantityDecl("v", SPEED, 1, 2)
    assert (q.range_lo, q.range_hi) == (1.0, 2.0) and type(q.range_lo) is type(q.range_hi) is float
    D = DimensionMatrix([[0], [1], [-1]], ["v"], SYSTEM)
    assert (D.entries, D.column_names) == (((0,), (1,), (-1,)), ("v",))


@pytest.mark.parametrize(
    "cls, args, message",
    [
        (UnitSystem, ((),), r"^a unit system needs between 1 and 7 fundamental units, got 0$"),
        (UnitSystem, (tuple("abcdefgh"),), r"^a unit system needs between 1 and 7 fundamental units, got 8$"),
        (UnitSystem, (("kg", ""),), r"^unit labels must be non-empty strings$"),
        (UnitSystem, (("kg", 1),), r"^unit labels must be non-empty strings$"),
        (UnitSystem, (("kg", "kg"),), r"^unit labels must be unique, got \('kg', 'kg'\)$"),
        (DimensionVector, ((1, 0), SYSTEM), r"^dimension vector has 2 exponents but the system has 3 units$"),
        (DimensionVector, (("1.5", 0, 0), SYSTEM), r"^rational exponent must be an integer or 'p/q' string"),
        (QuantityDecl, ("", SPEED), r"^quantity name must be non-empty$"),
        (QuantityDecl, ("v", SPEED, 1.0), r"^quantity 'v': give both range bounds or neither$"),
        (QuantityDecl, ("v", SPEED, None, 1.0), r"^quantity 'v': give both range bounds or neither$"),
        (QuantityDecl, ("v", SPEED, 2, 1), r"^quantity 'v': range must satisfy 0 < lo < hi, got \(2, 1\)$"),
        (QuantityDecl, ("v", SPEED, 0.0, 1.0), r"^quantity 'v': range must satisfy 0 < lo < hi"),
        (DimensionMatrix, (((0,),), ("v",), SYSTEM), r"^dimension matrix must have one row per fundamental unit$"),
        (
            DimensionMatrix,
            (((0,), (1,), (0, 1)), ("v",), SYSTEM),
            r"^dimension matrix rows must match the number of quantities$",
        ),
    ],
)
def test_invalid_fields_are_model_errors(cls, args, message):
    with pytest.raises(ModelError, match=message):
        cls(*args)


def test_a_grid_caches_its_tiles_in_the_instance_from_the_first_chunk():
    grid = tensor_grid(3, [(0.0, 1.0)] * 2)
    assert "_axis_tiles" not in vars(grid)
    next(grid.chunks())
    tiles = vars(grid)["_axis_tiles"]
    assert grid._axis_tiles is tiles
    assert grid == TensorGrid(grid.order, grid.bounds, grid.mapped_nodes, grid.unit_weights)  # the cache is no field


def test_a_bound_model_computes_its_decomposition_once(monkeypatch):
    calls, original = [], pipeflow.pi_decomposition

    def counted(D, qoi):
        calls.append(qoi)
        return original(D, qoi)

    monkeypatch.setattr(pipeflow, "pi_decomposition", counted)
    model = bind_builtin(load_model("turbulent"))
    assert "decomposition" not in vars(model)
    first = model.decomposition
    assert model.decomposition is first is vars(model)["decomposition"]
    assert len(calls) == 1
    with pytest.raises(AttributeError, match="^cannot assign to field 'decomposition'$"):
        model.decomposition = None
