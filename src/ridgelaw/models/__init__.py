"""Model files (JSON): the schema, its loader, and the shipped models.

SHIPPED_MODELS, the one list of shipped models, maps each id to the active
dimension of its built-in function (``active_dim``). A shipped model is
resolved by id or short form (``short_form``: 'laminar'), before any file of
that name, and read from beside this module as any model file is read. It is
the signature of the built-in function of the same id: a file declaring
``"builtin": X`` (a full id) must declare the quantities of ``X.json`` (names
and dimensions, in order) and its QoI dimension; only the ranges may differ.
RE_CRITICAL, the shipped pipe models' regime switch, lives here, free of numpy
and of the Pi algorithm: a model bound to its builtin computes its own
decomposition (``pipeflow.BuiltinModel.decomposition``).
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from typing import Optional, Tuple

from .._value import Value
from ..dimensions import DimensionVector, QuantityDecl, UnitSystem, as_fraction, make_dimension
from ..errors import ModelError

SHIPPED_MODELS = {"pipeflow_laminar": 1, "pipeflow_turbulent": 3}  # id: expected active-subspace dimension
# critical Reynolds number of the shipped pipe models' regime switch
RE_CRITICAL = 3.0e3


def short_form(model_id: str) -> str:
    """A shipped id's short form, which names it wherever the id does: the id without 'pipeflow_'."""
    return model_id.removeprefix("pipeflow_")


class ModelSpec(Value):
    """Validated model file: unit system, quantities, QoI dimension, optional builtin id."""

    _unshown = ("text",)

    def __init__(
        self,
        name: str,
        system: UnitSystem,
        quantities: Tuple[QuantityDecl, ...],
        qoi: DimensionVector,
        builtin: Optional[str] = None,
        source: str = "",  # the shipped id, or the path that was read
        text: str = "",  # the file's text
    ):
        self._set(
            name=name, system=system, quantities=quantities, qoi=qoi, builtin=builtin, source=source, text=text
        )

    def ranges(self) -> Tuple[Tuple[float, float], ...]:
        missing = [q.name for q in self.quantities if not q.has_range]
        if missing:
            raise ModelError(
                f"subspace estimation needs ranges for all quantities; missing: {missing}"
            )
        return tuple((q.range_lo, q.range_hi) for q in self.quantities)

    def log_bounds(self) -> Tuple[Tuple[float, float], ...]:
        import numpy as np  # np.log, not math.log: the grid's bits depend on it

        bounds = []
        for q, (lo, hi) in zip(self.quantities, self.ranges()):
            log_lo, log_hi = float(np.log(lo)), float(np.log(hi))
            if not log_lo < log_hi:
                raise ModelError(f"quantity {q.name!r}: range ({lo!r}, {hi!r}) has no width in log space")
            bounds.append((log_lo, log_hi))
        return tuple(bounds)


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ModelError(f"{context}: missing required field {key!r}")
    return mapping[key]


def _require_object(raw, context: str) -> dict:
    if not isinstance(raw, dict):
        raise ModelError(f"{context}: must be an object")
    return raw


def _require_utf8(label: str, context: str, field: str) -> None:
    """Raise unless label can be written as UTF-8: artifacts are UTF-8 bytes, and a lone surrogate has none."""
    try:
        label.encode()
    except UnicodeEncodeError as exc:
        raise ModelError(f"{context}: {field} {label!r} cannot be written as UTF-8 ({exc.reason})") from None


def _require_name(mapping: dict, context: str) -> str:
    name = _require(mapping, "name", context)
    if not isinstance(name, str) or not name:
        raise ModelError(f"{context}: 'name' must be a non-empty string, got {name!r}")
    _require_utf8(name, context, "'name'")
    return name


def _is_finite_number(x) -> bool:
    """A JSON number that converts to a finite double (not a bool, NaN or inf)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


# model files repeat a few exponents: each distinct one is parsed once
_exponent = functools.lru_cache(maxsize=1024)(as_fraction)


def _parse_dimension(system: UnitSystem, raw: dict, context: str) -> DimensionVector:
    if not isinstance(raw, dict):
        raise ModelError(f"{context}: 'dimension' must be an object of unit: exponent pairs")
    pairs = []
    for label, exponent in raw.items():
        if isinstance(exponent, bool) or not isinstance(exponent, (int, str)):
            raise ModelError(
                f"{context}: exponent for unit {label!r} must be an integer or 'p/q' string"
            )
        pairs.append((label, _exponent(exponent)))
    return make_dimension(system, pairs)


def _units(dim: DimensionVector) -> dict:
    """The non-zero exponents of a dimension, by unit label."""
    return {u: str(e) for u, e in zip(dim.system.unit_names, dim.exponents) if e}


def active_dim(spec: ModelSpec) -> int:
    """The active dimension of spec's builtin; a ModelError that names the shipped ids if none has its id."""
    try:
        return SHIPPED_MODELS[spec.builtin]
    except KeyError:
        raise ModelError(
            f"model {spec.name!r}: unknown builtin id {spec.builtin!r}; "
            f"expected one of {list(SHIPPED_MODELS)}"
        ) from None


def _check_builtin(spec: ModelSpec) -> None:
    """Raise unless spec has the quantities and QoI dimension of its builtin's shipped file."""
    active_dim(spec)
    ref = _load_shipped(spec.builtin)
    context = f"model {spec.name!r} does not match builtin {spec.builtin!r}"
    got = [(q.name, _units(q.dimension)) for q in spec.quantities]
    want = [(q.name, _units(q.dimension)) for q in ref.quantities]
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            raise ModelError(f"{context}: quantity #{i} is {g}, expected {w}")
    if len(got) != len(want):
        raise ModelError(f"{context}: {len(got)} quantities, expected {len(want)}")
    if _units(spec.qoi) != _units(ref.qoi):
        raise ModelError(
            f"{context}: QoI dimension is {_units(spec.qoi)}, expected {_units(ref.qoi)}"
        )


def _parse(text: str, name: str, source: str) -> ModelSpec:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, an integer past the digit limit, deep nesting
        raise ModelError(f"model {name!r}: invalid JSON ({exc})") from exc
    doc = _require_object(doc, f"model {name!r}, top level")

    units = _require(doc, "unit_system", f"model {name!r}")
    if not isinstance(units, list) or not all(isinstance(u, str) for u in units):
        raise ModelError(f"model {name!r}: 'unit_system' must be a list of unit labels")
    for label in units:
        _require_utf8(label, f"model {name!r}", "'unit_system' label")
    system = UnitSystem(tuple(units))

    raw_quantities = _require(doc, "quantities", f"model {name!r}")
    if not isinstance(raw_quantities, list) or not raw_quantities:
        raise ModelError(f"model {name!r}: 'quantities' must be a non-empty list")
    quantities = []
    for i, raw in enumerate(raw_quantities):
        ctx = f"model {name!r}, quantity #{i}"
        raw = _require_object(raw, ctx)
        qname = _require_name(raw, ctx)
        ctx = f"{ctx} ({qname!r})"
        dim = _parse_dimension(system, _require(raw, "dimension", ctx), ctx)
        lo = hi = None
        if "range" in raw:
            rng = raw["range"]
            if not (isinstance(rng, list) and len(rng) == 2 and all(map(_is_finite_number, rng))):
                raise ModelError(f"{ctx}: 'range' must be [lo, hi] with finite numbers")
            lo, hi = rng
        quantities.append(QuantityDecl(name=qname, dimension=dim, range_lo=lo, range_hi=hi))
    names = [q.name for q in quantities]
    if len(set(names)) != len(names):
        raise ModelError(f"model {name!r}: quantity names must be unique, got {names}")

    raw_qoi = _require_object(_require(doc, "qoi", f"model {name!r}"), f"model {name!r} qoi")
    qoi_name = _require_name(raw_qoi, f"model {name!r} qoi")
    if qoi_name in names:
        raise ModelError(
            f"model {name!r}: quantity of interest {qoi_name!r} must not also be an input quantity"
        )
    qoi = _parse_dimension(system, _require(raw_qoi, "dimension", f"model {name!r} qoi"), "qoi")

    builtin = doc.get("builtin")
    if builtin is not None and not isinstance(builtin, str):
        raise ModelError(f"model {name!r}: 'builtin' must be a string id, got {builtin!r}")
    return ModelSpec(
        name=name,
        system=system,
        quantities=tuple(quantities),
        qoi=qoi,
        builtin=builtin,
        source=source,
        text=text,
    )


@functools.lru_cache(maxsize=None)
def _load_shipped(model_id: str) -> ModelSpec:
    text = Path(__file__).with_name(f"{model_id}.json").read_bytes().decode()
    return _parse(text, model_id, model_id)


def load_model(path_or_id: str) -> ModelSpec:
    """Load and validate a model file: a shipped id, its short form or a path."""
    for model_id in SHIPPED_MODELS:
        if path_or_id in (model_id, short_form(model_id)):
            return _load_shipped(model_id)
    path = Path(path_or_id)
    if not path.exists():
        raise ModelError(
            f"model {path_or_id!r} is neither a file nor one of the shipped models {list(SHIPPED_MODELS)} "
            f"or their short forms {[short_form(m) for m in SHIPPED_MODELS]}"
        )
    try:
        text = path.read_bytes().decode()  # the file's bytes, so that its sha256 is theirs
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelError(f"cannot read model file {path_or_id!r}: {exc}") from exc
    spec = _parse(text, path.stem, str(path))
    if spec.builtin is not None:
        _check_builtin(spec)
    return spec
