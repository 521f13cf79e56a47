"""Mutated model files through the CLI: every outcome is an exit status, never a traceback."""

import contextlib
import io
import json
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from ridgelaw.cli import run_command

SHIPPED = json.loads(
    resources.files("ridgelaw.models").joinpath("pipeflow_turbulent.json").read_text()
)

# values of the wrong type (or the right type with a wrong value) for any field
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.one_of(st.integers(-2, 2), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.sampled_from(["kg", "m", "s", "K", "name"]), st.integers(-2, 2), max_size=2),
)
model_ids = st.sampled_from(["pipeflow_laminar", "pipeflow_turbulent", "laminar", "plasma", ""])
QUANTITY_MUTATIONS = (
    "drop_quantity", "reorder_quantities", "quantity_name", "exponent", "dimension", "range", "range_entry",
)
DOC_MUTATIONS = ("quantities", "qoi", "qoi_name", "qoi_dimension", "builtin")


@st.composite
def mutated_models(draw):
    doc = json.loads(json.dumps(SHIPPED))
    kinds = st.sampled_from(QUANTITY_MUTATIONS + DOC_MUTATIONS)
    for kind in draw(st.lists(kinds, min_size=1, max_size=3)):
        qs = doc.get("quantities")
        if kind in QUANTITY_MUTATIONS and not (isinstance(qs, list) and qs and all(isinstance(q, dict) for q in qs)):
            continue
        if kind == "quantities":
            doc["quantities"] = draw(junk)
        elif kind == "qoi":
            doc["qoi"] = draw(junk)
        elif kind == "builtin":
            doc["builtin"] = draw(st.one_of(model_ids, junk))
        elif kind.startswith("qoi_"):
            if isinstance(doc.get("qoi"), dict):
                doc["qoi"][kind[4:]] = draw(junk)
        elif kind == "drop_quantity":
            qs.pop(draw(st.integers(0, len(qs) - 1)))
        elif kind == "reorder_quantities":
            doc["quantities"] = draw(st.permutations(qs))
        else:
            q = qs[draw(st.integers(0, len(qs) - 1))]
            if kind == "quantity_name":
                q["name"] = draw(junk)
            elif kind == "dimension":
                q["dimension"] = draw(junk)
            elif kind == "exponent" and isinstance(q.get("dimension"), dict):
                q["dimension"][draw(st.sampled_from(["kg", "m", "s", "K"]))] = draw(junk)
            elif kind == "range":
                q["range"] = draw(junk)
            elif kind == "range_entry" and isinstance(q.get("range"), list) and q["range"]:
                q["range"][draw(st.integers(0, len(q["range"]) - 1))] = draw(junk)
    return doc


@settings(max_examples=50, deadline=None)
@given(mutated_models())
def test_mutated_model_files_end_in_an_exit_status(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(doc))
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), np.errstate(all="ignore"):
            codes = [
                run_command(["pi", str(path)]),
                run_command(["active", "--model", str(path), "--quad-order", "2"]),
            ]
    assert set(codes) <= {0, 2, 3, 4}, (codes, sink.getvalue())


# option values: non-finite, special (zero, negative, huge, tiny) and arbitrary finite
option_values = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.sampled_from([0.0, -1.0, -1e-12, 1e-5, 3e3, 1e30, 1e308, 5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# a valid turbulent state; each example overrides some of its options
EVAL_STATE = {"--rho": "0.12", "--mu": "5e-6", "--diam": "0.5", "--eps": "0.01", "--dpdl": "1.0", "--re-crit": "3000"}


@st.composite
def option_sets(draw):
    def value():
        return repr(draw(option_values))

    def steps():
        return ",".join(value() for _ in range(draw(st.integers(1, 3))))

    command = draw(st.sampled_from(["eval", "active", "sweep", "reproduce"]))
    if command == "eval":
        options = dict(EVAL_STATE)
        for option in draw(st.lists(st.sampled_from(sorted(options)), min_size=1, max_size=2, unique=True)):
            options[option] = value()
        return ["pipeflow", "eval", *(f"{option}={v}" for option, v in options.items())]
    model = draw(st.sampled_from(["laminar", "turbulent"]))
    order = ["--quad-order", str(draw(st.integers(-1, 3)))]
    if command == "active":
        return ["active", "--model", model, *order, f"--fd-step={value()}"]
    if command == "sweep":
        return ["sweep", "--model", model, *order, f"--steps={steps()}"]
    argv = ["pipeflow", "reproduce", "--regime", model, *order]
    for option in ("--fd-step", "--re-crit"):
        if draw(st.booleans()):
            argv += [f"{option}={value()}"]
    if draw(st.booleans()):
        argv += [f"--steps={steps()}"]
    return argv


def _numbers(payload):
    """Every number in a printed payload; numeric strings count as numbers."""
    if isinstance(payload, dict):
        for item in payload.values():
            yield from _numbers(item)
    elif isinstance(payload, list):
        for item in payload:
            yield from _numbers(item)
    elif isinstance(payload, str):
        try:
            yield float(payload)
        except ValueError:
            pass
    elif isinstance(payload, (int, float)) and not isinstance(payload, bool):
        yield payload


@settings(max_examples=50, deadline=None)
@given(option_sets())
def test_option_sets_end_in_an_exit_status_with_finite_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), np.errstate(all="ignore"):
        code = run_command(argv)
    assert code in {0, 2, 3, 4}, (argv, code, err.getvalue())
    if code == 0:
        numbers = list(_numbers(json.loads(out.getvalue())))
        assert all(np.isfinite(numbers)), (argv, out.getvalue())
