"""Mutated model files and argv through the CLI: every outcome is an exit status, never a traceback."""

import contextlib
import io
import json
import os
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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


# argv grammar: every subcommand with its options, plus unknown words and flags.
# Option values are mostly good, else bad numbers, empty or unknown; quadrature orders stay
# small, so every drawn command is cheap.
def _mostly(good, bad):
    """A good value in 3 of 4 draws, so that whole commands succeed too."""
    return st.integers(0, 3).flatmap(lambda i: st.sampled_from(bad if i == 0 else good))


FLOAT_TEXT = _mostly(["1e-3", "1e-5", "2"], ["0", "-1e-5", "1e-300", "1e300", "nan", "-inf", "1e999", "abc", ""])
FD_STEP_TEXT = _mostly(["1e-3", "1e-5"], ["0", "-1e-5", "1e300", "nan", "1e-17", "5e-324"])
RE_CRIT_TEXT = _mostly(["3000", "2e3"], ["0", "-1", "-1e9", "inf"])
STEPS_TEXT = st.one_of(
    st.lists(FLOAT_TEXT, min_size=1, max_size=3).map(",".join),
    st.sampled_from(["1e-5,1e-3", "1e-3,1e-3", "1e-4,1e-2,1e-3"]),  # not strictly descending
)
MODEL_TEXT = _mostly(["laminar", "pipeflow_turbulent", "turbulent", "pipeflow_laminar"], ["plasma", ""])
# 6209 ** 5 points overflow an index and exceed the point budget; orders 4 to 63, within the budget,
# are not drawn, as their grids take seconds to hours
QUAD_ORDER_TEXT = _mostly(["1", "2", "3"], ["0", "-1", "x", "6209"])
EVAL_TEXT = {
    **{option: st.one_of(st.just(value), FLOAT_TEXT) for option, value in EVAL_STATE.items()},
    "--re-crit": RE_CRIT_TEXT,
}
GRAMMAR = {
    ("pi",): {"": MODEL_TEXT},
    ("active",): {"--model": MODEL_TEXT, "--fd-step": FD_STEP_TEXT},
    ("sweep",): {"--model": MODEL_TEXT, "--steps": STEPS_TEXT},
    ("inclusion",): {"--candidate": st.just(os.devnull), "--enclosing": st.just("missing.csv")},
    ("pipeflow", "eval"): EVAL_TEXT,
    ("pipeflow", "reproduce"): {
        "--regime": st.sampled_from(["laminar", "turbulent", "plasma"]),
        "--fd-step": FD_STEP_TEXT,
        "--steps": STEPS_TEXT,
        "--re-crit": RE_CRIT_TEXT,
    },
    ("pipeflow",): {},
    ("frobnicate",): {},
    (): {},
}
ESTIMATING_WORDS = {("active",), ("sweep",), ("pipeflow", "reproduce")}
STRAY = st.sampled_from(["--help", "-h", "--version", "--bogus", "stray"])


@st.composite
def argv_vectors(draw):
    words = draw(st.sampled_from(sorted(GRAMMAR)))
    options = GRAMMAR[words]
    chosen = [option for option in sorted(options) if draw(st.integers(0, 3))]  # each one in 3 of 4 draws
    pairs = [[draw(options[option])] if option == "" else [option, draw(options[option])] for option in chosen]
    tail = [word for pair in draw(st.permutations(pairs)) for word in pair]
    for stray in draw(st.lists(STRAY, max_size=1)):
        tail.insert(draw(st.integers(0, len(tail))), stray)
    # right after the subcommand, so no cut below can drop it and run the default order 11
    head = list(words) + (["--quad-order", draw(QUAD_ORDER_TEXT)] if words in ESTIMATING_WORDS else [])
    argv = head + tail
    if draw(st.integers(0, 3)) == 0:  # cut short: a missing option value or required argument
        argv = argv[: draw(st.sampled_from([len(words), *range(len(head), len(argv) + 1)]))]
    return argv


def _run(argv):
    """run_command in process; a numpy floating-point warning it lets through raises under pytest."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    """A fixed command: a callable that runs it, returning its outcome and run.json, and its first result."""
    out = tmp_path_factory.mktemp("probe")
    argv = ["pi", "pipeflow_laminar", "--out", str(out)]

    def run():
        return _run(argv), (out / "run.json").read_text()

    first = run()
    (code, _, err), _ = first
    assert (code, err) == (0, "")
    return run, first


@settings(max_examples=80, deadline=None)
@given(st.lists(argv_vectors(), min_size=1, max_size=4))
@example(  # one draw of each rule the grammar reaches only rarely
    batch=[
        ["pi", "laminar"],
        ["active", "--quad-order", "2", "--model", "turbulent", "--fd-step", "1e300"],
        ["active", "--quad-order", "3", "--model", "laminar", "--fd-step", "1e-17"],
        ["active", "--quad-order", "6209", "--model", "laminar"],
        ["sweep", "--quad-order", "2", "--model", "laminar", "--steps", "1e-5,1e-3"],
        ["pipeflow", "eval", "--rho=1", "--mu=10", "--diam=0.5", "--eps=0.01", "--dpdl=1", "--re-crit=-1e9"],
        ["pipeflow", "eval", "--rho=1", "--mu=1", "--diam=1e-200", "--eps=1e-201", "--dpdl=1e-300"],
        ["pipeflow", "reproduce", "--quad-order", "2", "--regime", "laminar", "--re-crit", "0"],
    ]
)
def test_back_to_back_argv_leave_no_state_in_the_parser(probe, batch):
    run_probe, expected = probe
    for argv in batch:
        code, out, err = _run(argv)
        assert code in {0, 2, 3, 4}, (argv, code, err)
        if code:
            prefix = {2: "usage error: ", 3: "model error: ", 4: "numerical failure: "}[code]
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith(prefix), (argv, err)
            assert out == "", argv
        # the same fixed command after every drawn one prints and records the same bytes
        assert run_probe() == expected, argv
