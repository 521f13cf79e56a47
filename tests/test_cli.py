"""Model-file loading, subcommands, artifacts, and exit codes."""

import argparse
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ridgelaw
from ridgelaw import pipeflow
from ridgelaw.cli import build_parser, fmt_float, load_model, run_command
from ridgelaw.errors import ModelError
from ridgelaw.quadrature import DEFAULT_CHUNK, MAX_GRID_POINTS


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


BASE_DOC = {
    "unit_system": ["kg", "m", "s"],
    "quantities": [
        {"name": "rho", "dimension": {"kg": 1, "m": -3}, "range": [0.1, 0.14]},
        {"name": "mu", "dimension": {"kg": 1, "m": -1, "s": -1}, "range": [1e-6, 1e-5]},
        {"name": "D", "dimension": {"m": 1}, "range": [0.1, 1.0]},
    ],
    "qoi": {"name": "V", "dimension": {"m": 1, "s": -1}},
}


class TestLoadModel:
    def test_shipped_laminar_round_trips_table_and_matrix(self):
        spec = load_model("pipeflow_laminar")
        assert [q.name for q in spec.quantities] == ["rho", "mu", "D", "eps", "dPdL"]
        assert spec.ranges() == (
            (1.0e-1, 1.4e-1),
            (1.0e-6, 1.0e-5),
            (1.0e-1, 1.0e0),
            (1.0e-3, 1.0e-1),
            (1.0e-9, 1.0e-7),
        )
        decomp = spec.decomposition()
        assert decomp.rank == 3 and decomp.n == 2
        assert spec.builtin == "pipeflow_laminar"

    def test_negative_range_rejected_with_quantity_name(self, tmp_path):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["quantities"][1]["range"] = [-1e-6, 1e-5]
        with pytest.raises(ModelError, match="mu"):
            load_model(write_model(tmp_path, doc))

    def test_unproducible_qoi_units_surface_from_the_solver(self, tmp_path):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["quantities"] = [q for q in doc["quantities"] if q["name"] != "mu"]
        # no remaining quantity carries time units, so velocity is unreachable
        spec = load_model(write_model(tmp_path, doc))
        with pytest.warns(UserWarning, match="rank"):
            with pytest.raises(ModelError, match="cannot be formed"):
                spec.decomposition()

    def test_qoi_must_not_be_an_input(self, tmp_path):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["qoi"] = {"name": "rho", "dimension": {"kg": 1, "m": -3}}
        with pytest.raises(ModelError, match="rho"):
            load_model(write_model(tmp_path, doc))

    def test_duplicate_quantity_names_rejected(self, tmp_path):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["quantities"].append(doc["quantities"][0])
        with pytest.raises(ModelError, match="unique"):
            load_model(write_model(tmp_path, doc))

    def test_rational_exponent_strings_accepted(self, tmp_path):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["quantities"][0]["dimension"] = {"kg": "1/2", "m": "-3/2"}
        spec = load_model(write_model(tmp_path, doc))
        from fractions import Fraction

        assert spec.quantities[0].dimension.exponents[0] == Fraction(1, 2)

    def test_missing_field_reported(self, tmp_path):
        with pytest.raises(ModelError, match="unit_system"):
            load_model(write_model(tmp_path, {"quantities": []}))

    def test_missing_file_reported(self):
        with pytest.raises(ModelError, match="shipped"):
            load_model("no_such_model.json")

    def test_short_ids_name_the_shipped_models_over_a_file_of_that_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "laminar").write_text("not a model file")
        for short in ("laminar", "turbulent"):
            assert load_model(short) is load_model(f"pipeflow_{short}")
            assert run_command(["pi", short]) == 0
            by_short = capsys.readouterr()
            assert run_command(["pi", f"pipeflow_{short}"]) == 0
            assert capsys.readouterr() == by_short
        assert run_command(["active", "--model", "laminar", "--quad-order", "2"]) == 0
        assert capsys.readouterr().err == ""
        with pytest.raises(ModelError, match=r"or their short forms \['laminar', 'turbulent'\]$"):
            load_model("plasma")

    def test_integer_past_the_digit_limit_is_invalid_json(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(BASE_DOC).replace('"kg": 1', '"kg": ' + "9" * 5000, 1))
        with pytest.raises(ModelError, match="invalid JSON"):
            load_model(str(path))

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["quantities"][0].update(name=["rho"]), "'name' must be a non-empty string"),
            (lambda d: d["quantities"][0].update(name=7), "'name' must be a non-empty string"),
            (lambda d: d.update(qoi=3), "qoi: must be an object"),
            (lambda d: d.update(qoi=["V"]), "qoi: must be an object"),
            (lambda d: d["quantities"][0]["dimension"].update(kg=True), "exponent for unit 'kg'"),
            (lambda d: d["quantities"][0].update(range=["x", 2]), "'range' must be"),
            (lambda d: d["quantities"][0].update(range=[0.1, True]), "'range' must be"),
            (lambda d: d["quantities"][0].update(range=[0.1, 10**400]), "'range' must be"),
        ],
    )
    def test_schema_violations_exit_3(self, tmp_path, capsys, mutate, message):
        doc = json.loads(json.dumps(BASE_DOC))
        mutate(doc)
        assert run_command(["pi", write_model(tmp_path, doc)]) == 3
        err = capsys.readouterr().err
        assert "model error" in err and message in err


def _pipe_doc(mutate=None):
    doc = _shipped_laminar_doc()
    if mutate is not None:
        mutate(doc["quantities"], doc)
    return doc


class TestBuiltinBinding:
    """A file naming a builtin must declare that shipped file's quantities and QoI."""

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda qs, d: qs.reverse(), "quantity #0 is ('dPdL'"),
            (lambda qs, d: qs.insert(1, qs.pop(3)), "quantity #1 is ('eps'"),
            (lambda qs, d: qs.pop(), "4 quantities, expected 5"),
            (lambda qs, d: qs.pop(2), "quantity #2 is ('eps'"),
            (lambda qs, d: qs.append({"name": "T", "dimension": {"s": 1}}), "6 quantities, expected 5"),
            (lambda qs, d: qs[1].update(name="nu"), "quantity #1 is ('nu'"),
            (lambda qs, d: qs[2].update(dimension={"m": 2}), "expected ('D', {'m': '1'})"),
            (lambda qs, d: d["qoi"].update(dimension={"m": 1}), "QoI dimension is {'m': '1'}"),
            (lambda qs, d: d.update(builtin="laminar"), "unknown builtin id 'laminar'"),
        ],
    )
    def test_mismatch_exits_3_naming_it(self, tmp_path, capsys, mutate, message):
        path = write_model(tmp_path, _pipe_doc(mutate))
        assert run_command(["active", "--model", path, "--quad-order", "2"]) == 3
        err = capsys.readouterr().err
        assert "does not match builtin 'pipeflow_laminar'" in err or "unknown builtin" in err
        assert message in err

    def test_other_regime_and_range_only_variants_run(self, tmp_path, capsys):
        def sub_box(qs, d):
            d["builtin"] = "pipeflow_turbulent"
            d["unit_system"] = ["s", "m", "kg"]  # same dimensions, other unit order
            qs[0]["range"] = [0.11, 0.12]
            qs[4]["range"] = [1e-9, 10]

        path = write_model(tmp_path, _pipe_doc(sub_box))
        assert run_command(["active", "--model", path, "--quad-order", "2"]) == 0
        assert len(json.loads(capsys.readouterr().out)["eigenvalues"]) == 5

    def test_shipped_files_are_their_own_builtins(self):
        for model_id in ("pipeflow_laminar", "pipeflow_turbulent"):
            assert load_model(model_id).builtin == model_id


class TestPiCommand:
    def test_prints_decomposition_and_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert run_command(["pi", "pipeflow_laminar", "--out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rank"] == 3
        assert payload["n_pi_groups"] == 2
        assert payload["D"][0] == ["1", "1", "0", "0", "1"]
        for name in ("D.csv", "w.csv", "W.csv", "A.csv", "pi.json", "run.json"):
            assert (out / name).exists()
        d_csv = (out / "D.csv").read_text().splitlines()
        assert d_csv[0] == ",rho,mu,D,eps,dPdL"
        assert d_csv[1] == "kg,1,1,0,0,1"

    def test_incomplete_unit_system_prints_one_warning_line_per_run(self, tmp_path, capsys):
        doc = {
            "unit_system": ["kg", "m", "s"],
            "quantities": [
                {"name": "a", "dimension": {"m": 1}},
                {"name": "b", "dimension": {"m": 1}},
            ],
            "qoi": {"name": "L", "dimension": {"m": 1}},
        }
        path = write_model(tmp_path, doc)
        for _ in range(2):
            assert run_command(["pi", path]) == 0
            captured = capsys.readouterr()
            assert json.loads(captured.out)["rank"] == 1
            assert captured.err.splitlines() == [
                "warning: dimension matrix has rank 1 < 3 fundamental units; "
                "the quantities do not span a complete set of dimensions"
            ]

    def test_pi_on_schema_violation_exits_3(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["quantities"][0]["range"] = [2.0, 1.0]
        path = write_model(tmp_path, doc)
        assert run_command(["pi", path]) == 3
        assert "model error" in capsys.readouterr().err

    def test_scientific_notation_exponent_exits_3_at_once(self, tmp_path, capsys):
        # "1e200000" is not an integer or p/q string; it used to reach exact
        # elimination as a 200001-digit integer
        doc = json.loads(json.dumps(BASE_DOC))
        doc["quantities"][0]["dimension"] = {"kg": "1e200000", "m": -3}
        path = write_model(tmp_path, doc)
        start = time.perf_counter()
        assert run_command(["pi", path]) == 3
        assert time.perf_counter() - start < 1.0
        assert "'1e200000'" in capsys.readouterr().err


class TestActiveCommand:
    def test_writes_eigenvalues_and_run_config(self, tmp_path, capsys):
        out = tmp_path / "run1"
        code = run_command(
            ["active", "--model", "pipeflow_laminar", "--quad-order", "3", "--fd-step", "1e-5", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["point_count"] == 3**5
        values = [float(v) for v in payload["eigenvalues"]]
        assert values == sorted(values, reverse=True)
        lines = (out / "eigenvalues.csv").read_text().splitlines()
        assert lines[0] == "index,eigenvalue"
        assert len(lines) == 6
        run_doc = json.loads((out / "run.json").read_text())
        assert run_doc["config"]["quad_order"] == 3
        assert (out / "eigenvectors.csv").exists()

    def test_model_file_with_builtin_is_accepted(self, tmp_path, capsys):
        spec_path = write_model(tmp_path, _shipped_laminar_doc(), name="custom.json")
        assert run_command(["active", "--model", spec_path, "--quad-order", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["eigenvalues"]) == 5

    def test_byte_identical_reruns(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_command(
                ["active", "--model", "pipeflow_turbulent", "--quad-order", "3", "--out", str(out)]
            ) == 0
        capsys.readouterr()
        for name in ("eigenvalues.csv", "eigenvectors.csv", "run.json", "active.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_overflowing_model_exits_4(self, tmp_path, capsys):
        doc = _shipped_laminar_doc()
        # diameter and pressure gradient this large overflow the turbulent
        # velocity to inf, which must surface as a numerical failure
        doc["quantities"][2]["range"] = [1e306, 2e306]
        doc["quantities"][4]["range"] = [1e306, 2e306]
        path = write_model(tmp_path, doc)
        with np.errstate(over="ignore"):
            assert run_command(["active", "--model", path, "--quad-order", "2"]) == 4
        assert "numerical failure" in capsys.readouterr().err

    def test_overflowing_gradient_outer_products_exit_4(self, tmp_path, capsys):
        # velocities near 1e155 are finite, but their squared gradients
        # overflow C to inf; that must not come out as nan eigenvalues
        doc = _shipped_laminar_doc()
        doc["quantities"][2]["range"] = [1e19, 1e20]
        doc["quantities"][4]["range"] = [1e286, 1e287]
        path = write_model(tmp_path, doc)
        with np.errstate(over="ignore", invalid="ignore"):
            assert run_command(["active", "--model", path, "--quad-order", "2"]) == 4
        assert "non-finite" in capsys.readouterr().err

    def test_model_without_builtin_exits_3(self, tmp_path, capsys):
        doc = _shipped_laminar_doc()
        del doc["builtin"]
        path = write_model(tmp_path, doc)
        assert run_command(["active", "--model", path, "--quad-order", "2"]) == 3
        assert "built-in" in capsys.readouterr().err

    def test_runs_no_pi_decomposition(self, tmp_path, capsys, monkeypatch):
        # active outputs no pi groups, so it must not compute any
        import ridgelaw.pigroups

        calls = []
        original = ridgelaw.pigroups.pi_decomposition

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("ridgelaw") and getattr(module, "pi_decomposition", None) is original:
                monkeypatch.setattr(module, "pi_decomposition", counting)
        path = write_model(tmp_path, _shipped_laminar_doc())
        assert run_command(["active", "--model", path, "--quad-order", "2"]) == 0
        assert run_command(["active", "--model", "pipeflow_turbulent", "--quad-order", "2"]) == 0
        assert calls == []
        assert run_command(["pi", path]) == 0  # the counter does see a decomposition
        assert len(calls) == 1
        capsys.readouterr()


class TestInclusionCommand:
    def test_reports_residual(self, tmp_path, capsys):
        cand = tmp_path / "cand.csv"
        encl = tmp_path / "encl.csv"
        np.savetxt(cand, np.eye(3)[:, :1], delimiter=",")
        np.savetxt(encl, np.eye(3)[:, :2], delimiter=",")
        assert run_command(["inclusion", "--candidate", str(cand), "--enclosing", str(encl)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert float(payload["r2"]) <= 1e-30

    def test_bad_csv_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,numbers\nat,all\n")
        good = tmp_path / "good.csv"
        np.savetxt(good, np.eye(2), delimiter=",")
        assert run_command(["inclusion", "--candidate", str(bad), "--enclosing", str(good)]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("side", ["--candidate", "--enclosing"])
    def test_non_finite_csv_entry_exits_3_naming_the_file(self, tmp_path, capsys, entry, side):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{entry},0\n0,1\n")
        good = tmp_path / "good.csv"
        np.savetxt(good, np.eye(2), delimiter=",")
        other = "--enclosing" if side == "--candidate" else "--candidate"
        assert run_command(["inclusion", side, str(bad), other, str(good)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"model error: matrix CSV {str(bad)!r} has a non-finite entry\n"

    @pytest.mark.parametrize("side", ["--candidate", "--enclosing"])
    def test_overflowing_qr_exits_4(self, tmp_path, capsys, side):
        big = tmp_path / "big.csv"
        big.write_text("1e308,1e308\n1e308,-1e308\n")
        eye = tmp_path / "eye.csv"
        np.savetxt(eye, np.eye(2), delimiter=",")
        other = "--enclosing" if side == "--candidate" else "--candidate"
        assert run_command(["inclusion", side, str(big), other, str(eye)]) == 4
        captured = capsys.readouterr()
        name = side.lstrip("-")
        assert captured.out == ""
        assert captured.err == f"numerical failure: {name} basis has a non-finite QR factor\n"


class TestSweepCommand:
    def test_writes_sweep_csv_with_running_slope(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = run_command(
            ["sweep", "--model", "pipeflow_laminar", "--steps", "1e-3,1e-4,1e-5", "--quad-order", "3", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["subspace_dim"] == 1
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "h,r2,slope_so_far"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[2] == ""  # no slope from a single point
        assert float(lines[2].split(",")[2]) > 0.0

    def test_ascending_steps_exit_2(self, capsys):
        assert run_command(["sweep", "--model", "pipeflow_laminar", "--steps", "1e-5,1e-3", "--quad-order", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: sweep needs strictly descending step sizes, got [1e-05, 0.001]\n"

    def test_model_file_prints_the_same_bytes_as_its_builtin_id(self, tmp_path, capsys):
        path = write_model(tmp_path, _shipped_laminar_doc(), name="copy.json")
        argv = ["--steps", "1e-3,1e-4", "--quad-order", "3"]
        assert run_command(["sweep", "--model", "laminar"] + argv) == 0
        by_id = capsys.readouterr()
        assert run_command(["sweep", "--model", path] + argv) == 0
        assert capsys.readouterr() == by_id


@pytest.mark.parametrize(
    "argv, h",
    [
        (["sweep", "--model", "pipeflow_turbulent", "--quad-order", "1", "--steps", "2,1e-3,1e-5"], "2"),
        (["pipeflow", "reproduce", "--regime", "turbulent", "--quad-order", "1"], "0.01"),
    ],
)
def test_no_spectral_gap_names_the_step_and_the_models_active_dimension(capsys, argv, h):
    # a one-point grid gives C rank one: no gap at the turbulent model's k = 3, which no option sets
    assert run_command(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"numerical failure: no spectral gap at step h = {h} between eigenvalues 3 and 4 (")
    assert captured.err.endswith("); k = 3 is the model's active dimension\n")


class TestPipeflowCommand:
    def test_eval_emits_state_summary(self, capsys):
        code = run_command(
            ["pipeflow", "eval", "--rho", "0.12", "--mu", "5e-6", "--diam", "0.5", "--eps", "0.01", "--dpdl", "1.0"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regime"] == "turbulent"
        v = float(payload["V"])
        assert float(payload["Re"]) == pytest.approx(0.12 * v * 0.5 / 5e-6, rel=1e-12)
        assert float(payload["f"]) == pytest.approx(1.0 * 0.5 / (0.5 * 0.12 * v * v), rel=1e-12)

    def test_eval_near_the_double_range_keeps_the_friction_factor(self, capsys):
        # V ~ 1.3e155 is finite, but V^2 overflows: f must still satisfy Colebrook
        argv = ["pipeflow", "eval", "--rho", "0.12", "--mu", "5e-6", "--diam", "0.5", "--eps", "0.01"]
        assert run_command(argv + ["--dpdl", "1e308"]) == 0
        payload = json.loads(capsys.readouterr().out)
        f, re_ = float(payload["f"]), float(payload["Re"])
        colebrook = -2.0 * np.log10(0.01 / (3.7 * 0.5) + 2.51 / (re_ * np.sqrt(f)))
        assert abs(1.0 / np.sqrt(f) - colebrook) <= 1e-12

    def test_eval_prints_one_evaluation_of_the_law(self, capsys, monkeypatch):
        calls = []
        terms = pipeflow._terms
        monkeypatch.setattr(pipeflow, "_terms", lambda x: calls.append(x) or terms(x))
        argv = ["pipeflow", "eval", "--rho", "0.12", "--mu", "5e-6", "--diam", "0.5", "--eps", "0.01", "--dpdl", "1.0"]
        assert run_command(argv) == 0
        assert len(calls) == 1
        numbers, regime = pipeflow.evaluate_state(0.12, 5e-6, 0.5, 0.01, 1.0)
        printed = {name: fmt_float(x) for name, x in numbers.items()}
        assert json.loads(capsys.readouterr().out) == {**printed, "regime": regime}

    def test_eval_invalid_state_exits_3(self, capsys):
        code = run_command(
            ["pipeflow", "eval", "--rho", "0.12", "--mu", "5e-6", "--diam", "0.5", "--eps", "0.6", "--dpdl", "1.0"]
        )
        assert code == 3
        capsys.readouterr()

    def test_reproduce_writes_both_artifact_families(self, tmp_path, capsys):
        out = tmp_path / "repro"
        code = run_command(
            [
                "pipeflow", "reproduce", "--regime", "laminar",
                "--quad-order", "3", "--steps", "1e-4,1e-5", "--out", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert (out / "eigenvalues.csv").exists()
        assert (out / "sweep.csv").exists()
        run_doc = json.loads((out / "run.json").read_text())
        assert run_doc["command"] == "pipeflow reproduce"

    def test_reproduce_passes_re_crit_to_the_sweep(self, tmp_path, capsys):
        def reproduce(re_crit, out):
            argv = ["pipeflow", "reproduce", "--regime", "turbulent", "--quad-order", "5",
                    "--steps", "1e-2,1e-4", "--out", str(out)]
            assert run_command(argv + (["--re-crit", re_crit] if re_crit else [])) == 0
            return json.loads(capsys.readouterr().out)

        default = reproduce(None, tmp_path / "default")
        lowered = reproduce("2000", tmp_path / "lowered")
        assert float(default["sweep"][0][1]) == pytest.approx(0.719, rel=1e-3)
        assert float(lowered["sweep"][0][1]) == pytest.approx(3.80e-5, rel=1e-3)
        assert lowered["eigenvalues"] != default["eigenvalues"]
        for name, value in (("default", "3000"), ("lowered", "2000")):
            run_doc = json.loads((tmp_path / name / "run.json").read_text())
            assert run_doc["config"]["re_crit"] == value


@pytest.mark.parametrize(
    "argv",
    [
        ["active", "--model", "laminar", "--quad-order", "2"],
        ["sweep", "--model", "laminar", "--steps", "1e-3,1e-4", "--quad-order", "2"],
        ["pipeflow", "reproduce", "--regime", "turbulent", "--quad-order", "2", "--steps", "1e-3"],
    ],
)
def test_run_json_records_the_chunk_size(tmp_path, capsys, argv):
    assert run_command(argv + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "run.json").read_text())["config"]["chunk_size"] == DEFAULT_CHUNK


def _leaf_commands(parser, words=()):
    """(command, subparser) for every subcommand that runs something."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(words), parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_commands(sub, words + (name,))


# one run of every subcommand that takes --out, and the JSON file it writes
ARTIFACT_RUNS = {
    "pi": (["pi", "pipeflow_laminar"], "pi.json"),
    "active": (["active", "--model", "laminar", "--quad-order", "2"], "active.json"),
    "inclusion": (["inclusion", "--candidate", "{tmp}/c.csv", "--enclosing", "{tmp}/e.csv"], "inclusion.json"),
    "sweep": (["sweep", "--model", "laminar", "--steps", "1e-3,1e-4", "--quad-order", "2"], "sweep.json"),
    "pipeflow reproduce": (
        ["pipeflow", "reproduce", "--regime", "turbulent", "--quad-order", "2", "--steps", "1e-3"],
        "reproduce.json",
    ),
}
ESTIMATING = {"active", "sweep", "pipeflow reproduce"}


def test_every_subcommand_with_out_has_an_artifact_run():
    with_out = {name for name, sub in _leaf_commands(build_parser()) if any(a.dest == "out" for a in sub._actions)}
    assert with_out == set(ARTIFACT_RUNS)


@pytest.mark.parametrize("command", sorted(ARTIFACT_RUNS))
def test_out_writes_stdout_and_every_option_but_out(tmp_path, capsys, command):
    argv, json_name = ARTIFACT_RUNS[command]
    np.savetxt(tmp_path / "c.csv", np.eye(3)[:, :1], delimiter=",")
    np.savetxt(tmp_path / "e.csv", np.eye(3)[:, :2], delimiter=",")
    out = tmp_path / "out"
    assert run_command([a.format(tmp=tmp_path) for a in argv] + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == (out / json_name).read_text()
    run_doc = json.loads((out / "run.json").read_text())
    assert run_doc["command"] == command
    sub = dict(_leaf_commands(build_parser()))[command]
    dests = {a.dest for a in sub._actions} - {"help", "out"}
    assert set(run_doc["config"]) == dests | ({"chunk_size"} if command in ESTIMATING else set())


def _mirrored_cells(command, doc):
    """{CSV file: its rows, cut to the cells that repeat a payload string} for one subcommand's payload."""
    if command == "pi":
        names = doc["quantities"]
        pi_labels = [f"pi_{j + 1}" for j in range(doc["n_pi_groups"])]
        a_labels = pi_labels if doc["qoi_dimensionless"] else ["w"] + pi_labels
        return {
            "D.csv": [[""] + names] + [[unit] + row for unit, row in zip(doc["unit_system"], doc["D"])],
            "w.csv": [["quantity", "exponent"]] + [[name, x] for name, x in zip(names, doc["w"])],
            "W.csv": [[""] + pi_labels] + [[name] + row for name, row in zip(names, doc["W"])],
            "A.csv": [[""] + a_labels] + [[name] + row for name, row in zip(names, doc["A"])],
        }
    cells = {}
    if "eigenvalues" in doc:
        cells["eigenvalues.csv"] = [["index", "eigenvalue"]] + [[str(i + 1), v] for i, v in enumerate(doc["eigenvalues"])]
    entries = doc.get("entries", doc.get("sweep"))
    if entries is not None:
        # h and r2, and the last running slope, which is the payload's slope
        rows = [["h", "r2"]] + [list(e) for e in entries]
        cells["sweep.csv"] = rows + [["" if doc["slope"] is None else doc["slope"]]]
    return cells


@pytest.mark.parametrize("command", sorted(ARTIFACT_RUNS))
def test_every_csv_cell_that_repeats_a_payload_value_is_the_same_string(tmp_path, capsys, command):
    argv, json_name = ARTIFACT_RUNS[command]
    np.savetxt(tmp_path / "c.csv", np.eye(3)[:, :1], delimiter=",")
    np.savetxt(tmp_path / "e.csv", np.eye(3)[:, :2], delimiter=",")
    out = tmp_path / "out"
    assert run_command([a.format(tmp=tmp_path) for a in argv] + ["--out", str(out)]) == 0
    capsys.readouterr()
    expected = _mirrored_cells(command, json.loads((out / json_name).read_text()))
    unmirrored = {"eigenvectors.csv"} if command == "active" else set()  # the payload holds no eigenvectors
    assert {p.name for p in out.glob("*.csv")} == set(expected) | unmirrored
    for name, rows in expected.items():
        cells = [line.split(",") for line in (out / name).read_text().splitlines()]
        if name == "sweep.csv":
            cells = [row[:2] for row in cells] + [[cells[-1][2]]]
        assert cells == rows, name


def test_pi_renders_each_rational_once(tmp_path, capsys, monkeypatch):
    import ridgelaw.cli

    calls = []
    original = ridgelaw.cli.fmt_rational

    def counting(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(ridgelaw.cli, "fmt_rational", counting)
    assert run_command(["pi", "pipeflow_laminar", "--out", str(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    cells = len(doc["w"]) + sum(len(row) for key in ("D", "W", "A") for row in doc[key])
    assert len(calls) == cells == 45  # D 3x5, w 5, W 5x2, A 5x3: the CSVs format none again


def test_readme_command_line_examples_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("ridgelaw ")]
    assert len(lines) == len(block.splitlines()) >= 8
    for line in lines:
        words = shlex.split(line)[1:]
        assert build_parser().parse_args(words).func is not None, line


# one command of each kind, the estimating ones at small orders, each writing under root
def _mixed_sequence(root):
    return [
        ["sweep", "--model", "laminar", "--steps", "1e-3,nan"],
        ["--help"],
        ["active", "--model", "laminar", "--quad-order", "2", "--out", f"{root}/active"],
        ["sweep", "--model", "laminar", "--steps", "1e-3,1e-4", "--quad-order", "2", "--out", f"{root}/sweep"],
        ["pi", "pipeflow_laminar", "--out", f"{root}/pi"],
        ["pipeflow", "eval", "--rho", "0.12", "--mu", "5e-6", "--diam", "0.5", "--eps", "0.01", "--dpdl", "1.0"],
        ["pipeflow", "reproduce", "--regime", "turbulent", "--quad-order", "2", "--steps", "1e-3,1e-4",
         "--out", f"{root}/reproduce"],
    ]


def _tree(root):
    """Every file under root, by relative path, as bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestSharedParser:
    """run_command builds its parser once per process; reusing it must leave no state between commands."""

    def test_mixed_sequence_repeats_and_matches_a_fresh_process(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps at the same width in every process
        rounds = []
        for name in ("first", "second"):
            outcomes = []
            for argv in _mixed_sequence(tmp_path / name):
                code = run_command(argv)
                captured = capsys.readouterr()
                outcomes.append((code, captured.out, captured.err))
            rounds.append((outcomes, _tree(tmp_path / name)))
        env = dict(os.environ, PYTHONPATH=str(Path(ridgelaw.__file__).parents[1]), COLUMNS="80")
        outcomes = []
        for argv in _mixed_sequence(tmp_path / "fresh"):
            proc = subprocess.run(
                [sys.executable, "-m", "ridgelaw", *argv], capture_output=True, text=True, env=env, timeout=120
            )
            outcomes.append((proc.returncode, proc.stdout, proc.stderr))
        rounds.append((outcomes, _tree(tmp_path / "fresh")))

        first_outcomes, first_tree = rounds[0]
        assert [code for code, _, _ in first_outcomes] == [2, 0, 0, 0, 0, 0, 0]
        assert len(first_tree) == 17  # active 4, sweep 3, pi 6, reproduce 4
        assert rounds[1] == rounds[0]
        assert rounds[2] == rounds[0]
        # pi runs after active and sweep: none of their options or defaults (chunk_size,
        # quad_order, fd_step, ...) reach its run.json
        assert set(json.loads(first_tree["pi/run.json"])["config"]) == {"model"}

    def test_commands_after_the_first_build_no_parser(self, capsys, monkeypatch):
        assert run_command(["pi", "pipeflow_laminar"]) == 0  # builds the parser unless an earlier test did
        calls = []
        original = argparse.ArgumentParser.add_argument

        def counting(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
        for argv in (
            ["pi", "pipeflow_laminar"],
            ["active", "--model", "laminar", "--quad-order", "2"],
            ["frobnicate"],
            ["pipeflow", "eval", "--help"],
        ):
            run_command(argv)
        assert calls == []
        assert build_parser() is build_parser()
        build_parser.cache_clear()
        assert run_command(["pi", "pipeflow_laminar"]) == 0
        assert calls  # the counter does see a construction
        capsys.readouterr()


class TestUsageErrors:
    def test_unknown_flag_exits_2(self, capsys):
        assert run_command(["active", "--model", "pipeflow_laminar", "--bogus"]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run_command(["frobnicate"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--model", "laminar", "--steps", "1e-3,nan"], "argument --steps: expected a finite number"),
            (["active", "--model", "laminar", "--quad-order", "x"], "argument --quad-order: invalid int value: 'x'"),
            (["pi"], "the following arguments are required: model"),
            (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
            ([], "the following arguments are required: command"),
            (["pipeflow"], "the following arguments are required: pipeflow_command"),
            (["pi", "pipeflow_laminar", "--bogus"], "unrecognized arguments: --bogus"),
            (["pipeflow", "reproduce", "--regime", "x"], "argument --regime: invalid choice: 'x'"),
            (["active", "--model", "laminar", "--quad-order", "2", "--fd-step", "0"], "finite-difference step"),
        ],
    )
    def test_every_usage_error_is_one_line(self, capsys, argv, message):
        # argparse's errors and the kernel's ValueError share one format
        assert run_command(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"usage error: {message}")

    @pytest.mark.parametrize(
        "argv, start",
        [
            (["--help"], "usage: ridgelaw [-h]"),
            (["pipeflow", "eval", "--help"], "usage: ridgelaw pipeflow eval [-h]"),
            (["--version"], f"ridgelaw {ridgelaw.__version__}\n"),
        ],
    )
    def test_help_and_version_exit_0(self, capsys, argv, start):
        assert run_command(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith(start)

    @pytest.mark.parametrize(
        "argv",
        [
            ["pi", "pipeflow_laminar"],
            ["active", "--model", "pipeflow_laminar", "--quad-order", "2"],
        ],
    )
    def test_out_under_a_regular_file_exits_2_naming_it(self, tmp_path, capsys, argv):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        assert run_command(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # the payload is printed only once its artifacts are written
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("usage error: ") and str(out) in captured.err

    def test_out_directory_is_made_once_per_run(self, tmp_path, capsys, monkeypatch):
        made = []
        mkdir = Path.mkdir
        monkeypatch.setattr(Path, "mkdir", lambda path, *args, **kw: made.append(path) or mkdir(path, *args, **kw))
        out = tmp_path / "out"
        assert run_command(["pi", "pipeflow_laminar", "--out", str(out)]) == 0
        assert made == [out]
        assert len(list(out.iterdir())) == 6  # pi.json, four CSVs and run.json
        capsys.readouterr()

    EVAL = ["pipeflow", "eval", "--rho", "0.12", "--mu", "5e-6", "--diam", "0.5", "--eps", "0.01", "--dpdl", "1.0"]
    REPRODUCE = ["pipeflow", "reproduce", "--regime", "laminar", "--quad-order", "2", "--steps", "1e-3,1e-4"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999", "abc"])
    @pytest.mark.parametrize(
        "argv, option",
        [
            (EVAL, "--dpdl"),
            (EVAL, "--re-crit"),
            (REPRODUCE, "--re-crit"),
            (REPRODUCE, "--fd-step"),
            (REPRODUCE, "--steps"),
            (["active", "--model", "pipeflow_laminar", "--quad-order", "2"], "--fd-step"),
            (["sweep", "--model", "laminar", "--quad-order", "2", "--steps", "1e-3"], "--steps"),
        ],
    )
    def test_non_finite_float_options_exit_2(self, capsys, argv, option, value):
        argv = list(argv)
        if option in argv:
            del argv[argv.index(option) : argv.index(option) + 2]
        assert run_command(argv + [f"{option}={value}"]) == 2  # "=" lets "-inf" through
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err

    @pytest.mark.parametrize("value", ["0", "-1e-5"])
    @pytest.mark.parametrize(
        "argv",
        [REPRODUCE, ["active", "--model", "pipeflow_laminar", "--quad-order", "2"]],
    )
    def test_nonpositive_fd_step_exits_2(self, capsys, argv, value):
        assert run_command(argv + [f"--fd-step={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: finite-difference step must be positive and finite, got {float(value)}\n"

    @pytest.mark.parametrize("steps, bad", [("1e-3,0", 0.0), ("1e-3,-1e-5", -1e-5)])
    @pytest.mark.parametrize(
        "argv",
        [REPRODUCE[:-2], ["sweep", "--model", "laminar", "--quad-order", "2"]],
    )
    def test_nonpositive_steps_exit_2(self, capsys, argv, steps, bad):
        assert run_command(argv + ["--steps", steps]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: finite-difference step must be positive and finite, got {bad}\n"

    @pytest.mark.parametrize("h", ["1e-17", "5e-324"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["active", "--model", "laminar", "--quad-order", "3", "--fd-step", "{h}"],
            ["pipeflow", "reproduce", "--regime", "laminar", "--quad-order", "3", "--fd-step", "{h}"],
            ["sweep", "--model", "turbulent", "--quad-order", "3", "--steps", "1e-3,{h}"],
        ],
    )
    def test_step_below_the_spacing_of_the_inputs_exits_2(self, capsys, argv, h):
        # x + h == x at the largest |log input|: every gradient would be zero
        assert run_command([word.format(h=h) for word in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"usage error: finite-difference step {h} is below the spacing of the inputs: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["active", "--model", "laminar"],
            ["sweep", "--model", "turbulent", "--steps", "1e-3"],
            ["pipeflow", "reproduce", "--regime", "laminar"],
        ],
    )
    def test_grid_too_large_to_index_exits_2(self, capsys, argv):
        assert run_command(argv + ["--quad-order", "6209"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"usage error: a grid of quadrature order 6209 in 5 dimensions has more than {MAX_GRID_POINTS} points "
            f"({6209 ** 5})\n"
        )

    @pytest.mark.parametrize(
        "command", [["active", "--model", "laminar"], ["pipeflow", "reproduce", "--regime", "turbulent"]]
    )
    def test_grid_past_the_point_budget_exits_2(self, capsys, command):
        # 64 ** 5 = 1073741824 fits an index but not the budget of 1e9 points
        assert run_command(command + ["--quad-order", "64"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "usage error: a grid of quadrature order 64 in 5 dimensions has more than 1000000000 points (1073741824)\n"
        )

    @pytest.mark.parametrize("steps", [",", " , "])
    @pytest.mark.parametrize(
        "argv",
        [REPRODUCE[:-2], ["sweep", "--model", "laminar", "--quad-order", "2"]],
    )
    def test_empty_steps_exit_2(self, capsys, argv, steps):
        assert run_command(argv + ["--steps", steps]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "at least one step size" in captured.err

    def test_fmt_float_round_trips(self):
        for x in (1.0 / 3.0, 2.222222e-11, 1e300, 5.0):
            assert float(fmt_float(x)) == x


def _shipped_laminar_doc():
    from importlib import resources

    return json.loads(
        resources.files("ridgelaw.models").joinpath("pipeflow_laminar.json").read_text()
    )


class TestEntryPoint:
    """python -m ridgelaw: main() and sys.exit in a real process."""

    def _python(self, *args):
        """python -X importtime args: the process, its stderr without the import-time
        lines, and the modules it imported (a submodule's packages among them)."""
        env = dict(os.environ, PYTHONPATH=str(Path(ridgelaw.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", *args], capture_output=True, text=True, env=env, timeout=120
        )
        lines = proc.stderr.splitlines(keepends=True)
        timing = [line for line in lines if line.startswith("import time:")]
        stderr = "".join(line for line in lines if line not in timing)
        return proc, stderr, {line.rsplit("|", 1)[1].strip() for line in timing}

    def _run(self, *argv):
        return self._python("-m", "ridgelaw", *argv)

    def test_pi_exits_0_with_json(self):
        proc, stderr, _ = self._run("pi", "pipeflow_laminar")
        assert proc.returncode == 0, stderr
        assert json.loads(proc.stdout)["n_pi_groups"] == 2
        assert stderr == ""

    @pytest.mark.parametrize(
        "argv, code, start",
        [
            (["active", "--model", "pipeflow_turbulent", "--quad-order", "2", "--fd-step", "1e300"], 4,
             "numerical failure: model returned non-finite value inf"),
            (["active", "--model", "HUGE", "--quad-order", "2"], 4, "numerical failure: model returned non-finite"),
            (["pipeflow", "eval", "--rho", "1", "--mu", "1", "--diam", "1e-200", "--eps", "1e-201", "--dpdl", "1e-300"],
             4, "numerical failure: pipe state is outside the double range: V = 0"),
            (["pipeflow", "eval", "--rho", "1e-300", "--mu", "1e-300", "--diam", "1e300", "--eps", "1e299",
              "--dpdl", "1e300"], 4, "numerical failure: pipe state is outside the double range: V = inf"),
            (["pipeflow", "eval", "--rho", "1", "--mu", "10", "--diam", "0.5", "--eps", "0.01", "--dpdl", "1",
              "--re-crit=-1e9"], 2, "usage error: argument --re-crit: expected a positive number, got '-1e9'"),
            (["pipeflow", "reproduce", "--regime", "laminar", "--quad-order", "2", "--re-crit", "0"], 2,
             "usage error: argument --re-crit: expected a positive number, got '0'"),
            (["active", "--model", "laminar", "--quad-order", "6209"], 2,
             "usage error: a grid of quadrature order 6209 in 5 dimensions has more than"),
            (["active", "--model", "laminar", "--quad-order", "3", "--fd-step", "1e-17"], 2,
             "usage error: finite-difference step 1e-17 is below the spacing of the inputs"),
        ],
    )
    def test_failures_print_one_stderr_line(self, tmp_path, argv, code, start):
        # a subprocess, so that numpy's floating-point warnings would reach stderr, not raise
        doc = _shipped_laminar_doc()
        for q in doc["quantities"]:
            q["range"] = [1e305, 1e306]
        huge = write_model(tmp_path, doc, name="huge.json")
        proc, stderr, _ = self._run(*[huge if word == "HUGE" else word for word in argv])
        assert proc.returncode == code, stderr
        assert proc.stdout == ""
        assert len(stderr.splitlines()) == 1 and stderr.startswith(start), stderr

    def test_nonpositive_step_exits_2_with_one_line(self):
        proc, stderr, _ = self._run("sweep", "--model", "laminar", "--quad-order", "2", "--steps", "1e-3,0")
        assert proc.returncode == 2
        assert "Traceback" not in stderr
        assert stderr.splitlines() == ["usage error: finite-difference step must be positive and finite, got 0.0"]

    @pytest.mark.parametrize(
        "args, code",
        [
            (("-c", "import ridgelaw.cli"), 0),
            (("-m", "ridgelaw", "pi", "pipeflow_laminar"), 0),
            (("-m", "ridgelaw", "--version"), 0),
            (("-m", "ridgelaw", "--help"), 0),
            (("-m", "ridgelaw", "sweep", "--model", "laminar", "--steps", "1e-3,nan"), 2),
            (("-m", "ridgelaw", "pi", "laminar"), 0),
        ],
    )
    def test_exact_path_never_imports_numpy(self, args, code):
        proc, stderr, imported = self._python(*args)
        assert proc.returncode == code, stderr
        assert "ridgelaw" in imported  # the probe sees the package's own imports
        assert "numpy" not in imported
        if code == 2:
            assert len(stderr.splitlines()) == 1 and stderr.startswith("usage error: argument --steps")

    def test_import_builds_no_parser(self):
        probe = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import ridgelaw.cli\n"
            "print(len(built), ridgelaw.cli.build_parser.cache_info().currsize)\n"
            "ridgelaw.cli.build_parser()\n"
            "print(len(built) > 0)\n"
        )
        proc, stderr, _ = self._python("-c", probe)
        assert proc.returncode == 0, stderr
        assert proc.stdout.split() == ["0", "0", "True"]

    @pytest.mark.parametrize(
        "candidate, enclosing, named",
        [("empty", "eye", "empty"), ("eye", "comments", "comments"), (os.devnull, os.devnull, os.devnull)],
    )
    def test_empty_matrix_csv_is_one_model_error_line(self, tmp_path, candidate, enclosing, named):
        # a real process: in-process pytest turns numpy's no-data warning into an exception and hides it
        files = {"empty": "", "comments": "# no data rows\n\n", "eye": "1,0\n0,1\n"}
        for stem, text in files.items():
            (tmp_path / f"{stem}.csv").write_text(text)

        def path(name):
            return str(tmp_path / f"{name}.csv") if name in files else name

        proc, stderr, _ = self._run("inclusion", "--candidate", path(candidate), "--enclosing", path(enclosing))
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert stderr == f"model error: matrix CSV {path(named)!r} has no data\n"

    def test_estimating_command_imports_numpy_and_succeeds(self):
        proc, stderr, imported = self._run("active", "--model", "laminar", "--quad-order", "2")
        assert proc.returncode == 0, stderr
        assert len(json.loads(proc.stdout)["eigenvalues"]) == 5
        assert "numpy" in imported and "numpy.linalg" in imported
        # the rules come from numpy.linalg; leggauss would load numpy.polynomial into every estimate
        assert not [name for name in imported if name.startswith("numpy.polynomial")]
