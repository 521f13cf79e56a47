"""Model-file loading, subcommands, artifacts, and exit codes."""

import json
import sys
import time

import numpy as np
import pytest

from ridgelaw import pipeflow
from ridgelaw.cli import fmt_float, load_model, run_command
from ridgelaw.errors import ModelError
from ridgelaw.quadrature import DEFAULT_CHUNK


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

    def test_ascending_steps_exit_3(self, capsys):
        assert run_command(["sweep", "--model", "pipeflow_laminar", "--steps", "1e-5,1e-3", "--quad-order", "3"]) == 3
        capsys.readouterr()


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


def test_active_exits_3_on_a_pipe_law_term_of_the_wrong_dimension(capsys, monkeypatch):
    law = list(pipeflow.PIPE_LAW)
    name, log_coef, exponents, power = law[1]
    law[1] = (name, log_coef, exponents[:3] + (2.0,) + exponents[4:], power)  # eps^2 / (3.7 D)
    monkeypatch.setattr(pipeflow, "PIPE_LAW", tuple(law))
    assert run_command(["active", "--model", "turbulent", "--quad-order", "2"]) == 3
    assert "pipe law term 't1' has dimension {'m': '1'}, expected dimensionless" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_flag_exits_2(self, capsys):
        assert run_command(["active", "--model", "pipeflow_laminar", "--bogus"]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run_command(["frobnicate"]) == 2
        capsys.readouterr()

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
        err = capsys.readouterr().err
        assert "usage error" in err and str(out) in err

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

    def test_fmt_float_round_trips(self):
        for x in (1.0 / 3.0, 2.222222e-11, 1e300, 5.0):
            assert float(fmt_float(x)) == x


def _shipped_laminar_doc():
    from importlib import resources

    return json.loads(
        resources.files("ridgelaw.models").joinpath("pipeflow_laminar.json").read_text()
    )
