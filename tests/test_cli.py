"""Model-file loading, subcommands, artifacts, and exit codes."""

import json

import numpy as np
import pytest

from ridgelaw.cli import fmt_float, load_model, run_command
from ridgelaw.errors import ModelError
from ridgelaw.pipeflow import LAMINAR_TABLE


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
        for q, (lo, hi) in zip(spec.quantities, LAMINAR_TABLE.bounds):
            assert (q.range_lo, q.range_hi) == (lo, hi)
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

    def test_pi_on_schema_violation_exits_3(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["quantities"][0]["range"] = [2.0, 1.0]
        path = write_model(tmp_path, doc)
        assert run_command(["pi", path]) == 3
        assert "model error" in capsys.readouterr().err


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

    def test_model_without_builtin_exits_3(self, tmp_path, capsys):
        doc = _shipped_laminar_doc()
        del doc["builtin"]
        path = write_model(tmp_path, doc)
        assert run_command(["active", "--model", path, "--quad-order", "2"]) == 3
        assert "built-in" in capsys.readouterr().err

    def test_threads_env_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RIDGELAW_THREADS", "2")
        out = tmp_path / "env"
        assert run_command(
            ["active", "--model", "pipeflow_laminar", "--quad-order", "2", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        assert json.loads((out / "run.json").read_text())["config"]["threads"] == 2


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


class TestUsageErrors:
    def test_unknown_flag_exits_2(self, capsys):
        assert run_command(["active", "--model", "pipeflow_laminar", "--bogus"]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run_command(["frobnicate"]) == 2
        capsys.readouterr()

    def test_fmt_float_round_trips(self):
        for x in (1.0 / 3.0, 2.222222e-11, 1e300, 5.0):
            assert float(fmt_float(x)) == x


def _shipped_laminar_doc():
    from importlib import resources

    return json.loads(
        resources.files("ridgelaw.models").joinpath("pipeflow_laminar.json").read_text()
    )
