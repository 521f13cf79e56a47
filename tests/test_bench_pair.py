"""scripts/bench_pair.py: this tree against a git revision, in alternating pairs in one process."""

import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from scripts import bench_pair

ROOT = Path(__file__).resolve().parents[1]


def in_git_checkout() -> bool:
    if shutil.which("git") is None:
        return False
    proc = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT, capture_output=True, text=True)
    return proc.returncode == 0 and Path(proc.stdout.strip()).resolve() == ROOT


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout of this repository")
def test_pairs_against_head_report_finite_ratios_and_identical_artifacts():
    argv = ["--against", "HEAD", "--workload", "pi-wide", "--pairs", "2"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pair.py"), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    report = json.loads(line)
    assert set(report) == {
        "workload", "against", "pairs", "batch_size", "median_ratio", "ratio_q1", "ratio_q3", "iqr", "min_s",
        "minor_faults", "failed", "failed_checks", "differing_files", "seed", "nproc", "cpu", "python", "numpy",
        "commit", "blas_threads", "setup",
    }
    assert (report["workload"], report["pairs"], report["batch_size"]) == ("pi-wide", 2, 10)
    ratios = [report[k] for k in ("median_ratio", "ratio_q1", "ratio_q3", "iqr")]
    assert all(math.isfinite(r) for r in ratios) and report["median_ratio"] > 0
    assert all(math.isfinite(t) and t > 0 for t in report["min_s"].values())
    assert set(report["minor_faults"]) == {"this", "against"}
    assert all(type(n) is int and n >= 0 for n in report["minor_faults"].values())
    assert report["failed"] == {"this": 0, "against": 0}
    assert report["failed_checks"] == {"this": 0, "against": 0}
    assert report["differing_files"] == 0
    setup = report["setup"]
    assert set(setup) == {"median_ratio", "ratio_q1", "ratio_q3", "iqr", "min_s", "samples"}
    assert setup["samples"] == bench_pair.SETUP_PAIRS and set(setup["min_s"]) == {"this", "against"}
    values = [setup[k] for k in ("median_ratio", "ratio_q1", "ratio_q3")] + list(setup["min_s"].values())
    assert all(math.isfinite(x) and x > 0 for x in values) and math.isfinite(setup["iqr"])


def test_a_package_that_imports_itself_by_absolute_name_is_found(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "__init__.py").write_text("from .cli import main\n")
    (tmp_path / "sub" / "a.py").write_text('"""ridgelaw is named here"""\nimport ridgelaw_against\n')
    (tmp_path / "sub" / "b.py").write_text("x = 1\n    from ridgelaw.models import load_model\n")
    (tmp_path / "c.py").write_text("import ridgelaw.cli as cli\n")
    assert bench_pair.absolute_imports(tmp_path) == ["c.py", "sub/b.py"]


@pytest.fixture
def bench_modules(monkeypatch):
    """bench/run.py and bench/workloads.py, imported as bench_pair imports them, unloaded afterwards."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    yield importlib.import_module("run"), importlib.import_module("workloads")
    for name in ("run", "tracer", "workloads"):
        sys.modules.pop(name, None)


def test_a_start_up_probe_that_cannot_load_from_its_home_stops_the_pairing(tmp_path, bench_modules):
    run, _ = bench_modules
    # a home without the package: the import fails, or finds a copy from elsewhere
    with pytest.raises(bench_pair.PairError, match="start-up probe"):
        bench_pair.setup_seconds(run._SETUP_PROBE, tmp_path / "empty")
    package = bench_pair.copy_this(tmp_path / "home")
    assert bench_pair.setup_seconds(run._SETUP_PROBE, tmp_path / "home") > 0
    assert list(package.rglob("__pycache__")) == []  # copied without bytecode, and -B writes none


class WritingCli:
    """A stand-in cli module: run_command writes text to <--out>/a.txt and returns code."""

    def __init__(self, text, code=0):
        self.text, self.code = text, code

    def run_command(self, argv):
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir()
        (out / "a.txt").write_text(self.text)
        return self.code


def test_failed_commands_and_checks_are_counted_per_side(tmp_path, bench_modules):
    run, workloads = bench_modules

    class Workload:
        def commands(self, seed, index, workdir):
            return [workloads.Command(["cmd", "--out", str(workdir / "out")], workdir / "out")]

        def check(self, cmd):
            if (cmd.out / "a.txt").read_text() != "ok":
                raise workloads.CheckError("a.txt is not ok")
            return {}

    def report(this, against, workdir):
        return bench_pair.pair(Workload(), run.check_batch, run.run_batch, 1, 2, this, against, tmp_path / workdir)

    # the warm-up batch and both pairs are checked: three batches per side
    wrong = report(WritingCli("ok"), WritingCli("not ok"), "wrong")
    assert (wrong["failed"], wrong["failed_checks"]) == ({"this": 0, "against": 0}, {"this": 0, "against": 3})
    assert wrong["differing_files"] == 3
    crashed = report(WritingCli("ok", code=4), WritingCli("ok"), "crashed")
    assert (crashed["failed"], crashed["failed_checks"]) == ({"this": 3, "against": 0}, {"this": 3, "against": 0})
    assert crashed["differing_files"] == 0
