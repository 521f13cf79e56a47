"""scripts/bench_pair.py: this tree against a git revision, in alternating pairs of fresh worker processes."""

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
RATIO_KEYS = {"median_ratio", "ratio_q1", "ratio_q3", "iqr"}
PAIRING_KEYS = RATIO_KEYS | {
    "min_s", "minor_faults", "failed", "failed_checks", "first_failed_check", "differing_files"
}


def in_git_checkout() -> bool:
    if shutil.which("git") is None:
        return False
    proc = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT, capture_output=True, text=True)
    return proc.returncode == 0 and Path(proc.stdout.strip()).resolve() == ROOT


def assert_pairing(block):
    """One pairing's fields: finite ratios and batch times, integer faults, nothing failed or differing."""
    assert set(block) == PAIRING_KEYS
    assert all(math.isfinite(block[k]) for k in RATIO_KEYS) and block["median_ratio"] > 0
    assert set(block["min_s"]) == set(block["minor_faults"]) == {"this", "against"}
    assert all(math.isfinite(t) and t > 0 for t in block["min_s"].values())
    assert all(type(n) is int and n >= 0 for n in block["minor_faults"].values())
    # a failed check is named, so that an eigenvalue that leaves the benchmark's tolerance shows here
    assert block["failed"] == {"this": 0, "against": 0}, block["first_failed_check"]
    assert block["failed_checks"] == {"this": 0, "against": 0}, block["first_failed_check"]
    assert block["first_failed_check"] == {"this": None, "against": None}
    assert block["differing_files"] == 0


# reproduce-turbulent runs the order-15 command that the benchmark checks against REPRO_TOP3
@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout of this repository")
@pytest.mark.parametrize("workload, batch_size", [("pi-wide", 10), ("reproduce-turbulent", 1)])
def test_pairs_against_head_report_finite_ratios_and_identical_artifacts(workload, batch_size):
    argv = ["--against", "HEAD", "--workload", workload, "--pairs", "2"]
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", str(ROOT / "scripts" / "bench_pair.py"), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    timings = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    # exit 1 is a failed command or check: assert_pairing below names the first one of each side
    assert proc.returncode in (0, 1), [proc.stdout, *(line for line in proc.stderr.splitlines() if line not in timings)]
    # the workers import ridgelaw; the pairing process itself never does
    imported = {line.rsplit("|", 1)[-1].strip() for line in timings}
    assert "json" in imported and not {name for name in imported if name.split(".")[0] == "ridgelaw"}
    (line,) = proc.stdout.splitlines()
    report = json.loads(line)
    assert set(report) == PAIRING_KEYS | {
        "workload", "against", "pairs", "batch_size", "seed", "nproc", "cpu", "python", "numpy", "commit",
        "blas_threads", "setup", "aa",
    }
    assert (report["workload"], report["pairs"], report["batch_size"]) == (workload, 2, batch_size)
    assert_pairing({k: report[k] for k in PAIRING_KEYS})
    # the A/A pairing: this tree's batches against a copy of itself, in the same run
    assert_pairing(report["aa"])
    assert proc.returncode == 0
    setup = report["setup"]
    assert set(setup) == RATIO_KEYS | {"min_s", "samples", "aa"}
    assert setup["samples"] == report["pairs"] and set(setup["min_s"]) == {"this", "against"}
    values = [setup[k] for k in ("median_ratio", "ratio_q1", "ratio_q3")] + list(setup["min_s"].values())
    assert all(math.isfinite(x) and x > 0 for x in values) and math.isfinite(setup["iqr"])
    # the A/A start-up pair: this tree's start-up against a copy of itself, as a ratio with its quartiles
    aa = setup["aa"]
    assert set(aa) == RATIO_KEYS
    assert all(math.isfinite(aa[k]) and aa[k] > 0 for k in ("median_ratio", "ratio_q1", "ratio_q3"))
    assert math.isfinite(aa["iqr"])


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


def stand_in(tmp_path, name, cli):
    """A tree tmp_path/name holding a package ridgelaw whose cli.py has the source cli."""
    package = tmp_path / name / "ridgelaw"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(cli)
    return package.parent


def writing_cli(text, code=0):
    """A stand-in cli module: run_command writes text to <--out>/a.txt and returns code."""
    return (
        "from pathlib import Path\n\n\n"
        "def run_command(argv):\n"
        "    out = Path(argv[argv.index('--out') + 1])\n"
        "    out.mkdir()\n"
        f"    (out / 'a.txt').write_text({text!r})\n"
        f"    return {code}\n"
    )


def test_failed_commands_and_checks_are_counted_per_side(tmp_path, bench_modules):
    run, workloads = bench_modules

    class Workload:
        def commands(self, seed, index, workdir):
            return [workloads.Command(["cmd", "--out", str(workdir / "out")], workdir / "out")]

        def check(self, cmd):
            if (cmd.out / "a.txt").read_text() != "ok":
                raise workloads.CheckError("a.txt is not ok")
            return {}

    ok, not_ok = stand_in(tmp_path, "ok", writing_cli("ok")), stand_in(tmp_path, "not-ok", writing_cli("not ok"))
    crashing = stand_in(tmp_path, "crashing", writing_cli("ok", code=4))

    def report(this, against, workdir):
        homes = {"this": this, "against": against}
        return bench_pair.pair(Workload(), run.check_batch, 1, 2, homes, tmp_path / workdir)

    # each pair's worker runs a warm-up batch and a timed one, and both are checked: four batches per side
    wrong = report(ok, not_ok, "wrong")
    assert (wrong["failed"], wrong["failed_checks"]) == ({"this": 0, "against": 0}, {"this": 0, "against": 4})
    assert wrong["differing_files"] == 4
    # the first failure is the first pair's warm-up batch, named by its command
    warmup_out = tmp_path / "wrong" / "pair0001" / "warmup" / "out-not-ok"
    message = f"cmd --out {warmup_out}: CheckError: a.txt is not ok"
    assert wrong["first_failed_check"] == {"this": None, "against": message}
    crashed = report(crashing, ok, "crashed")
    assert (crashed["failed"], crashed["failed_checks"]) == ({"this": 4, "against": 0}, {"this": 4, "against": 0})
    crashed_out = tmp_path / "crashed" / "pair0001" / "warmup" / "out-crashing"
    assert crashed["first_failed_check"] == {"this": f"cmd --out {crashed_out}: exit 4: ", "against": None}
    assert crashed["differing_files"] == 0


@pytest.mark.parametrize(
    "cli, tail",
    [
        ("raise RuntimeError('no cli here')\n", "RuntimeError: no cli here"),
        (None, "ModuleNotFoundError: No module named 'ridgelaw'"),  # a tree without the package
    ],
)
def test_a_worker_that_cannot_start_ends_the_run_with_one_line(tmp_path, monkeypatch, capsys, bench_modules, cli, tail):
    homes = []

    def export_against(rev, home):
        homes.append(home)
        if cli is None:
            home.mkdir()
        else:
            stand_in(home.parent, home.name, cli)

    monkeypatch.setattr(bench_pair, "export_against", export_against)
    assert bench_pair.main(["--against", "HEAD", "--workload", "pi-wide", "--pairs", "2"]) == 2
    out, err = capsys.readouterr()
    (home,) = homes
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"bench_pair: the worker for {home} exited 1: ") and err.endswith(f"{tail}\n")


def test_a_worker_whose_cli_lies_outside_its_tree_is_refused(tmp_path):
    home = stand_in(tmp_path, "moved", writing_cli("ok") + "__file__ = '/elsewhere/ridgelaw/cli.py'\n")
    with pytest.raises(bench_pair.PairError, match=f"imported /elsewhere/ridgelaw/cli.py, not a module under {home}"):
        bench_pair.run_worker(home, [[], []])
