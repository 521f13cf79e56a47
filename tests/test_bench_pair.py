"""scripts/bench_pair.py: this tree against a git revision, in alternating pairs in one process."""

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
        "workload", "against", "pairs", "batch_size", "median_ratio", "ratio_q1", "ratio_q3", "iqr",
        "min_s", "minor_faults", "failed", "differing_files", "nproc", "python", "numpy", "blas_threads",
    }
    assert (report["workload"], report["pairs"], report["batch_size"]) == ("pi-wide", 2, 10)
    ratios = [report[k] for k in ("median_ratio", "ratio_q1", "ratio_q3", "iqr")]
    assert all(math.isfinite(r) for r in ratios) and report["median_ratio"] > 0
    assert all(math.isfinite(t) and t > 0 for t in report["min_s"].values())
    assert set(report["minor_faults"]) == {"this", "against"}
    assert all(type(n) is int and n >= 0 for n in report["minor_faults"].values())
    assert report["failed"] == {"this": 0, "against": 0}
    assert report["differing_files"] == 0


def test_a_package_that_imports_itself_by_absolute_name_is_found(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "__init__.py").write_text("from .cli import main\n")
    (tmp_path / "sub" / "a.py").write_text('"""ridgelaw is named here"""\nimport ridgelaw_against\n')
    (tmp_path / "sub" / "b.py").write_text("x = 1\n    from ridgelaw.models import load_model\n")
    (tmp_path / "c.py").write_text("import ridgelaw.cli as cli\n")
    assert bench_pair.absolute_imports(tmp_path) == ["c.py", "sub/b.py"]
