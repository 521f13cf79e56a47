"""scripts/bench_record.py: one record of every benchmark workload, untraced and traced."""

import json
import sys

import pytest

from scripts import bench_record
from tests.test_bench_pair import in_git_checkout

# a stand-in for bench/run.py: a warm-up line, then a detail line naming its arguments and a result line
FAKE_RUN = "import sys; print('warm-up'); print('detail', *sys.argv[1:]); print('result')"


def write_benchmark(root, script, run_seconds=30, workloads=("a", "b")):
    benchmark = {
        "command": [sys.executable, "-c", script],
        "run_seconds": run_seconds,
        "workloads": [{"name": name} for name in workloads],
    }
    (root / "BENCHMARK.json").write_text(json.dumps(benchmark))


def test_record_keeps_each_runs_last_two_lines_as_printed(tmp_path, monkeypatch, capsys):
    write_benchmark(tmp_path, FAKE_RUN)
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    assert bench_record.main(["--pr", "7"]) == 0
    record = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert record["checkout_path_length"] == len(str(tmp_path))
    assert (record["seed"], record["seconds"]) == (1, 30.0)
    assert [(run["workload"], run["trace"]) for run in record["runs"]] == [("a", 0), ("a", 1), ("b", 0), ("b", 1)]
    assert record["runs"][1] == {
        "workload": "a",
        "trace": 1,
        "returncode": 0,
        "detail": "detail --workload a --seed 1 --seconds 30.0 --trace 1",
        "result": "result",
    }


def test_runs_last_the_seconds_that_the_benchmark_declares(tmp_path, monkeypatch, capsys):
    write_benchmark(tmp_path, FAKE_RUN, run_seconds=7)
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    assert bench_record.main(["--pr", "7"]) == 0
    record = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert record["seconds"] == 7.0
    assert [run["detail"] for run in record["runs"]] == [
        f"detail --workload {w} --seed 1 --seconds 7.0 --trace {t}" for w in "ab" for t in (0, 1)
    ]


def test_a_failed_run_keeps_its_exit_code_and_stderr(tmp_path, monkeypatch, capsys):
    write_benchmark(tmp_path, "import sys; sys.exit('benchmark cannot run: no source tree')")
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    assert bench_record.main(["--pr", "7"]) == 1
    runs = json.loads((tmp_path / "BENCH_7.json").read_text())["runs"]
    assert len(runs) == 4
    assert runs[0] == {
        "workload": "a",
        "trace": 0,
        "returncode": 1,
        "stderr": "benchmark cannot run: no source tree\n",
    }


def test_without_against_the_record_holds_no_pairs(tmp_path, monkeypatch, capsys):
    write_benchmark(tmp_path, FAKE_RUN)
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    assert bench_record.main(["--pr", "7"]) == 0
    assert "pairs" not in json.loads((tmp_path / "BENCH_7.json").read_text())


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout of this repository")
def test_against_stores_each_workloads_pair_line(tmp_path, monkeypatch, capsys):
    write_benchmark(tmp_path, FAKE_RUN, workloads=("pi-wide",))
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "PAIRS", 2)
    assert bench_record.main(["--pr", "7", "--against", "HEAD"]) == 0
    (pairs,) = json.loads((tmp_path / "BENCH_7.json").read_text())["pairs"]
    assert (pairs["workload"], pairs["returncode"]) == ("pi-wide", 0)
    line = pairs["line"]
    assert (line["workload"], line["against"], line["pairs"]) == ("pi-wide", "HEAD", 2)
    assert line["failed_checks"] == {"this": 0, "against": 0} and line["median_ratio"] > 0


@pytest.mark.skipif(not in_git_checkout(), reason="needs a git checkout of this repository")
def test_a_pairing_that_cannot_run_keeps_its_exit_code_and_stderr(tmp_path, monkeypatch, capsys):
    write_benchmark(tmp_path, FAKE_RUN, workloads=("pi-wide",))
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    assert bench_record.main(["--pr", "7", "--against", "no-such-revision"]) == 1
    (pairs,) = json.loads((tmp_path / "BENCH_7.json").read_text())["pairs"]
    assert (pairs["workload"], pairs["returncode"]) == ("pi-wide", 2)
    assert pairs["stderr"].startswith("bench_pair: git archive no-such-revision src/ridgelaw failed")
