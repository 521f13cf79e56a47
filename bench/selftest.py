"""Self-tests of the benchmark's generators, output checks and tracer.

    python3 -m pytest -q bench/selftest.py

Kept out of the package's test suite (pytest collects only test_*.py there):
these tests guard the benchmark, not ridgelaw.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import LAYER_METRICS, PATCH_POINTS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, ActiveBoxes, CheckError, PiWide, ReproduceTurbulent  # noqa: E402

import ridgelaw.cli as cli  # noqa: E402

SMALL = {"reproduce-turbulent": 1, "active-boxes": 3, "pi-wide": 2}


def small(name):
    return WORKLOADS[name](SMALL[name])


def snapshot(commands, workdir: Path):
    argv = [[a.replace(str(workdir), "<dir>") for a in c.argv] for c in commands]
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir()) if p.is_file()}
    return argv, files


def run_commands(commands):
    with open(os.devnull, "w") as sink:
        _, outcomes, _ = run.run_batch(cli, commands, sink)
    assert [code for code, _ in outcomes] == [0] * len(commands), outcomes
    return outcomes


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_repeats_for_a_seed_and_varies_across_seeds(name, tmp_path):
    shots = []
    for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
        d = tmp_path / tag
        d.mkdir()
        shots.append(snapshot(small(name).commands(seed, 0, d), d))
    assert shots[0] == shots[1]
    assert shots[0] != shots[2]


def test_pi_check_rejects_a_flipped_W_entry(tmp_path):
    wl = PiWide(1)
    (cmd,) = wl.commands(3, 0, tmp_path)
    run_commands([cmd])
    facts = wl.check(cmd)
    assert facts["rank"] == 7 and facts["n"] == 23
    doc = json.loads((cmd.out / "pi.json").read_text())
    doc["W"][0][0] = str(Fraction(doc["W"][0][0]) + 1)
    (cmd.out / "pi.json").write_text(json.dumps(doc))
    with pytest.raises(CheckError, match=r"D \. W"):
        wl.check(cmd)


def test_reproduce_check_rejects_a_perturbed_eigenvalue(tmp_path):
    wl = ReproduceTurbulent(1)
    (cmd,) = wl.commands(3, 0, tmp_path)
    run_commands([cmd])
    wl.check(cmd)
    path = cmd.out / "eigenvalues.csv"
    lines = path.read_text().splitlines()
    index, value = lines[2].split(",")
    lines[2] = f"{index},{float(value) * (1 + 1e-5)!r}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckError, match="rtol"):
        wl.check(cmd)


def test_active_check_rejects_a_perturbed_eigenvector(tmp_path):
    wl = ActiveBoxes(1)
    (cmd,) = wl.commands(3, 0, tmp_path)
    run_commands([cmd])
    wl.check(cmd)
    path = cmd.out / "eigenvectors.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckError, match="orthonormal"):
        wl.check(cmd)


def test_reference_pairs_every_command_and_writes_aside(tmp_path):
    reference = run.import_reference()
    assert reference is not cli and reference.__name__ == "ridgelaw_ref.cli"
    wl = small("active-boxes")
    commands = wl.commands(2, 0, tmp_path)
    with open(os.devnull, "w") as sink:
        latencies, outcomes, ref_latencies = run.run_batch(cli, commands, sink, reference, offset=1)
    assert [code for code, _ in outcomes] == [0] * len(commands)
    assert len(latencies) == len(ref_latencies) == len(commands)
    for cmd in commands:
        wl.check(cmd)
        wl.check(dataclasses.replace(cmd, out=run.reference_out(cmd)))
    run.clear_outputs(commands)
    assert not any(c.out.exists() or run.reference_out(c).exists() for c in commands)


def _bindings(points):
    found = {}
    for p in points:
        owner_path, _, name = p.attr.rpartition(".")
        owner = sys.modules[p.module]
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part)
        found[p.key] = vars(owner).get(name)
    return found


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracer_covers_its_patch_points_and_restores_them(name, tmp_path):
    before = _bindings(PATCH_POINTS)
    wl = small(name)
    commands = wl.commands(1, 0, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        run_commands(commands)
    finally:
        tracer.uninstall()
    after = _bindings(PATCH_POINTS)
    assert all(after[k] is before[k] for k in before)
    assert tracer.missing == []
    for p in PATCH_POINTS:
        assert (tracer.hits[p.key] > 0) == (name in p.workloads), p.key
    values = layer_metrics(tracer, {"commands": len(commands), "bytes_written": 1,
                                    "inclusion_miss_ratio": 0.0, "overhead_s": 0.0})
    assert None not in values.values()


def test_a_missing_patch_point_reads_null_and_the_run_goes_on(tmp_path, capsys):
    points = [
        dataclasses.replace(p, attr="LogSpaceVelocity.renamed") if p.span == "pipeflow.eval" else p
        for p in PATCH_POINTS
    ]
    before = _bindings(PATCH_POINTS)
    wl = ActiveBoxes(1)
    commands = wl.commands(1, 0, tmp_path)
    tracer = Tracer(points)
    tracer.install()
    try:
        run_commands(commands)
    finally:
        tracer.uninstall()
    assert all(_bindings(PATCH_POINTS)[k] is before[k] for k in before)
    assert "LogSpaceVelocity.renamed not found" in capsys.readouterr().err
    values = layer_metrics(tracer, {"commands": 1, "bytes_written": 1,
                                    "inclusion_miss_ratio": 0.0, "overhead_s": 0.0})
    assert values["pipeflow.eval_calls"] is None and values["pipeflow.evals_per_grid_point"] is None
    assert values["quadrature.chunk_calls"] == 1


def test_traced_counts_repeat_exactly(tmp_path):
    counts = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        commands = PiWide(2).commands(5, 0, d)
        tracer = Tracer()
        tracer.install()
        try:
            run_commands(commands)
        finally:
            tracer.uninstall()
        values = layer_metrics(tracer, {"commands": 2, "bytes_written": 1,
                                        "inclusion_miss_ratio": 0.0, "overhead_s": 0.0})
        counts.append({n: values[n] for n, unit, *_ in LAYER_METRICS if unit != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["pigroups.pi_decomposition_calls"] == 2


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in LAYER_METRICS
    ]


def test_fails_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pi-wide", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
