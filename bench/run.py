"""ridgelaw benchmark: one workload, one fresh process, closed loop, one client.

    python3 bench/run.py --workload reproduce-turbulent --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src`` directory, never from an installed copy. The process

1. times ``import ridgelaw.cli`` in fresh interpreters (``setup_s``, the
   median of several, taken before the batches and between them);
2. generates batches of inputs from the seed, drives
   ``ridgelaw.cli.run_command(argv)`` over each batch one command at a time,
   and checks every command's artifacts; generation and checks are not
   timed. With ``--trace 0`` every command is paired with the same command
   on ``ridgelaw_ref``, a frozen copy of ridgelaw kept in this directory,
   run right before or after it; the timings are reported as ratios to the
   reference, which cancels the host's drifting speed;
3. repeats batches until ``--seconds`` have passed and prints a detail line
   (stamps, results digest, counts), then, as the last line, one JSON object
   with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
every batch runs twice, untraced and traced in alternating order, and the
metrics are the per-layer ones: counts from the first traced batch (they
repeat exactly for a seed), times as medians over the traced batches.
Scratch files live in ``.bench_work/`` under the checkout and are removed
on exit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS, Tracer, layer_metrics, span_stats
from workloads import INCLUSION_MISS_R2, WORKLOADS, CheckError

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# set-up is timed this many times before the batches and once after each
# batch, so that its median spans the whole run
SETUP_SAMPLES_AT_START = 3
SETUP_TIMEOUT_S = 60

# name -> unit; every one is reported on every workload
END_TO_END = {
    "setup_s": "s",
    "wall_vs_ref": "ratio",
    "cmd_p50_vs_ref": "ratio",
    "peak_rss_mb": "MB",
}

_SETUP_PROBE = (
    "import time, ridgelaw.cli, sys; "
    "sys.stdout.write(repr(time.monotonic()) + '\\n' + ridgelaw.cli.__file__)"
)


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, broken import)."""


def setup_once() -> float:
    """Seconds from spawning a fresh interpreter to the end of ``import ridgelaw.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.monotonic()  # CLOCK_MONOTONIC is shared with the child
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"import ridgelaw.cli took over {SETUP_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"import ridgelaw.cli failed:\n{proc.stderr.strip()}")
    stamp, module_file = proc.stdout.split("\n", 1)
    if not Path(module_file).resolve().is_relative_to(SRC):
        raise BenchError(f"ridgelaw was imported from {module_file}, not from {SRC}")
    return float(stamp) - start


def measure_setup(samples: int = SETUP_SAMPLES_AT_START) -> list:
    """Set-up times of fresh interpreters, after one unmeasured warm-up.

    The warm-up byte-compiles the sources, which happens once per checkout.
    """
    setup_once()
    return [setup_once() for _ in range(samples)]


def import_cli():
    sys.path.insert(0, str(SRC))
    import ridgelaw.cli

    if not Path(ridgelaw.cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"ridgelaw was imported from {ridgelaw.cli.__file__}, not from {SRC}")
    return ridgelaw.cli


def import_reference():
    """The frozen reference copy of ridgelaw that ships with the benchmark (see README)."""
    import ridgelaw_ref.cli

    if not Path(ridgelaw_ref.cli.__file__).resolve().is_relative_to(BENCH):
        raise BenchError(f"ridgelaw_ref was imported from {ridgelaw_ref.cli.__file__}, not from {BENCH}")
    return ridgelaw_ref.cli


def reference_out(cmd):
    return cmd.out.with_name(cmd.out.name + "-ref")


def _run_one(cli, argv, sink):
    err = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.run_command(argv)
        elapsed = time.perf_counter() - start
    return elapsed, code, err.getvalue()


def _run_reference(reference, cmd, sink):
    argv = [str(reference_out(cmd)) if a == str(cmd.out) else a for a in cmd.argv]
    elapsed, code, err = _run_one(reference, argv, sink)
    if code != 0:
        raise BenchError(f"the reference copy failed on {' '.join(argv)}: exit {code}: {err.strip()[:300]}")
    return elapsed


def run_batch(cli, commands, sink, reference=None, offset=0):
    """Run the commands in order, one at a time.

    Returns (per-command seconds, outcomes, reference per-command seconds).
    With a reference, every command also runs on the reference copy right
    before or right after it, alternating with ``offset + position``, so
    that both sides of a pair see the same machine speed.
    """
    latencies, outcomes, ref_latencies = [], [], []
    for i, cmd in enumerate(commands):
        ref_first = reference is not None and (offset + i) % 2 == 0
        if ref_first:
            ref_latencies.append(_run_reference(reference, cmd, sink))
        elapsed, code, err = _run_one(cli, cmd.argv, sink)
        latencies.append(elapsed)
        outcomes.append((code, err))
        if reference is not None and not ref_first:
            ref_latencies.append(_run_reference(reference, cmd, sink))
    return latencies, outcomes, ref_latencies


def check_batch(workload, commands, outcomes):
    """Check every command; returns (failure messages, per-command facts, bytes written)."""
    failures, facts, written = [], [], 0
    for cmd, (code, err) in zip(commands, outcomes):
        if cmd.out.is_dir():
            written += sum(p.stat().st_size for p in cmd.out.iterdir())
        if code != 0:
            failures.append(f"{' '.join(cmd.argv)}: exit {code}: {err.strip()[:300]}")
            facts.append(None)
            continue
        try:
            facts.append(workload.check(cmd))
        except (CheckError, AttributeError, LookupError, TypeError, ValueError) as exc:
            failures.append(f"{' '.join(cmd.argv)}: {type(exc).__name__}: {exc}")
            facts.append(None)
    return failures, facts, written


def clear_outputs(commands):
    for cmd in commands:
        shutil.rmtree(cmd.out, ignore_errors=True)
        shutil.rmtree(reference_out(cmd), ignore_errors=True)


def inclusion_misses(facts):
    """(missed boxes, checked boxes) among facts that carry an inclusion residual."""
    r2 = [f["inclusion_r2"] for f in facts if f and "inclusion_r2" in f]
    return sum(v > INCLUSION_MISS_R2 for v in r2), len(r2)


def digest(facts):
    """Results of the first batch that a later change must leave unchanged."""
    first = [f for f in facts if f]
    out = {}
    if first and "top3" in first[0]:
        out["top3_eigenvalues"] = [f["top3"] for f in first]
        out["sweep_r2"] = [f["sweep_r2"] for f in first]
    if first and "lambda1" in first[0]:
        out["lambda1"] = [f["lambda1"] for f in first]
        out["inclusion_r2"] = [f["inclusion_r2"] for f in first]
    if first and "W" in first[0]:
        # sha256 of the exact w and W strings; the matrices themselves are large
        out["pi_groups_sha256"] = [
            hashlib.sha256(json.dumps([f["w"], f["W"]]).encode()).hexdigest()[:16] for f in first
        ]
    return out


def git_commit():
    """The checked-out commit, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def stamp(seed):
    import numpy

    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def measure(cli, workload, seed, seconds, trace, workdir, setup, reference=None):
    """Run batches until the time is up; returns the report's pieces.

    Untraced passes pair every command with the reference copy when one is
    given; traced passes never do. One set-up time is appended to ``setup``
    after each batch.
    """
    sink = open(os.devnull, "w")
    tracer = Tracer() if trace else None
    walls, traced_walls, latencies, failures, per_layer = [], [], [], [], []
    ref_walls, ref_latencies = [], []
    first_facts, attempted, grid_points, inclusion, spans = None, 0, 0, [0, 0], None
    deadline = time.monotonic() + seconds
    index = 0
    try:
        while index == 0 or time.monotonic() < deadline:
            batch_dir = workdir / f"batch{index:04d}"
            batch_dir.mkdir(parents=True)
            commands = workload.commands(seed, index, batch_dir)
            passes = ((False, True) if index % 2 == 0 else (True, False)) if trace else (False,)
            for traced in passes:
                if traced:
                    tracer.reset()
                    tracer.install()
                try:
                    lat, outcomes, ref_lat = run_batch(
                        cli, commands, sink, None if traced else reference, offset=index
                    )
                finally:
                    if traced:
                        tracer.uninstall()
                wall = sum(lat)
                bad, batch_facts, written = check_batch(workload, commands, outcomes)
                clear_outputs(commands)
                attempted += len(commands)
                failures.extend(bad)
                missed, boxes = inclusion_misses(batch_facts)
                if traced:
                    traced_walls.append(wall)
                    if spans is None:
                        spans = {
                            name: {"calls": st.calls, "total_s": st.total_s, "self_s": st.self_s}
                            for name, st in span_stats(tracer.spans).items()
                        }
                    per_layer.append(layer_metrics(tracer, {
                        "commands": len(commands),
                        "bytes_written": written,
                        "inclusion_miss_ratio": missed / boxes if boxes else 0.0,
                        "overhead_s": None,
                    }))
                else:
                    walls.append(wall)
                    latencies.extend(lat)
                    if ref_lat:
                        ref_walls.append(sum(ref_lat))
                        ref_latencies.extend(ref_lat)
                    inclusion = [inclusion[0] + missed, inclusion[1] + boxes]
                    grid_points += sum(workload.grid_points(c) for c in commands)
                if first_facts is None:
                    first_facts = batch_facts
            shutil.rmtree(batch_dir, ignore_errors=True)
            setup.append(setup_once())
            index += 1
    finally:
        sink.close()
    return {
        "walls": walls, "traced_walls": traced_walls, "latencies": latencies, "failures": failures,
        "ref_walls": ref_walls, "ref_latencies": ref_latencies,
        "inclusion": inclusion, "first_facts": first_facts, "per_layer": per_layer, "attempted": attempted,
        "grid_points": grid_points, "batches": index, "spans": spans, "missing": tracer.missing if tracer else [],
    }


def per_layer_summary(result):
    """Counts from the first traced batch; times as medians over traced batches."""
    units = {name: unit for name, unit, *_ in LAYER_METRICS}
    batches = result["per_layer"]
    summary = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            continue
        if unit == "s":
            values = [b[name] for b in batches]
            summary[name] = None if None in values else statistics.median(values)
        else:
            summary[name] = batches[0][name]
    summary["trace.overhead_s"] = statistics.median(result["traced_walls"]) - statistics.median(result["walls"])
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        setup = measure_setup()
        cli = import_cli()
        reference = None if args.trace else import_reference()
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = measure(cli, workload, args.seed, args.seconds, args.trace, workdir, setup, reference)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed = result["attempted"], len(result["failures"])
    walls, latencies = result["walls"], result["latencies"]
    ref_walls, ref_latencies = result["ref_walls"], result["ref_latencies"]
    missed, boxes = result["inclusion"]
    detail = {
        "workload": args.workload,
        "stamp": stamp(args.seed),
        "batches": result["batches"],
        "commands_untraced": len(latencies),
        "wall_s": statistics.median(walls),
        "cmd_p50_ms": 1e3 * statistics.median(latencies),
        "batch_wall_s": walls,
        "ref_wall_s": statistics.median(ref_walls) if ref_walls else None,
        "batch_ref_wall_s": ref_walls,
        "fail_ratio": failed / attempted,
        "failures": result["failures"][:5],
        "setup_samples_s": setup,
        # a p90 needs at least ten samples beyond it
        "cmd_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8] if len(latencies) >= 100 else None,
        "grid_points_per_s": result["grid_points"] / sum(result["walls"]) if result["grid_points"] else None,
        "inclusion_miss_ratio": missed / boxes if boxes else None,
        "inclusion_misses": [missed, boxes],
        "digest": digest(result["first_facts"] or []),
        "missing_patch_points": result["missing"],
    }
    if args.trace:
        metrics = per_layer_summary(result)
        units = {name: unit for name, unit, *_ in LAYER_METRICS}
        detail["per_layer"] = metrics
        detail["spans_first_traced_batch"] = result["spans"]
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_vs_ref": statistics.median(w / r for w, r in zip(walls, ref_walls)),
            "cmd_p50_vs_ref": statistics.median(t / r for t, r in zip(latencies, ref_latencies)),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    print(json.dumps(detail, sort_keys=True))
    # the result line carries numbers only: a metric whose patch point is
    # gone reads null in the detail line above and 0 here, with a warning
    result_line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": 0 if metrics[name] is None else metrics[name], "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(result_line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
