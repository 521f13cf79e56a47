"""Time this checkout's ridgelaw against another revision's, in alternating pairs of fresh worker processes.

    python3 scripts/bench_pair.py --against REV --workload pi-wide --pairs 40

Each side's tree is a temporary directory holding a plain ``ridgelaw``:
REV's ``src/ridgelaw`` exported with ``git archive``, or this checkout's,
copied without ``__pycache__``. Every pair spawns one fresh interpreter per
side, the side that runs first alternating every pair, so both sides see the
same machine speed and share no heap. A worker runs with ``-B`` and only its
own tree on ``PYTHONPATH``, imports ``ridgelaw.cli``, and runs one unmeasured
warm-up batch and then the pair's timed batch of the workload
(``bench/workloads.py``) through the benchmark's own ``run_batch``
(``bench/run.py``, with no reference copy). It reports the timed batch's
time, its minor page faults (``resource.getrusage``; they show where a change
places the pass's large arrays), the exit codes and where its
``ridgelaw.cli`` came from, which must be under its own tree. A pair's ratio
is this checkout's batch time over REV's. This process never imports
ridgelaw: it generates the commands, checks every batch's artifacts untimed
with the benchmark's ``check_batch``, and compares the two sides' artifact
files byte for byte. The same pairing of this checkout against a second copy
of itself is the A/A line (``aa``), the tool's own spread in the same run.

Then it pairs the start-up (``setup``, with its A/A pair as ``setup.aa``):
fresh ``-B`` interpreters run the benchmark's set-up probe (``_SETUP_PROBE``)
from each side's tree, alternating, one unmeasured spawn each and then
``--pairs`` measured pairs. Like ``setup_s`` in a tree without cached
bytecode, each compiles its package from source.

Prints one JSON line: the median ratio with its quartiles, each side's fastest
batch and median minor faults per batch, failed commands and checks per side
with the first failed check's message (null if none), differing files, the
same for ``aa``, ``setup``, the benchmark's ``stamp`` and
the BLAS-thread settings. Exit 0 when no command and no check failed, 1
otherwise, 2 when the pairing cannot run. Differing files do not change the
exit status: a change may move last digits by design, and the checks hold each
side to the benchmark's tolerances.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1  # the batches' inputs, as in scripts/bench_record.py
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 600
# A worker: argv[1] is bench/, stdin holds the warm-up batch's and the timed batch's argument vectors.
_WORKER = """\
import json, os, resource, sys
import ridgelaw.cli
sys.path.append(sys.argv[1])
from run import run_batch
from workloads import Command
warmup, timed = ([Command(argv, None) for argv in batch] for batch in json.load(sys.stdin))
with open(os.devnull, "w") as sink:
    _, warm_outcomes, _ = run_batch(ridgelaw.cli, warmup, sink)
    start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    latencies, outcomes, _ = run_batch(ridgelaw.cli, timed, sink)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start
print(json.dumps({"file": ridgelaw.cli.__file__, "seconds": sum(latencies), "minor_faults": faults,
                  "outcomes": [warm_outcomes, outcomes]}))
"""


class PairError(Exception):
    """The pairing cannot run (unknown revision, a worker that fails or loads another tree)."""


def export_against(rev: str, home: Path) -> None:
    """src/ridgelaw at rev, extracted as home/ridgelaw."""
    proc = subprocess.run(["git", "archive", "--format=tar", f"{rev}:src", "ridgelaw"], cwd=ROOT, capture_output=True)
    if proc.returncode != 0:
        raise PairError(f"git archive {rev} src/ridgelaw failed: {proc.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(home, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def copy_this(home: Path) -> Path:
    """This checkout's src/ridgelaw, copied as home/ridgelaw without its cached bytecode."""
    return shutil.copytree(ROOT / "src" / "ridgelaw", home / "ridgelaw", ignore=shutil.ignore_patterns("__pycache__"))


def differing_files(this_out: Path, against_out: Path) -> int:
    """Files present on one side only, or with different bytes."""
    names = {p.name for out in (this_out, against_out) if out.is_dir() for p in out.iterdir()}
    return sum(
        not ((this_out / n).is_file() and (against_out / n).is_file())
        or (this_out / n).read_bytes() != (against_out / n).read_bytes()
        for n in names
    )


def side_command(cmd, home: Path):
    """cmd with its artifact directory moved to a sibling named after the side's tree."""
    out = cmd.out.with_name(f"{cmd.out.name}-{home.name}")
    return dataclasses.replace(cmd, argv=[str(out) if a == str(cmd.out) else a for a in cmd.argv], out=out)


def run_worker(home: Path, batches) -> dict:
    """A fresh interpreter that loads ridgelaw.cli from home and runs the batches; its report."""
    try:
        proc = subprocess.run(
            [sys.executable, "-B", "-c", _WORKER, str(ROOT / "bench")],
            input=json.dumps([[cmd.argv for cmd in batch] for batch in batches]),
            env=dict(os.environ, PYTHONPATH=str(home)), cwd=home,
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise PairError(f"the worker for {home} took over {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no stderr"])[-1]
        raise PairError(f"the worker for {home} exited {proc.returncode}: {tail}")
    report = json.loads(proc.stdout.splitlines()[-1])
    if not Path(report["file"]).resolve().is_relative_to(home.resolve()):
        raise PairError(f"the worker for {home} imported {report['file']}, not a module under {home}")
    return report


def pair(workload, check_batch, seed: int, pairs: int, homes: dict, workdir: Path) -> dict:
    """Run the pairs, each side in its own workers; returns the report's measured fields."""
    differing = 0
    failed, failures = {"this": 0, "against": 0}, {"this": [], "against": []}
    times, faults = {"this": [], "against": []}, {"this": [], "against": []}
    for index in range(1, pairs + 1):
        batch_dir = workdir / f"pair{index:04d}"
        # the warm-up batch is the first batch's inputs, the timed one the pair's own
        shared = []
        for name, batch_index in (("warmup", 0), ("timed", index)):
            (batch_dir / name).mkdir(parents=True)
            shared.append(workload.commands(seed, batch_index, batch_dir / name))
        batches = {side: [[side_command(cmd, home) for cmd in batch] for batch in shared] for side, home in homes.items()}
        for side in ("this", "against") if index % 2 else ("against", "this"):
            report = run_worker(homes[side], batches[side])
            times[side].append(report["seconds"])
            faults[side].append(report["minor_faults"])
            for commands, outcomes in zip(batches[side], report["outcomes"]):
                failed[side] += sum(code != 0 for code, _ in outcomes)
                # a failed command is also a failed check, as bench/run.py counts it
                failures[side] += check_batch(workload, commands, outcomes)[0]
        for this_batch, against_batch in zip(batches["this"], batches["against"]):
            differing += sum(differing_files(a.out, b.out) for a, b in zip(this_batch, against_batch))
        shutil.rmtree(batch_dir)
    return {
        **ratio_stats([t / a for t, a in zip(times["this"], times["against"])]),
        "min_s": {side: min(values) for side, values in times.items()},
        "minor_faults": {side: statistics.median_low(values) for side, values in faults.items()},
        "failed": failed,
        "failed_checks": {side: len(messages) for side, messages in failures.items()},
        "first_failed_check": {side: next(iter(messages), None) for side, messages in failures.items()},
        "differing_files": differing,
    }


def ratio_stats(ratios) -> dict:
    """The median of the pair ratios and its quartiles."""
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    return {"median_ratio": statistics.median(ratios), "ratio_q1": q1, "ratio_q3": q3, "iqr": q3 - q1}


def setup_seconds(probe: str, home: Path) -> float:
    """Seconds from spawning a fresh interpreter to the end of the probe's import, which must load from home."""
    env = dict(os.environ, PYTHONPATH=str(home))
    start = time.monotonic()  # CLOCK_MONOTONIC is shared with the child
    try:
        proc = subprocess.run(
            [sys.executable, "-B", "-c", probe], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise PairError(f"the start-up probe took over {SETUP_TIMEOUT_S} s with PYTHONPATH={home}") from None
    if proc.returncode != 0:
        raise PairError(f"the start-up probe failed with PYTHONPATH={home}:\n{proc.stderr.strip()}")
    end, module_file = proc.stdout.split("\n", 1)
    if not Path(module_file).resolve().is_relative_to(home.resolve()):
        raise PairError(f"the start-up probe imported {module_file}, not a module under {home}")
    return float(end) - start


def spawn_pairs(sides: dict, pairs: int) -> dict:
    """Each side's start-up seconds: its (probe, home) spawned in alternation, after one unmeasured spawn each."""
    times = {side: [] for side in sides}
    for index in range(pairs + 1):  # spawn 0 of each side is the warm-up
        for side in ("this", "against") if index % 2 else ("against", "this"):
            seconds = setup_seconds(*sides[side])
            if index:
                times[side].append(seconds)
    return times


def pair_setup(probe: str, homes: dict, aa_homes: dict, pairs: int) -> dict:
    """Start-up of both sides' trees; then, as ``aa``, of this checkout's tree against its copy."""
    times = spawn_pairs({side: (probe, home) for side, home in homes.items()}, pairs)
    aa = spawn_pairs({side: (probe, home) for side, home in aa_homes.items()}, pairs)
    return {
        **ratio_stats([t / a for t, a in zip(times["this"], times["against"])]),
        "min_s": {side: min(values) for side, values in times.items()},
        "samples": pairs,
        "aa": ratio_stats([t / a for t, a in zip(aa["this"], aa["against"])]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="git revision to compare with, e.g. HEAD or HEAD~1")
    parser.add_argument("--workload", required=True, help="a workload of bench/workloads.py, e.g. pi-wide")
    parser.add_argument("--pairs", type=int, default=40, help="measured pairs, at least 2")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    sys.path.insert(0, str(ROOT / "bench"))
    # the benchmark's generators and checks, used as they are
    from run import _SETUP_PROBE, check_batch, stamp
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    try:
        with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp:
            tmp = Path(tmp)
            # names of one length, so that no side's paths are longer than the other's
            homes = {"this": tmp / "this", "against": tmp / "base"}
            copy_this(homes["this"])
            export_against(args.against, homes["against"])
            copy_this(tmp / "copy")
            aa_homes = {"this": homes["this"], "against": tmp / "copy"}
            report = pair(workload, check_batch, SEED, args.pairs, homes, tmp / "work")
            report["aa"] = pair(workload, check_batch, SEED, args.pairs, aa_homes, tmp / "work")
            report["setup"] = pair_setup(_SETUP_PROBE, homes, aa_homes, args.pairs)
    except PairError as exc:
        print(f"bench_pair: {exc}", file=sys.stderr)
        return 2
    line = {
        "workload": args.workload,
        "against": args.against,
        "pairs": args.pairs,
        "batch_size": workload.batch_size,
        **report,
        **stamp(SEED),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
    }
    print(json.dumps(line, sort_keys=True))
    return 1 if any(sum(block[k].values()) for block in (report, report["aa"]) for k in ("failed", "failed_checks")) else 0


if __name__ == "__main__":
    raise SystemExit(main())
