"""Time this checkout's ridgelaw against another revision's, in alternating pairs in one process.

    python3 scripts/bench_pair.py --against REV --workload pi-wide --pairs 40

Exports ``src/ridgelaw`` at REV with ``git archive`` into a temporary
directory as the package ``ridgelaw_against`` (refused if any of its modules
imports ``ridgelaw`` by absolute name, which would load this checkout's code
instead), imports both ``cli`` modules, and runs the batches that
``bench/workloads.py`` generates for the workload on each side through the
benchmark's own ``run_batch`` (``bench/run.py``, with no reference copy): one
unmeasured warm-up batch, then one batch per pair, the side that runs first
alternating every pair, so both sides of a pair see the same machine speed.
A pair's ratio is this checkout's batch time over REV's, each the sum of the
command times that ``run_batch`` returns. Each side's artifacts are checked,
untimed, by the benchmark's ``check_batch``, and every artifact file of the
two sides is compared byte for byte.

Then it pairs the start-up: fresh interpreters run the benchmark's set-up
probe (``_SETUP_PROBE``, ``import ridgelaw.cli``; ``ridgelaw_against.cli`` for
REV), the two sides spawned in alternation, one unmeasured spawn each and
then ``SETUP_PAIRS`` measured ones. Both load from the temporary directory,
where a copy of this checkout's ``src/ridgelaw`` without ``__pycache__`` sits
beside REV's export, and run with ``-B``: each compiles its package from
source and reads the standard library's cached bytecode, which is what
``bench/run.py``'s ``setup_s`` measures in a tree without cached bytecode
under ``PYTHONDONTWRITEBYTECODE=1``.

Prints one JSON line: the median ratio and its interquartile range, the pair
count, each side's fastest batch and median minor page faults per batch
(``resource.getrusage``; they show where a change places the pass's large
arrays), the failed commands and failed checks per side, the differing files,
the start-up pairs (``setup``: median ratio, quartiles, each side's fastest
spawn, sample count), the benchmark's ``stamp`` (seed, nproc, cpu, Python,
numpy, commit) and the BLAS-thread settings. Exit 0 when no command and no
check failed, 1 otherwise, 2 when the pairing cannot run. Differing
files do not change the exit status: a change may move last digits by design,
and the checks hold each side to the benchmark's tolerances.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AGAINST = "ridgelaw_against"
SEED = 1  # the batches' inputs, as in scripts/bench_record.py
# an import statement that names the package absolutely
_ABSOLUTE_IMPORT = re.compile(r"^\s*(?:from|import)\s+ridgelaw\b", re.MULTILINE)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PAIRS = 10  # measured spawns per side
SETUP_TIMEOUT_S = 60


class PairError(Exception):
    """The pairing cannot run (unknown revision, unsafe export, wrong import)."""


def absolute_imports(package: Path) -> list:
    """The modules under package that import ``ridgelaw`` by absolute name, as relative paths."""
    return sorted(
        str(path.relative_to(package))
        for path in package.rglob("*.py")
        if _ABSOLUTE_IMPORT.search(path.read_text())
    )


def export_against(rev: str, into: Path) -> Path:
    """src/ridgelaw at rev, extracted under into as the package ridgelaw_against."""
    proc = subprocess.run(["git", "archive", "--format=tar", rev, "src/ridgelaw"], cwd=ROOT, capture_output=True)
    if proc.returncode != 0:
        raise PairError(f"git archive {rev} src/ridgelaw failed: {proc.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    package = (into / "src" / "ridgelaw").rename(into / AGAINST)
    found = absolute_imports(package)
    if found:
        raise PairError(f"{rev}'s package imports ridgelaw by absolute name in {found}; its copy would run this tree")
    return package


def import_sides(export_dir: Path):
    """(this checkout's cli, REV's cli), each checked to come from where it should."""
    sys.path[:0] = [str(ROOT / "src"), str(export_dir)]
    sides = importlib.import_module("ridgelaw.cli"), importlib.import_module(f"{AGAINST}.cli")
    for cli, home in zip(sides, (ROOT / "src", export_dir)):
        if not Path(cli.__file__).resolve().is_relative_to(home.resolve()):
            raise PairError(f"{cli.__name__} was imported from {cli.__file__}, not from {home}")
    return sides


def differing_files(this_out: Path, against_out: Path) -> int:
    """Files present on one side only, or with different bytes."""
    names = {p.name for out in (this_out, against_out) if out.is_dir() for p in out.iterdir()}
    return sum(
        not ((this_out / n).is_file() and (against_out / n).is_file())
        or (this_out / n).read_bytes() != (against_out / n).read_bytes()
        for n in names
    )


def against_command(cmd):
    """cmd with its artifact directory moved to a sibling, for REV's side."""
    out = cmd.out.with_name(cmd.out.name + "-against")
    return dataclasses.replace(cmd, argv=[str(out) if a == str(cmd.out) else a for a in cmd.argv], out=out)


def pair(workload, check_batch, run_batch, seed: int, pairs: int, this, against, workdir: Path) -> dict:
    """Run the warm-up batch and the pairs; returns the report's measured fields."""
    ratios, differing = [], 0
    failed, failed_checks = {"this": 0, "against": 0}, {"this": 0, "against": 0}
    mins, faults = {"this": [], "against": []}, {"this": [], "against": []}
    with open(os.devnull, "w") as sink:
        for index in range(pairs + 1):  # batch 0 is the warm-up
            batch_dir = workdir / f"batch{index:04d}"
            batch_dir.mkdir(parents=True)
            commands = {"this": workload.commands(seed, index, batch_dir)}
            commands["against"] = [against_command(cmd) for cmd in commands["this"]]
            order = ("this", "against") if index % 2 else ("against", "this")
            times, side_faults = {}, {}
            for side in order:
                start_faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                latencies, outcomes, _ = run_batch(this if side == "this" else against, commands[side], sink)
                side_faults[side] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start_faults
                times[side] = sum(latencies)
                failed[side] += sum(code != 0 for code, _ in outcomes)
                # a failed command is also a failed check, as bench/run.py counts it
                failed_checks[side] += len(check_batch(workload, commands[side], outcomes)[0])
            differing += sum(differing_files(a.out, b.out) for a, b in zip(commands["this"], commands["against"]))
            shutil.rmtree(batch_dir)
            if index:
                ratios.append(times["this"] / times["against"])
                for side in mins:
                    mins[side].append(times[side])
                    faults[side].append(side_faults[side])
    return {
        **ratio_stats(ratios),
        "min_s": {side: min(values) for side, values in mins.items()},
        "minor_faults": {side: statistics.median_low(values) for side, values in faults.items()},
        "failed": failed,
        "failed_checks": failed_checks,
        "differing_files": differing,
    }


def ratio_stats(ratios) -> dict:
    """The median of the pair ratios and its quartiles."""
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    return {"median_ratio": statistics.median(ratios), "ratio_q1": q1, "ratio_q3": q3, "iqr": q3 - q1}


def copy_this(into: Path) -> Path:
    """This checkout's src/ridgelaw, copied under into without its cached bytecode."""
    copied = shutil.copytree(ROOT / "src" / "ridgelaw", into / "ridgelaw", ignore=shutil.ignore_patterns("__pycache__"))
    return Path(copied)


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


def pair_setup(probe: str, home: Path, pairs: int = SETUP_PAIRS) -> dict:
    """Start-up of both sides' packages under home, spawned in alternation after one unmeasured spawn each."""
    probes = {"this": probe, "against": probe.replace("ridgelaw", AGAINST)}
    times = {"this": [], "against": []}
    for index in range(pairs + 1):  # spawn 0 of each side is the warm-up
        for side in ("this", "against") if index % 2 else ("against", "this"):
            seconds = setup_seconds(probes[side], home)
            if index:
                times[side].append(seconds)
    return {
        **ratio_stats([t / a for t, a in zip(times["this"], times["against"])]),
        "min_s": {side: min(values) for side, values in times.items()},
        "samples": pairs,
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
    from run import _SETUP_PROBE, check_batch, run_batch, stamp
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    try:
        with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp:
            tmp = Path(tmp)
            export_dir = export_against(args.against, tmp).parent
            this, against = import_sides(export_dir)
            report = pair(workload, check_batch, run_batch, SEED, args.pairs, this, against, tmp / "work")
            copy_this(export_dir)
            report["setup"] = pair_setup(_SETUP_PROBE, export_dir)
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
    return 1 if any(report["failed"].values()) or any(report["failed_checks"].values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
