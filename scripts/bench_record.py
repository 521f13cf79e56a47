"""Record one BENCH_<pr>.json: every benchmark workload, untraced and traced.

    python3 scripts/bench_record.py --pr N [--against REV]

Runs the command that ``BENCHMARK.json`` declares (``bench/run.py``) from
the root of this checkout, once per workload with ``--trace 0`` and once with
``--trace 1``, one run after another, all at the fixed ``SEED`` and for the
``run_seconds`` that ``BENCHMARK.json`` declares, so that two records compare
like with like. Each run's detail line and result line, its last two lines of
stdout, are kept as printed; a run that exits non-zero keeps its exit code and
its stderr instead. The record also holds the length of the checkout's path, which
moves the timings of some workloads, and the seed and duration of the runs.
The detail lines carry the stamp (commit, cpu, nproc, numpy, python) and
the sample counts (batches, commands, set-up samples).

With ``--against REV``, the record also holds, under ``pairs``, the JSON line
that ``scripts/bench_pair.py --against REV --pairs PAIRS`` prints for each
workload (this checkout's ridgelaw against REV's, in alternating pairs in one
process), with its exit code; a pairing that prints no line keeps its stderr.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIR_SCRIPT = Path(__file__).resolve().parent / "bench_pair.py"
SEED = 1
PAIRS = 30  # per workload, with --against


def record_run(command, workload, seed, seconds, trace):
    """One benchmark run: its detail and result lines as printed, or its exit code and stderr."""
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    run = {"workload": workload, "trace": trace, "returncode": proc.returncode}
    lines = proc.stdout.splitlines()
    if proc.returncode == 0 and len(lines) >= 2:
        run["detail"], run["result"] = lines[-2:]
    else:
        run["stderr"] = proc.stderr
    return run


def record_pairs(rev, workload, pairs):
    """bench_pair.py's JSON line for one workload against rev, with its exit code; its stderr if it prints none."""
    args = [sys.executable, str(PAIR_SCRIPT), "--against", rev, "--workload", workload, "--pairs", str(pairs)]
    proc = subprocess.run(args, cwd=PAIR_SCRIPT.parent, capture_output=True, text=True)
    run = {"workload": workload, "returncode": proc.returncode}
    lines = proc.stdout.splitlines()
    if lines:
        run["line"] = json.loads(lines[-1])
    else:
        run["stderr"] = proc.stderr
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output file name BENCH_<pr>.json")
    parser.add_argument("--against", help="git revision to pair this checkout's ridgelaw with, e.g. HEAD~1")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(benchmark["run_seconds"])  # a float: detail lines read --seconds 30.0, as in earlier records
    runs = [
        record_run(benchmark["command"], workload["name"], SEED, seconds, trace)
        for workload in benchmark["workloads"]
        for trace in (0, 1)
    ]
    record = {
        "checkout_path_length": len(str(ROOT)),
        "seed": SEED,
        "seconds": seconds,
        "runs": runs,
    }
    if args.against is not None:
        record["pairs"] = [record_pairs(args.against, w["name"], PAIRS) for w in benchmark["workloads"]]
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0 if all(run["returncode"] == 0 for run in runs + record.get("pairs", [])) else 1


if __name__ == "__main__":
    raise SystemExit(main())
