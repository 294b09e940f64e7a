#!/usr/bin/env python3
"""Build and run one dcpbench workload; print its result as one JSON line.

    python3 dcpbench/run.py --workload train_cold --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds dcpbench (and the
`dcp` library it measures) from source into .bench_build/; later runs only check that
the build is current. The last line on stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end_to_end metrics of BENCHMARK.json (or, with --trace 1, its per_layer
metrics). Build logs and dcpbench's own report go to stderr. Exits non-zero, printing
no result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "dcpbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"dcpbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(command, timeout):
    """Runs `command` with its output on stderr; returns its exit code."""
    try:
        return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(map(str, command))}")


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        code = run_logged(["cmake", "-S", str(ROOT / "dcpbench"), "-B", str(BUILD)],
                          BUILD_TIMEOUT_S)
        if code != 0:
            (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
            fail("cmake configure failed")
    if run_logged(["cmake", "--build", str(BUILD), "--target", "dcpbench", "-j", "4"],
                  BUILD_TIMEOUT_S) != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    work_dir = BUILD / "work"
    result_file = BUILD / f"result-{os.getpid()}.json"
    command = [str(BINARY), f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--json={result_file}",
               f"--work-dir={work_dir}"]
    if args.trace:
        command += ["--trace",
                    f"--trace-out={BUILD / f'trace-{args.workload}-{args.seed}.json'}"]
    try:
        code = run_logged(command, RUN_TIMEOUT_S)
        if not result_file.exists():
            fail(f"dcpbench exited with {code} and wrote no result")
        result = json.loads(result_file.read_text())
    finally:
        result_file.unlink(missing_ok=True)
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = {}
    for metric in wanted:
        measured = result["metrics"].get(metric["name"])
        if measured is None or measured["unit"] != metric["unit"]:
            fail(f"dcpbench did not report {metric['name']} in {metric['unit']}")
        metrics[metric["name"]] = {"value": measured["value"], "unit": measured["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
