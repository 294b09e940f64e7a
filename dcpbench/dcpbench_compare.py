#!/usr/bin/env python3
"""dcpbench_compare — compare two sets of dcpbench results, metric by metric.

Usage:
    dcpbench_compare.py PARENT CHANGE [--benchmark BENCHMARK.json]
    dcpbench_compare.py --self-test

PARENT and CHANGE are each a directory of `dcpbench --json=FILE` outputs or a file
holding one such JSON object per line. Runs are grouped by workload and paired by seed
when both sides ran the same seeds (otherwise in order).

For every (workload, metric) it prints each side's median and quartiles, the change of
the median, the pair win rate, and a verdict:

  improved       the change wins at least 9 of 10 pairs and its median beats the
                 parent's by more than the parent's interquartile range
  no regression  the change's median is not worse than the parent's by more than the
                 metric's bound (or every change run beats every parent run)
  regressed      it is worse by more than the bound
  unresolved     the run-to-run spread (IQR / median) of either side is wider than the
                 bound, so the bound cannot be judged

Bounds and directions come from BENCHMARK.json's end_to_end metrics. A rise in the
failed ratio (failed / attempted), or any run that reported correct=false, is flagged.
Exits 1 when anything regressed, is unresolved or is flagged; 0 otherwise.
"""

import argparse
import json
import random
import statistics
import sys
from pathlib import Path

DEFAULT_BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_RATE = 0.9


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative(delta, base):
    return delta / abs(base) if base else (0.0 if delta == 0 else float("inf"))


def verdict(parent, change, better, bound, pairs):
    """Returns (verdict, win_rate) for one metric.

    `parent`/`change` are the two sides' values, `pairs` the (parent, change) pairs;
    `better` is "lower" or "higher".
    """
    sign = 1.0 if better == "lower" else -1.0  # sign * (new - old) > 0 means worse.
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    win_rate = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if win_rate >= WIN_RATE and sign * (pm - cm) > (p3 - p1):
        return "improved", win_rate
    if all(sign * (c - p) < 0 for c in change for p in parent):
        return "no regression", win_rate
    spread = max(relative(p3 - p1, pm), relative(c3 - c1, cm))
    if spread > bound:
        return "unresolved", win_rate
    if relative(sign * (cm - pm), pm) > bound:
        return "regressed", win_rate
    return "no regression", win_rate


def load(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for file in files:
        for line in file.read_text().splitlines():
            if line.strip():
                runs.append(json.loads(line))
    if not runs:
        raise SystemExit(f"dcpbench_compare: no results in {path}")
    return runs


def by_workload(runs):
    grouped = {}
    for run in runs:
        grouped.setdefault(run["workload"], []).append(run)
    return grouped


def failed_ratio(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare(parent_runs, change_runs, end_to_end):
    """Returns (report lines, number of findings)."""
    lines = []
    findings = 0
    parent_by, change_by = by_workload(parent_runs), by_workload(change_runs)
    for workload in sorted(set(parent_by) | set(change_by)):
        parent, change = parent_by.get(workload, []), change_by.get(workload, [])
        lines.append(f"== {workload}: {len(parent)} parent runs, {len(change)} change runs")
        if not parent or not change:
            lines.append("  FLAG: one side has no runs")
            findings += 1
            continue
        parent_fail, change_fail = failed_ratio(parent), failed_ratio(change)
        incorrect = [r.get("seed") for r in change if not r["correct"]]
        if change_fail > parent_fail or incorrect:
            lines.append(f"  FLAG: failed_ratio {parent_fail:.6f} -> {change_fail:.6f}"
                         f"; change runs reporting correct=false (seeds): {incorrect}")
            findings += 1
        parent_seeds = {r["seed"]: r for r in parent}
        change_seeds = {r["seed"]: r for r in change}
        paired_by_seed = (len(parent_seeds) == len(parent) and
                          set(parent_seeds) == set(change_seeds))
        if paired_by_seed:
            run_pairs = [(parent_seeds[s], change_seeds[s]) for s in sorted(parent_seeds)]
        else:
            run_pairs = list(zip(parent, change))
        for metric in end_to_end:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            if not all(name in r["metrics"] for r in parent + change):
                continue
            p_values = [r["metrics"][name]["value"] for r in parent]
            c_values = [r["metrics"][name]["value"] for r in change]
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                     for p, c in run_pairs]
            result, win_rate = verdict(p_values, c_values, better, bound, pairs)
            if result in ("regressed", "unresolved"):
                findings += 1
            p1, pm, p3 = quartiles(p_values)
            c1, cm, c3 = quartiles(c_values)
            unit = parent[0]["metrics"][name]["unit"]
            lines.append(
                f"  {name:22s} {pm:11.5g} [{p1:.5g}, {p3:.5g}] -> {cm:11.5g} "
                f"[{c1:.5g}, {c3:.5g}] {unit:6s} {100 * relative(cm - pm, pm):+7.2f}% "
                f"wins {win_rate:4.2f} bound {bound:.2f}  {result}")
    return lines, findings


def fake_runs(rng, workload, values_by_metric, failed=0):
    runs = []
    count = len(next(iter(values_by_metric.values())))
    for i in range(count):
        runs.append({
            "workload": workload, "seed": i + 1, "correct": failed == 0,
            "attempted": 1000, "failed": failed,
            "metrics": {name: {"value": values[i], "unit": "u"}
                        for name, values in values_by_metric.items()},
        })
    rng.shuffle(runs)
    return runs


def self_test():
    rng = random.Random(20261016)

    def noisy(center, spread, n=10):
        return [center * (1 + rng.uniform(-spread, spread)) for _ in range(n)]

    cases = [
        # (description, parent values, change values, better, bound, expected)
        ("same distribution", noisy(10, 0.02), noisy(10, 0.02), "lower", 0.1,
         "no regression"),
        ("30% slower", noisy(10, 0.02), noisy(13, 0.02), "lower", 0.1, "regressed"),
        ("30% faster", noisy(10, 0.02), noisy(7, 0.02), "lower", 0.1, "improved"),
        ("spread wider than the bound", noisy(10, 0.3), noisy(10, 0.3), "lower", 0.1,
         "unresolved"),
        ("throughput 30% lower", noisy(100, 0.02), noisy(70, 0.02), "higher", 0.1,
         "regressed"),
        ("throughput 30% higher", noisy(100, 0.02), noisy(130, 0.02), "higher", 0.1,
         "improved"),
        ("noisy, but every change run better", noisy(10, 0.3), noisy(3, 0.3), "lower", 0.1,
         "improved"),
        ("5% slower within a 10% bound", noisy(10, 0.01), noisy(10.5, 0.01), "lower", 0.1,
         "no regression"),
        # Plan-quality metrics read the same on every run of a commit.
        ("deterministic, unchanged", [0.6] * 10, [0.6] * 10, "lower", 0.01, "no regression"),
        ("deterministic, 2% worse", [0.6] * 10, [0.612] * 10, "lower", 0.01, "regressed"),
        ("deterministic, 2% better", [0.6] * 10, [0.588] * 10, "lower", 0.01, "improved"),
    ]
    failures = []
    for description, parent, change, better, bound, expected in cases:
        got, _ = verdict(parent, change, better, bound, list(zip(parent, change)))
        if got != expected:
            failures.append(f"{description}: expected {expected}, got {got}")

    # End to end through compare(): seed pairing, bounds from the benchmark, the flag.
    end_to_end = [{"name": "op_p50_ms", "better": "lower", "bound": 0.1},
                  {"name": "plan_comm_mb", "better": "lower", "bound": 0.01}]
    parent = fake_runs(rng, "w", {"op_p50_ms": noisy(1, 0.01), "plan_comm_mb": [140.0] * 10})
    same = fake_runs(rng, "w", {"op_p50_ms": noisy(1, 0.01), "plan_comm_mb": [140.0] * 10})
    _, findings = compare(parent, same, end_to_end)
    if findings:
        failures.append(f"identical sets: {findings} findings")
    shifted = fake_runs(rng, "w", {"op_p50_ms": noisy(1, 0.01), "plan_comm_mb": [142.0] * 10})
    lines, findings = compare(parent, shifted, end_to_end)
    if findings != 1 or not any("plan_comm_mb" in l and "regressed" in l for l in lines):
        failures.append(f"1.4% more communication through compare(): {lines}")
    failing = fake_runs(rng, "w", {"op_p50_ms": noisy(1, 0.01), "plan_comm_mb": [140.0] * 10},
                        failed=3)
    lines, findings = compare(parent, failing, end_to_end)
    if findings != 1 or not any("FLAG: failed_ratio" in l for l in lines):
        failures.append(f"failed_ratio rise not flagged: {lines}")

    if failures:
        for failure in failures:
            print(f"dcpbench_compare self-test FAILED: {failure}", file=sys.stderr)
        return 1
    print(f"dcpbench_compare self-test: {len(cases) + 3} cases pass")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--benchmark", default=str(DEFAULT_BENCHMARK))
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.parent is None or args.change is None:
        parser.error("PARENT and CHANGE are required")
    end_to_end = json.loads(Path(args.benchmark).read_text())["end_to_end"]
    lines, findings = compare(load(args.parent), load(args.change), end_to_end)
    print("\n".join(lines))
    print(f"dcpbench_compare: {findings} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
