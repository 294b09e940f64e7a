#!/usr/bin/env python3
"""Checks that a bench_report JSON file is well-formed.

Usage: check_bench_report.py PATH

Asserts that the schema is dcp.bench_planning.v8, that all eight sections are
present and non-empty, and that every row in a section has the same key list.
Parsing is strict: a trailing comma, or a nan/inf a printf-based writer can emit,
fails the check.
"""
import json
import sys

SCHEMA = "dcp.bench_planning.v8"
SECTIONS = (
    "partitioner",
    "planning",
    "repeat_batch",
    "metrics_overhead",
    "warm_start",
    "service",
    "service_scaling",
    "service_replicated",
)


def reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def check(doc):
    """Returns a list of problems with the parsed report; empty when it is valid."""
    problems = []
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    for name in SECTIONS:
        rows = doc.get(name)
        if not isinstance(rows, list) or not rows:
            problems.append(f"section {name} is missing or empty")
            continue
        keys = list(rows[0])
        for i, row in enumerate(rows):
            if list(row) != keys:
                problems.append(
                    f"{name} row {i} keys {list(row)} differ from row 0 {keys}")
    return problems


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            doc = json.load(f, parse_constant=reject_constant)
    except (OSError, ValueError) as e:
        print(f"check_bench_report: {argv[1]}: {e}", file=sys.stderr)
        return 1
    problems = check(doc)
    for problem in problems:
        print(f"check_bench_report: {argv[1]}: {problem}", file=sys.stderr)
    if not problems:
        print(f"check_bench_report: {argv[1]} is well-formed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
