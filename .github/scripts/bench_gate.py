#!/usr/bin/env python3
"""Gate a change's benchmark records against its base commit's records.

    bench_gate.py --benchmark BENCHMARK.json --records DIR --changed FILE

DIR holds one directory per benchmark run, named `base-N` or `head-N`,
each with one `<workload>.json` record per workload, as written by
`likelab-benchmark --out`. FILE lists the paths the change touches, one
per line (`git diff --name-only BASE HEAD`).

On any workload that BENCHMARK.json names, the gate fails when:

- an `end_to_end` metric of BENCHMARK.json other than a wall time is
  worse than the base by more than its `bound`, comparing the mean of
  each side's runs;
- a wall time (an `end_to_end` metric in seconds, such as `setup_s`, or
  the median of a run's `samples.pass_s`) is more than 1.5x the base's
  in every pair of a head run and a base run;
- `failed` rises. A run that left no record counts as one failure.

When FILE touches the benchmark itself (a path under BENCHMARK.json's
`paths`, or BENCHMARK.json), base and head ran different benchmarks: the
gate reports and does not fail. The report goes to stdout and, when set,
to `$GITHUB_STEP_SUMMARY`.
"""

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

# Wall times are gated at a fixed factor, and only when every head run is
# that much slower than every base run: base and head run on the same
# runner minutes apart, but a shared runner has slow stretches that last
# minutes and may hit one side only. The other metrics (allocations)
# repeat for one seed, so they are gated at their BENCHMARK.json bound.
WALL_FACTOR = 1.5


def load_runs(records, side, workload):
    """The side's records for one workload; None for a run without one."""
    runs = []
    for run in sorted(records.glob(f"{side}-*")):
        path = run / f"{workload}.json"
        runs.append(json.loads(path.read_text()) if path.is_file() else None)
    return runs


def metric(record, name):
    return record["metrics"][name]["value"]


def median_pass(record):
    return statistics.median(record["samples"]["pass_s"])


def worse(base, head, better):
    """How many times worse `head` is than `base`."""
    return head / base if better == "lower" else base / head


def compare(base, head, better, every_run):
    """(base value, head value, ratio) for one check of two sides' values.

    With `every_run`, the pair of runs closest to passing: the ratio
    exceeds a limit only when every head run does against every base run.
    Otherwise the means of the two sides.
    """
    if every_run:
        return min(
            ((b, h, worse(b, h, better)) for b in base for h in head),
            key=lambda c: c[2],
        )
    b, h = statistics.fmean(base), statistics.fmean(head)
    return b, h, worse(b, h, better)


def failed(runs):
    return sum(1 if r is None else r["failed"] for r in runs)


def fmt(value, unit):
    if unit == "count":
        return f"{value:,.0f}"
    if unit == "s":
        return f"{value:.3f} s"
    return f"{value:.2f} {unit}"


def touches_benchmark(changed, bench_paths):
    return [
        path
        for path in changed
        if path == "BENCHMARK.json"
        or any(path == p or path.startswith(p + "/") for p in bench_paths)
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", type=Path, required=True)
    parser.add_argument("--records", type=Path, required=True)
    parser.add_argument("--changed", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads(args.benchmark.read_text())
    changed = [line for line in args.changed.read_text().splitlines() if line]
    bench_changes = touches_benchmark(changed, spec["paths"])
    # (metric, unit, value of a record, better, limit as a ratio, every run)
    checks = []
    for m in spec["end_to_end"]:
        wall = m["unit"] == "s"
        limit = WALL_FACTOR if wall else 1 + m["bound"]
        value = lambda r, n=m["name"]: metric(r, n)
        checks.append((m["name"], m["unit"], value, m["better"], limit, wall))
    checks.append(("median pass_s", "s", median_pass, "lower", WALL_FACTOR, True))

    lines = [
        "## Benchmark gate: head vs base",
        "",
        "Wall-time rows compare the head run and the base run that are",
        "closest to passing; the other rows compare the means of the runs.",
        "",
        "| workload | metric | base | head | worse by | limit | |",
        "|---|---|---:|---:|---:|---:|---|",
    ]
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        base = load_runs(args.records, "base", workload)
        head = load_runs(args.records, "head", workload)
        for name, unit, value, better, limit, every_run in checks:
            bs = [value(r) for r in base if r is not None]
            hs = [value(r) for r in head if r is not None]
            if not bs or not hs:
                lines.append(f"| {workload} | {name} | — | — | — | — | |")
                continue
            b, h, ratio = compare(bs, hs, better, every_run)
            bad = ratio > limit
            lines.append(
                f"| {workload} | {name} | {fmt(b, unit)} | {fmt(h, unit)} "
                f"| {ratio:.3f}x | {limit:.2f}x | {'FAIL' if bad else 'ok'} |"
            )
            if bad:
                failures.append(
                    f"{workload}: {name} {fmt(h, unit)} is {ratio:.3f}x worse than "
                    f"the base's {fmt(b, unit)} (limit {limit:.2f}x)"
                )
        fb, fh = failed(base), failed(head)
        bad = fh > fb
        lines.append(f"| {workload} | failed | {fb} | {fh} | — | ≤ {fb} | {'FAIL' if bad else 'ok'} |")
        if bad:
            failures.append(f"{workload}: failed rose from {fb} to {fh}")

    lines.append("")
    if bench_changes:
        touched = ", ".join(f"`{p}`" for p in bench_changes)
        lines.append(
            f"The change touches the benchmark ({touched}), so base and head "
            "ran different benchmarks: reporting only."
        )
    for failure in failures:
        lines.append(f"- {'would fail' if bench_changes else 'FAIL'}: {failure}")
    if not failures:
        lines.append("No workload regressed.")
    report = "\n".join(lines) + "\n"
    print(report, end="")
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as f:
            f.write(report)
    return 1 if failures and not bench_changes else 0


if __name__ == "__main__":
    sys.exit(main())
