#!/usr/bin/env python3
"""Compare a google-benchmark JSON run against the checked-in baseline.

Usage:
    scripts/check_perf_regression.py BENCH_baseline.json BENCH_pr.json [--threshold 25]
    scripts/check_perf_regression.py --trajectory [DIR]

Fails (exit 1) when any benchmark present in both files is more than
--threshold percent slower than the baseline *after normalizing out the
machine-speed factor*: the geometric mean of all per-benchmark time ratios
is taken as "how much slower/faster this machine is overall" and each
benchmark is compared against that, so a baseline recorded on different
hardware (the checked-in one, or a stale one after a runner-image change)
does not produce phantom regressions — only benchmarks that slowed down
*relative to the rest of the suite* trip the gate.  Pass --absolute to
compare raw times instead (meaningful only when baseline and current ran
on identical hardware).

The trade-off: a perfectly uniform slowdown of every benchmark is absorbed
into the machine factor.  That is the cost of a cross-machine tripwire;
refreshing the baseline from the BENCH_pr artifact of a green CI run keeps
the factor near 1 so the window stays small.

Benchmarks that exist on only one side are reported but do not fail the
check — adding or retiring a benchmark is not a regression.

--trajectory reads every BENCH_pr<N>.json in DIR (default: the repository
root), the per-change records of the repository benchmark (perfbench/), and
prints per workload and metric the parent -> change medians in PR order.
"""

import argparse
import json
import math
import re
import sys
from pathlib import Path

_PR_FILE = re.compile(r"^BENCH_pr(\d+)\.json$")

_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_times(path):
    """benchmark name -> real_time in nanoseconds."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    times = {}
    for bench in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev of --benchmark_repetitions).
        if bench.get("run_type") == "aggregate":
            continue
        # A benchmark that failed at runtime (error_occurred) has no timing
        # row; warn instead of crashing the job on the missing key.
        if bench.get("error_occurred") or "real_time" not in bench:
            print(f"NOTE: skipping benchmark without timing data: "
                  f"{bench.get('name', '<unnamed>')}")
            continue
        unit = bench.get("time_unit", "ns")
        times[bench["name"]] = bench["real_time"] * _TO_NS.get(unit, 1.0)
    return times


def load_trajectory(directory):
    """[(N, document)] for every BENCH_pr<N>.json in `directory`, by N."""
    runs = []
    for path in Path(directory).iterdir():
        match = _PR_FILE.match(path.name)
        if match:
            with open(path, "r", encoding="utf-8") as fh:
                runs.append((int(match.group(1)), json.load(fh)))
    return sorted(runs, key=lambda run: run[0])


def trajectory(runs):
    """workload -> metric -> [(N, parent median, change median)], in the
    order workloads and metrics first appear.  Only summarized metrics (a
    {"median": ...} object) take part; a side a record lacks is None."""
    def medians(side):
        return {m: v["median"] for m, v in side.items() if isinstance(v, dict) and "median" in v}

    table = {}
    for number, doc in runs:
        for workload, sides in doc.get("workloads", {}).items():
            parent = medians(sides.get("parent", {}))
            change = medians(sides.get("change", {}))
            for metric in list(parent) + [m for m in change if m not in parent]:
                table.setdefault(workload, {}).setdefault(metric, []).append(
                    (number, parent.get(metric), change.get(metric)))
    return table


def format_trajectory(table):
    def num(value):
        return "-" if value is None else f"{value:.6g}"

    lines = []
    for workload, metrics in table.items():
        lines.append(workload)
        width = max(len(m) for m in metrics)
        for metric, points in metrics.items():
            label = metric
            for number, parent, change in points:
                delta = ""
                if parent and change is not None:
                    delta = f"  ({(change / parent - 1.0) * 100.0:+.1f}%)"
                lines.append(f"  {label:<{width}}  pr{number:<4} {num(parent):>12} -> "
                             f"{num(change):<12}{delta}")
                label = ""
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("current", nargs="?")
    parser.add_argument("--threshold", type=float, default=25.0,
                        help="maximum tolerated slowdown in percent (default 25)")
    parser.add_argument("--absolute", action="store_true",
                        help="compare raw times (requires identical hardware)")
    parser.add_argument("--trajectory", nargs="?", metavar="DIR",
                        const=str(Path(__file__).resolve().parent.parent),
                        help="print the BENCH_pr*.json medians in DIR in PR order")
    args = parser.parse_args(argv)

    if args.trajectory is not None:
        runs = load_trajectory(args.trajectory)
        if not runs:
            print(f"ERROR: no BENCH_pr<N>.json in {args.trajectory}")
            return 1
        print(format_trajectory(trajectory(runs)))
        return 0
    if args.baseline is None or args.current is None:
        parser.error("baseline and current are required without --trajectory")

    baseline = load_times(args.baseline)
    current = load_times(args.current)

    for name in sorted(set(baseline) - set(current)):
        print(f"NOTE: baseline-only benchmark (retired?): {name}")
    for name in sorted(set(current) - set(baseline)):
        print(f"NOTE: new benchmark without baseline: {name}")

    shared = sorted(n for n in set(baseline) & set(current) if baseline[n] > 0)
    if not shared:
        print("ERROR: no benchmarks in common between baseline and current run")
        return 1

    ratios = {n: current[n] / baseline[n] for n in shared}
    machine = 1.0
    if not args.absolute:
        machine = math.exp(sum(math.log(r) for r in ratios.values()) / len(ratios))
        print(f"machine-speed factor (geomean of ratios): {machine:.3f}x "
              f"— per-benchmark deltas below are relative to it\n")

    regressions = []
    width = max(len(n) for n in shared)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  {'rel delta':>9}")
    for name in shared:
        delta = (ratios[name] / machine - 1.0) * 100.0
        flag = ""
        if delta > args.threshold:
            regressions.append((name, delta))
            flag = "  << REGRESSION"
        print(f"{name:<{width}}  {baseline[name]:>10.0f}ns  {current[name]:>10.0f}ns  "
              f"{delta:>+8.1f}%{flag}")

    if regressions:
        print(f"\nFAIL: {len(regressions)} benchmark(s) regressed more than "
              f"{args.threshold:.0f}% vs {args.baseline}:")
        for name, delta in regressions:
            print(f"  {name}: {delta:+.1f}%")
        return 1
    print(f"\nOK: no benchmark regressed more than {args.threshold:.0f}% "
          f"({len(shared)} compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
