#!/usr/bin/env python3
"""The repository benchmark: builds lgfi_perfbench from the checkout's
sources, runs one workload, checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload ideal_mesh32 --seed 1 --seconds 20 --trace 0

Run it from the repository root.  The build goes to $CARGO_TARGET_DIR
(default .bench_build) and the raw result file to results/ under it.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (see
README.md).  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A failed check prints
"correct": false and exits 1; a failed build exits 1 before any result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

# Seconds lgfi_perfbench may take once built: a run must end within 180 s.
PROGRAM_TIMEOUT_S = 170


def build(build_dir):
    """Configures (until a configure succeeds) and builds lgfi_perfbench;
    returns its path."""
    if not any((build_dir / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir), *generator,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "4"], check=True, stdout=sys.stderr)
    return build_dir / "lgfi_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workloads = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    if args.workload not in workloads:
        sys.exit(f"unknown workload {args.workload!r}; known: {', '.join(workloads)}")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    try:
        program = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"build failed: {e}")

    mode = "trace" if args.trace else "e2e"
    out = build_dir / "results" / f"{args.workload}-seed{args.seed}-{mode}.txt"
    out.parent.mkdir(parents=True, exist_ok=True)
    tokens = workloads[args.workload].split() + [f"seed={args.seed}"]
    started = time.monotonic()
    try:
        subprocess.run([str(program), "--mode", mode, "--seconds", str(args.seconds),
                        "--out", str(out), *tokens],
                       check=True, stdout=sys.stderr, timeout=PROGRAM_TIMEOUT_S)
    except (OSError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        sys.exit(f"lgfi_perfbench failed: {e}")
    print(f"# {args.workload} seed={args.seed} {mode}: lgfi_perfbench ran"
          f" {time.monotonic() - started:.1f} s; raw results in {out}", file=sys.stderr)

    results, profiles = metrics.load(out)
    errors = metrics.check_results(results)
    _, attempted, failed = metrics.simulated_metrics(
        metrics.runs_of(results, "untraced")[0][1]["tasks"])
    if args.trace:
        values, table = metrics.per_layer(results, profiles), metrics.PER_LAYER
    else:
        values, table = metrics.end_to_end(results), metrics.END_TO_END
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)

    for name, (unit, _) in table.items():
        print(f"{name:34s} {values[name]:>18.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _) in table.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
