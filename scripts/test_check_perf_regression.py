"""Tests for check_perf_regression.py --trajectory (standard library only).

    python3 -m unittest discover -s scripts -p 'test_*.py'
"""

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check_perf_regression as cpr  # noqa: E402


def record(workloads):
    """A BENCH_pr<N>.json document: workload -> (parent, change) medians."""
    out = {"context": {}, "workloads": {}}
    for workload, (parent, change) in workloads.items():
        out["workloads"][workload] = {
            side: {metric: {"median": value, "q1": value, "q3": value, "n": 5}
                   for metric, value in medians.items()}
            for side, medians in (("parent", parent), ("change", change))
        }
        out["workloads"][workload]["parent"]["attempted"] = [10, 11]
    return out


class TrajectoryTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        root = Path(self.dir.name)
        docs = {
            "BENCH_pr10.json": record({"w": ({"run_s": 2.0}, {"run_s": 1.0})}),
            "BENCH_pr9.json": record({"w": ({"run_s": 4.0, "rss": 8.0},
                                            {"run_s": 2.0})}),
            # Not per-change records: the CI artifact and the google-benchmark baseline.
            "BENCH_pr.json": {"benchmarks": []},
            "BENCH_baseline.json": {"benchmarks": []},
        }
        for name, doc in docs.items():
            (root / name).write_text(json.dumps(doc), encoding="utf-8")

    def tearDown(self):
        self.dir.cleanup()

    def test_reads_records_in_numeric_pr_order(self):
        runs = cpr.load_trajectory(self.dir.name)
        self.assertEqual([number for number, _ in runs], [9, 10])

    def test_lists_parent_and_change_medians_per_metric(self):
        table = cpr.trajectory(cpr.load_trajectory(self.dir.name))
        self.assertEqual(list(table), ["w"])
        self.assertEqual(table["w"]["run_s"], [(9, 4.0, 2.0), (10, 2.0, 1.0)])
        # A metric one side lacks shows None; per-pair lists are skipped.
        self.assertEqual(table["w"]["rss"], [(9, 8.0, None)])
        self.assertNotIn("attempted", table["w"])

    def test_main_prints_trajectory(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cpr.main(["--trajectory", self.dir.name])
        self.assertEqual(status, 0)
        lines = out.getvalue().splitlines()
        self.assertEqual(lines[0], "w")
        self.assertIn("pr9", lines[1])
        self.assertIn("(-50.0%)", lines[1])
        self.assertIn("pr10", lines[2])

    def test_main_fails_without_records(self):
        with tempfile.TemporaryDirectory() as empty, \
                contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(cpr.main(["--trajectory", empty]), 1)

    def test_repository_records_parse(self):
        root = Path(__file__).resolve().parent.parent
        table = cpr.trajectory(cpr.load_trajectory(root))
        for workload in ("ideal_mesh32", "wormhole_wedge16", "lifecycle_cube20"):
            self.assertIn("run_s", table[workload])


if __name__ == "__main__":
    unittest.main()
