"""Tests of the benchmark's own metric code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest
from collections import Counter
from pathlib import Path

import metrics


class PercentileWithUndelivered(unittest.TestCase):
    def test_all_delivered(self):
        delivered = Counter({10: 50, 20: 49, 90: 1})
        self.assertEqual(metrics.percentile_with_undelivered(delivered, Counter(), 50), 10)
        self.assertEqual(metrics.percentile_with_undelivered(delivered, Counter(), 99), 20)

    def test_all_wedged(self):
        # Nothing delivered: every sample is its replication's step count.
        undelivered = Counter({5196: 30, 4000: 10})
        self.assertEqual(metrics.percentile_with_undelivered(Counter(), undelivered, 50), 5196)
        self.assertEqual(metrics.percentile_with_undelivered(Counter(), undelivered, 25), 4000)

    def test_p99_lands_on_an_undelivered_message(self):
        # 98 delivered, 2 undelivered: p99 is the 99th sample, the first
        # undelivered one, even though a delivered latency (9000) exceeds
        # its replication's step count.
        delivered = Counter({5: 97, 9000: 1})
        undelivered = Counter({1200: 2})
        self.assertEqual(metrics.percentile_with_undelivered(delivered, undelivered, 99), 1200)
        self.assertEqual(metrics.percentile_with_undelivered(delivered, undelivered, 98), 9000)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.percentile_with_undelivered(Counter(), Counter(), 50)

    def test_simulated_metrics_count_undelivered_as_failed(self):
        tasks = [
            {"latency": [[7, 3]], "steps": 900, "tagged": 4, "delivered": 3, "throughput": 0.5},
            {"latency": [[8, 2]], "steps": 800, "tagged": 2, "delivered": 2, "throughput": 0.25},
        ]
        m, attempted, failed = metrics.simulated_metrics(tasks)
        self.assertEqual((attempted, failed), (6, 1))
        self.assertAlmostEqual(m["delivered_frac"], 5 / 6)
        self.assertEqual(m["latency_p50_steps"], 7)
        self.assertEqual(m["latency_p99_steps"], 900)
        self.assertAlmostEqual(m["throughput"], 0.375)


class RatioBases(unittest.TestCase):
    def test_hops_per_s_with_zero_hops(self):
        task = {"hops": 0, "setup_s": 0.5, "latency": [], "steps": 10, "tagged": 2,
                "delivered": 0, "throughput": 0.0}
        results = {"peak_rss_kb": 2048, "runs": [
            {"kind": "setup", "construct_s": 0.25, "tasks": [task]},
            {"kind": "untraced", "run_s": 2.0, "tasks": [task]},
            {"kind": "untraced", "run_s": 3.0, "tasks": [task]},
        ]}
        m = metrics.end_to_end(results)
        self.assertEqual(m["hops_per_s"], 0.0)
        self.assertEqual(m["run_s"], 2.5)
        self.assertEqual(m["setup_s"], 0.75)
        self.assertEqual(m["peak_rss_mb"], 2.0)
        self.assertEqual(m["delivered_frac"], 0.0)
        self.assertEqual(m["latency_p99_steps"], 10)
        self.assertEqual(metrics.ratio(100, 0.0), 0.0)

    def test_advance_useful_frac_with_zero_attempts(self):
        run = {"run_s": 1.0, "tasks": [{
            "thread": 1, "steps": 0, "injected": 0,
            "counters": {"hops": 0, "stalls": 0, "terminal_slots": 0, "fault_events": 0,
                         "nodes": 4, "memory_bytes": 40}}]}
        profiles = [metrics.profile_task([(0, -1, "core.task", 0, 1000)])]
        m = metrics.layer_metrics(run, profiles, untraced_run_s=1.0)
        self.assertEqual(m["sim.advance_useful_frac"], 0.0)
        self.assertEqual(m["core.advance_ns_per_hop"], 0.0)
        self.assertEqual(m["sim.fault_event_us"], 0.0)
        self.assertEqual(m["fault.memory_bytes_per_node"], 10.0)
        self.assertEqual(m["core.step_p99_us"], 0.0)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # task [0,100) > step [10,60) > {inject [10,20), advance [30,55)}
        spans = [(0, -1, 0, 100), (1, 0, 10, 60), (2, 1, 10, 20), (3, 1, 30, 55)]
        self.assertEqual(metrics.self_times(spans), {0: 50, 1: 15, 2: 10, 3: 25})

    def test_overlapping_and_overhanging_children_count_once(self):
        # Two children overlap each other and one runs past the parent's end;
        # only the part of the parent's interval they cover is subtracted.
        spans = [(0, -1, 0, 100), (1, 0, 10, 50), (2, 0, 40, 120)]
        self.assertEqual(metrics.self_times(spans)[0], 10)

    def test_layer_self_times_sum_to_task_duration(self):
        run = {"run_s": 1e-6, "tasks": [{
            "thread": 7, "steps": 1, "injected": 0,
            "counters": {"hops": 4, "stalls": 0, "terminal_slots": 2}}]}
        spans = [
            (0, -1, "core.task", 0, 1000),
            (1, 0, "core.build", 0, 100),
            (2, 0, "sim.traffic_build", 100, 150),
            (3, 0, "core.step", 200, 900),
            (4, 3, "sim.inject", 200, 300),
            (5, 3, "sim.fault_events", 310, 320),
            (6, 3, "fault.info_rounds", 320, 400),
            (7, 3, "core.advance", 400, 880),
        ]
        m = metrics.layer_metrics(run, [metrics.profile_task(spans)], untraced_run_s=1e-6)
        layers = sum(m[name + "_s"] for name in
                     ("core.build", "sim.traffic_build", "sim.inject", "sim.fault_events",
                      "fault.info_rounds", "core.advance", "core.step"))
        self.assertAlmostEqual(layers + m["core.task_other_s"], 1000e-9)
        self.assertAlmostEqual(m["core.step_s"], 30e-9)
        self.assertAlmostEqual(m["core.advance_ns_per_hop"], 120.0)
        self.assertAlmostEqual(m["core.campaign_efficiency"], 1.0)
        self.assertAlmostEqual(m["trace.accounted_frac"], 0.85)


class BenchmarkFile(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        bench = json.loads(path.read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]},
                         metrics.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]},
                         metrics.PER_LAYER)
        workloads = json.loads((Path(__file__).resolve().parent / "workloads.json")
                               .read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads))
        for name, config in workloads.items():
            self.assertNotIn("seed=", config, name)


if __name__ == "__main__":
    unittest.main()
