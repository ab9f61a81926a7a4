"""Metric arithmetic of the benchmark: end-to-end metrics and output checks
over lgfi_perfbench's raw results, per-layer metrics over a traced run's spans.

Standard library only, so run.py, summarize.py and test_metrics.py share it
without a build.  A result file (what lgfi_perfbench --out writes) is one JSON
line, then one line per span: `run task id parent name start_ns end_ns`.
"""

import json
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field

# Metric name -> (unit, which direction is better); BENCHMARK.json lists the
# same names and units (test_metrics.py checks that they agree).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "hops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "delivered_frac": ("ratio", "higher"),
    "latency_p50_steps": ("steps", "lower"),
    "latency_p99_steps": ("steps", "lower"),
    "throughput": ("msg/term/step", "higher"),
}

PER_LAYER = {
    "core.build_s": ("s", "lower"),
    "sim.traffic_build_s": ("s", "lower"),
    "sim.inject_s": ("s", "lower"),
    "sim.inject_offers": ("count", "higher"),
    "sim.injected": ("count", "higher"),
    "sim.inject_ns_per_terminal_step": ("ns", "lower"),
    "sim.fault_events_s": ("s", "lower"),
    "sim.fault_events": ("count", "lower"),
    "sim.fault_event_us": ("us", "lower"),
    "core.occurrences": ("count", "lower"),
    "core.occurrence_snapshots": ("count", "lower"),
    "fault.info_rounds_s": ("s", "lower"),
    "fault.node_visits": ("count", "lower"),
    "fault.visits_per_event": ("count", "lower"),
    "fault.converging_steps": ("count", "lower"),
    "fault.memory_bytes_per_node": ("bytes", "lower"),
    "core.advance_s": ("s", "lower"),
    "core.advance_ns_per_hop": ("ns", "lower"),
    "sim.hops": ("count", "higher"),
    "sim.stalls": ("count", "lower"),
    "sim.flits_moved": ("count", "higher"),
    "sim.finished": ("count", "higher"),
    "sim.unfinished": ("count", "lower"),
    "sim.advance_useful_frac": ("ratio", "higher"),
    "sim.sw_vc_alloc_stalls": ("count", "lower"),
    "sim.sw_credit_stalls": ("count", "lower"),
    "sim.sw_forced_backtracks": ("count", "lower"),
    "sim.sw_deadlock_drops": ("count", "lower"),
    "sim.sw_fault_drops": ("count", "lower"),
    "core.step_s": ("s", "lower"),
    "core.steps": ("count", "lower"),
    "core.drain_steps": ("count", "lower"),
    "core.step_p50_us": ("us", "lower"),
    "core.step_p99_us": ("us", "lower"),
    "core.task_other_s": ("s", "lower"),
    "core.campaign_busy_s": ("s", "lower"),
    "core.campaign_threads": ("count", "higher"),
    "core.campaign_efficiency": ("ratio", "higher"),
    "trace.run_s": ("s", "lower"),
    "trace.untraced_run_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.accounted_frac": ("ratio", "higher"),
}

# Layers whose self time the traced run measures, in step order.  core.task's
# own self time (the tally and the environment's teardown) is what is left.
LAYER_SPANS = (
    "core.build",
    "sim.traffic_build",
    "sim.inject",
    "sim.fault_events",
    "fault.info_rounds",
    "core.advance",
    "core.step",
)

# The simulated outcome of a replication: equal for equal seeds, whatever the
# tracing or the thread count.
OUTCOME_KEYS = ("steps", "tagged", "delivered", "unreachable", "exhausted",
                "unfinished", "injected", "hops", "throughput", "latency")


def load(path):
    """Returns (results, profiles) of a result file: profiles maps a run
    index to the TaskProfile of each of its traced tasks.  Spans are folded
    into profiles one task at a time, so a long trace never sits in memory
    whole."""
    profiles = defaultdict(list)
    with open(path, encoding="utf-8") as f:
        results = json.loads(f.readline())
        key, task_spans = None, []
        for line in f:
            run, task, sid, parent, name, start, end = line.split()
            if (run, task) != key:
                if task_spans:
                    profiles[int(key[0])].append(profile_task(task_spans))
                key, task_spans = (run, task), []
            task_spans.append((int(sid), int(parent), name, int(start), int(end)))
        if task_spans:
            profiles[int(key[0])].append(profile_task(task_spans))
    return results, profiles


def runs_of(results, kind):
    return [(i, r) for i, r in enumerate(results["runs"]) if r["kind"] == kind]


def ratio(numerator, base):
    """numerator / base, and 0.0 when the base is 0 (nothing to divide)."""
    return numerator / base if base else 0.0


def percentile_with_undelivered(delivered, undelivered, pct):
    """The pct-th percentile (smallest value with at least pct% of the
    samples at or below it) over every tagged message.  `delivered` maps a
    latency to its count; `undelivered` maps a replication's simulated step
    count to the number of its tagged messages that were not delivered.  An
    undelivered message ranks slower than every delivered one, so a wedged
    packet counts as missing any latency limit."""
    ordered = sorted(delivered.items()) + sorted(undelivered.items())
    samples = sum(count for _, count in ordered)
    if samples == 0:
        raise ValueError("no tagged messages")
    rank = -(-pct * samples // 100)  # ceil without floating point
    seen = 0
    for value, count in ordered:
        seen += count
        if seen >= rank:
            return value
    raise AssertionError("unreachable")


def nearest_rank(ordered, pct):
    """The pct-th percentile of an ascending list (0.0 when it is empty)."""
    if not ordered:
        return 0.0
    return ordered[-(-pct * len(ordered) // 100) - 1]


def outcome(task):
    return {k: task[k] for k in OUTCOME_KEYS}


def check_results(results):
    """Every violated output check, as one line each (empty when all hold)."""
    errors = []
    runs = results["runs"]
    for i, run in enumerate(runs):
        if run["kind"] == "setup":
            continue
        for t in run["tasks"]:
            ended = t["delivered"] + t["unreachable"] + t["exhausted"] + t["unfinished"]
            if t["tagged"] != ended:
                errors.append(f"run {i} point {t['point']} rep {t['rep']}: tagged {t['tagged']}"
                              f" != delivered+unreachable+exhausted+unfinished {ended}")
            if sum(c for _, c in t["latency"]) != t["delivered"]:
                errors.append(f"run {i} point {t['point']} rep {t['rep']}:"
                              " latency samples != delivered")
    reference = next((r for r in runs if r["kind"] == "untraced"), None)
    if reference is None:
        return errors + ["no untraced campaign ran"]
    expected = [outcome(t) for t in reference["tasks"]]
    for i, run in enumerate(runs):
        if run["kind"] == "setup" or run is reference:
            continue
        if [outcome(t) for t in run["tasks"]] != expected:
            errors.append(f"run {i} ({run['kind']}, threads={run['threads']}): simulated"
                          " results differ from the first untraced campaign")
        if run["kind"] == "traced":
            for t in run["tasks"]:
                if t["counters"]["hops"] != t["hops"]:
                    errors.append(f"run {i} point {t['point']} rep {t['rep']}: per-step hops"
                                  f" {t['counters']['hops']} != header hops {t['hops']}")
    if reference["threads"] != 1 and not runs_of(results, "threads1"):
        errors.append("no threads=1 campaign to compare against")
    return errors


def simulated_metrics(tasks):
    """The simulated end-to-end metrics of one campaign; they repeat exactly
    for a seed.  Also returns (attempted, failed) in tagged messages."""
    delivered = Counter()
    undelivered = Counter()
    tagged = ok = 0
    for t in tasks:
        for value, count in t["latency"]:
            delivered[value] += count
        undelivered[t["steps"]] += t["tagged"] - t["delivered"]
        tagged += t["tagged"]
        ok += t["delivered"]
    metrics = {
        "delivered_frac": ratio(ok, tagged),
        "latency_p50_steps": percentile_with_undelivered(delivered, undelivered, 50),
        "latency_p99_steps": percentile_with_undelivered(delivered, undelivered, 99),
        "throughput": statistics.fmean(t["throughput"] for t in tasks),
    }
    return metrics, tagged, tagged - ok


def end_to_end(results):
    """End-to-end metrics of an e2e result: host times are medians over the
    repeated campaigns, simulated metrics come from the first campaign."""
    timed = [r for _, r in runs_of(results, "untraced")]
    setups = [r for _, r in runs_of(results, "setup")]
    hops = sum(t["hops"] for t in timed[0]["tasks"])
    metrics, _, _ = simulated_metrics(timed[0]["tasks"])
    metrics.update({
        "setup_s": statistics.median(setup_seconds(r) for r in setups),
        "run_s": statistics.median(r["run_s"] for r in timed),
        "hops_per_s": statistics.median(ratio(hops, r["run_s"]) for r in timed),
        "peak_rss_mb": results["peak_rss_kb"] / 1024.0,
    })
    return metrics


def setup_seconds(run):
    """Campaign construction plus every task's environment build."""
    return run["construct_s"] + sum(t["setup_s"] for t in run["tasks"])


def self_times(spans):
    """Self time of each span of one task: its duration minus the part of
    its interval that its children cover.  `spans` is a list of
    (id, parent, start_ns, end_ns); returns {id: self_ns}."""
    children = defaultdict(list)
    for sid, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = {}
    for sid, _, start, end in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[sid] = (end - start) - covered
    return result


@dataclass
class TaskProfile:
    """One traced task's spans, folded: self seconds per span name, the
    duration of every step, and the task's own duration."""
    self_s: Counter = field(default_factory=Counter)
    step_us: list = field(default_factory=list)
    duration_s: float = 0.0


def profile_task(spans):
    """Folds one task's spans, a list of (id, parent, name, start_ns, end_ns)."""
    profile = TaskProfile()
    selfs = self_times([(sid, parent, start, end) for sid, parent, _, start, end in spans])
    for sid, _, name, start, end in spans:
        profile.self_s[name] += selfs[sid] / 1e9
        if name == "core.step":
            profile.step_us.append((end - start) / 1e3)
        elif name == "core.task":
            profile.duration_s += (end - start) / 1e9
    return profile


def layer_metrics(run, profiles, untraced_run_s):
    """Per-layer metrics of one traced campaign from its task profiles.
    Times are summed self times over all tasks; counts are summed over all
    tasks."""
    self_s = Counter()
    step_us = []
    for p in profiles:
        self_s.update(p.self_s)
        step_us.extend(p.step_us)
    busy_s = sum(p.duration_s for p in profiles)
    c = Counter()
    for t in run["tasks"]:
        c.update(t["counters"])
        c["steps"] += t["steps"]
    threads_seen = len({t["thread"] for t in run["tasks"]})
    layers_s = sum(self_s[name] for name in LAYER_SPANS)
    step_us.sort()
    m = {
        "core.build_s": self_s["core.build"],
        "sim.traffic_build_s": self_s["sim.traffic_build"],
        "sim.inject_s": self_s["sim.inject"],
        "sim.inject_offers": c["offers"],
        "sim.injected": sum(t["injected"] for t in run["tasks"]),
        "sim.inject_ns_per_terminal_step": ratio(self_s["sim.inject"] * 1e9, c["terminal_slots"]),
        "sim.fault_events_s": self_s["sim.fault_events"],
        "sim.fault_events": c["fault_events"],
        "sim.fault_event_us": ratio(self_s["sim.fault_events"] * 1e6, c["fault_events"]),
        "core.occurrences": c["occurrences"],
        "core.occurrence_snapshots": c["occurrence_snapshots"],
        "fault.info_rounds_s": self_s["fault.info_rounds"],
        "fault.node_visits": c["node_visits"],
        "fault.visits_per_event": ratio(c["node_visits"], c["fault_events"]),
        "fault.converging_steps": c["converging_steps"],
        "fault.memory_bytes_per_node": ratio(c["memory_bytes"], c["nodes"]),
        "core.advance_s": self_s["core.advance"],
        "core.advance_ns_per_hop": ratio(self_s["core.advance"] * 1e9, c["hops"]),
        "sim.hops": c["hops"],
        "sim.stalls": c["stalls"],
        "sim.flits_moved": c["flits_moved"],
        "sim.finished": c["finished"],
        "sim.unfinished": c["unfinished"],
        "sim.advance_useful_frac": ratio(c["hops"], c["hops"] + c["stalls"]),
        "sim.sw_vc_alloc_stalls": c["sw_vc_alloc_stalls"],
        "sim.sw_credit_stalls": c["sw_credit_stalls"],
        "sim.sw_forced_backtracks": c["sw_forced_backtracks"],
        "sim.sw_deadlock_drops": c["sw_deadlock_drops"],
        "sim.sw_fault_drops": c["sw_fault_drops"],
        "core.step_s": self_s["core.step"],
        "core.steps": c["steps"],
        "core.drain_steps": c["drain_steps"],
        "core.step_p50_us": nearest_rank(step_us, 50),
        "core.step_p99_us": nearest_rank(step_us, 99),
        "core.task_other_s": self_s["core.task"],
        "core.campaign_busy_s": busy_s,
        "core.campaign_threads": threads_seen,
        "core.campaign_efficiency": ratio(busy_s, threads_seen * run["run_s"]),
        "trace.run_s": run["run_s"],
        "trace.untraced_run_s": untraced_run_s,
        "trace.overhead_s": run["run_s"] - untraced_run_s,
        "trace.accounted_frac": ratio(layers_s, busy_s),
    }
    return m


def per_layer(results, profiles):
    """Per-layer metrics of a trace result: its one traced campaign, with the
    tracing overhead taken against the median untraced run_s."""
    [(index, traced)] = runs_of(results, "traced")
    untraced_s = statistics.median(r["run_s"] for _, r in runs_of(results, "untraced"))
    return layer_metrics(traced, profiles.get(index, []), untraced_s)
