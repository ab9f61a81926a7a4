#!/usr/bin/env python3
"""Per-layer table of traced benchmark runs.

    python3 perfbench/summarize.py .bench_build/results/*-trace.txt

Each argument is a result file that `run.py --trace 1` left behind.  For each
it prints every layer's self time in the traced campaign, its share of the busy time, its counts, and each ratio with its base, then
the tracing overhead: traced run_s minus untraced run_s.  Busy time is the
sum of task durations, threads x run_s x campaign efficiency.
"""

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics  # noqa: E402


def fmt(value):
    return f"{value:.4g}" if isinstance(value, float) else f"{value:,}"


def rows(m, base):
    """(layer, self_s, counts-and-ratios text) in step order."""
    return [
        ("core.build", m["core.build_s"], ""),
        ("sim.traffic_build", m["sim.traffic_build_s"], ""),
        ("sim.inject", m["sim.inject_s"],
         f"offers={fmt(m['sim.inject_offers'])} injected={fmt(m['sim.injected'])}"
         f"  ns/terminal-step={fmt(m['sim.inject_ns_per_terminal_step'])}"
         f" (base {fmt(base['terminal_slots'])} terminal-steps)"),
        ("sim.fault_events", m["sim.fault_events_s"],
         f"events={fmt(m['sim.fault_events'])} occurrences={fmt(m['core.occurrences'])}"
         f" snapshots={fmt(m['core.occurrence_snapshots'])}"
         f"  us/event={fmt(m['sim.fault_event_us'])} (base {fmt(m['sim.fault_events'])} events)"),
        ("fault.info_rounds", m["fault.info_rounds_s"],
         f"node_visits={fmt(m['fault.node_visits'])}"
         f" converging_steps={fmt(m['fault.converging_steps'])}"
         f"  visits/event={fmt(m['fault.visits_per_event'])}"
         f" (base {fmt(m['sim.fault_events'])} events)"
         f"  bytes/node={fmt(m['fault.memory_bytes_per_node'])}"
         f" (base {fmt(base['nodes'])} nodes)"),
        ("core.advance", m["core.advance_s"],
         f"hops={fmt(m['sim.hops'])} stalls={fmt(m['sim.stalls'])}"
         f" flits={fmt(m['sim.flits_moved'])} finished={fmt(m['sim.finished'])}"
         f" unfinished={fmt(m['sim.unfinished'])}"
         f"  useful_frac={fmt(m['sim.advance_useful_frac'])}"
         f" (base {fmt(m['sim.hops'] + m['sim.stalls'])} attempts)"
         f"  ns/hop={fmt(m['core.advance_ns_per_hop'])} (base {fmt(m['sim.hops'])} hops)"
         f"  sw: vc_alloc={fmt(m['sim.sw_vc_alloc_stalls'])}"
         f" credit={fmt(m['sim.sw_credit_stalls'])}"
         f" forced_backtracks={fmt(m['sim.sw_forced_backtracks'])}"
         f" deadlock_drops={fmt(m['sim.sw_deadlock_drops'])}"
         f" fault_drops={fmt(m['sim.sw_fault_drops'])}"),
        ("core.step", m["core.step_s"],
         f"steps={fmt(m['core.steps'])} drain={fmt(m['core.drain_steps'])}"
         f"  per step p50={fmt(m['core.step_p50_us'])} us p99={fmt(m['core.step_p99_us'])} us"
         f" (base {fmt(m['core.steps'])} steps)"),
        ("core.task (rest)", m["core.task_other_s"], "tally and environment teardown"),
    ]


def summarize(path):
    results, profiles = metrics.load(path)
    traced = metrics.runs_of(results, "traced")
    if not traced:
        raise SystemExit(f"{path}: no traced campaign (not a --trace 1 result)")
    m = metrics.per_layer(results, profiles)
    base = Counter()
    for t in traced[0][1]["tasks"]:
        base.update(t["counters"])
    busy = m["core.campaign_busy_s"]
    name = Path(path).name.removesuffix(".txt")
    print(f"== {name}: {len(traced[0][1]['tasks'])} traced tasks")
    print(f"  {'layer':18s} {'self_s':>10s} {'share':>7s}  counts / ratios (base)")
    for layer, self_s, text in rows(m, base):
        print(f"  {layer:18s} {self_s:10.4f} {metrics.ratio(self_s, busy):7.1%}  {text}")
    print(f"  busy {busy:.3f} s = {m['core.campaign_threads']} threads x run_s"
          f" {m['trace.run_s']:.3f} s x efficiency {m['core.campaign_efficiency']:.3f};"
          f" layers account for {m['trace.accounted_frac']:.1%} of it")
    print(f"  tracing overhead: traced run_s {m['trace.run_s']:.3f} s - untraced"
          f" {m['trace.untraced_run_s']:.3f} s = {m['trace.overhead_s']:+.3f} s"
          f" ({metrics.ratio(m['trace.overhead_s'], m['trace.untraced_run_s']):+.1%})")


def main(paths):
    if not paths:
        raise SystemExit(__doc__)
    for path in paths:
        summarize(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
