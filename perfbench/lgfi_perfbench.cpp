// Benchmark program: runs one workload as a campaign through the path `sweep`
// takes (SweepSpec -> CampaignRunner::run_with), with a replication body of
// its own so every replication's simulated outcome and host time are kept.
//
//   lgfi_perfbench --mode e2e|trace --seconds S --out FILE key=value ...
//
//   e2e    untraced campaigns repeated until S seconds have passed, each
//          after a few set-up passes (campaign construction plus every
//          task's environment build, no simulation), so the set-up median
//          samples the whole run.
//   trace  one untraced campaign, one traced campaign, then untraced ones
//          until S seconds have passed.  The traced body steps each
//          simulation phase by phase and records a span around every call
//          into a layer; one traced campaign keeps the span file bounded.
//
// A workload on more than one thread ends with one more campaign at
// threads=1, so run.py can check that the outputs do not depend on the
// thread count.
//
// FILE receives one JSON line of raw per-replication results (run.py turns
// them into metrics and checks them), then in trace mode one line per span:
//   run task id parent name start_ns end_ns
// where `run` indexes the JSON's "runs" array and `task` is point * reps + rep.

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/campaign.h"
#include "src/core/experiment_runner.h"
#include "src/core/scenario.h"
#include "src/core/traffic_workload.h"
#include "src/fault/node_status.h"
#include "src/sim/injection_process.h"
#include "src/sim/traffic_pattern.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- spans ------------------------------------------------------------------

enum class Layer : uint8_t {
  kTask,
  kBuild,
  kTrafficBuild,
  kStep,
  kInject,
  kFaultEvents,
  kInfoRounds,
  kAdvance,
};

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kTask: return "core.task";
    case Layer::kBuild: return "core.build";
    case Layer::kTrafficBuild: return "sim.traffic_build";
    case Layer::kStep: return "core.step";
    case Layer::kInject: return "sim.inject";
    case Layer::kFaultEvents: return "sim.fault_events";
    case Layer::kInfoRounds: return "fault.info_rounds";
    case Layer::kAdvance: return "core.advance";
  }
  return "unknown";
}

struct Span {
  int parent = -1;
  Layer layer = Layer::kTask;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One task's spans, in memory until the benchmark writes them out.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int open(Layer layer, int parent) {
    const auto now = Clock::now();
    return add(layer, parent, now, now);
  }
  void close(int id) { spans_[static_cast<size_t>(id)].end_ns = ns(Clock::now()); }
  int add(Layer layer, int parent, Clock::time_point start, Clock::time_point end) {
    spans_.push_back(Span{parent, layer, ns(start), ns(end)});
    return static_cast<int>(spans_.size()) - 1;
  }
  std::vector<Span> take() { return std::move(spans_); }

 private:
  int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// --- one replication ---------------------------------------------------------

/// What one replication produced: the simulated outcome (must repeat exactly
/// for a seed), its set-up time, and in a traced run the layer counters and
/// spans.
struct Replication {
  long long steps = 0;
  long long tagged = 0;
  long long delivered = 0;
  long long unreachable = 0;
  long long exhausted = 0;
  long long unfinished = 0;
  long long injected = 0;
  long long hops = 0;  ///< message-head channel traversals
  double throughput = 0.0;
  lgfi::IntHistogram latency;
  double setup_s = 0.0;  ///< build_dynamic + pattern + injection process
  size_t thread = 0;     ///< hash of the thread that ran the task
  std::vector<std::pair<std::string, double>> counters;
  std::vector<Span> spans;
};

struct Environment {
  lgfi::ExperimentRunner::DynamicEnv dyn;
  std::unique_ptr<lgfi::TrafficPattern> pattern;
  std::unique_ptr<lgfi::InjectionProcess> process;
};

/// The set-up ExperimentRunner's traffic replication performs, in its order
/// (the pattern draws before the injection process).  With `log`, the two
/// halves become spans under `parent`.
Environment build_environment(const lgfi::ExperimentRunner& runner, lgfi::Rng& rng,
                              Replication& out, SpanLog* log = nullptr, int parent = -1) {
  const lgfi::Config& cfg = runner.config();
  const auto t0 = Clock::now();
  Environment env;
  env.dyn = runner.build_dynamic(rng, /*run_warmup=*/false);
  const auto t1 = Clock::now();
  env.pattern = lgfi::make_traffic_pattern(cfg.get_str("traffic"), *env.dyn.mesh, cfg, rng);
  env.process = lgfi::make_injection_process(cfg.get_str("injection"), *env.dyn.mesh, cfg, rng);
  const auto t2 = Clock::now();
  out.setup_s = seconds_between(t0, t2);
  if (log != nullptr) {
    log->add(Layer::kBuild, parent, t0, t1);
    log->add(Layer::kTrafficBuild, parent, t1, t2);
  }
  return env;
}

/// The options ExperimentRunner's traffic replication derives from the
/// config; that mapping is private to it, so the benchmark repeats it.
lgfi::TrafficWorkloadOptions workload_options(const lgfi::Config& cfg) {
  lgfi::TrafficWorkloadOptions opts;
  opts.injection_rate = cfg.get_double("injection_rate");
  opts.warmup_steps = cfg.get_int("warmup_steps");
  opts.measure_steps = cfg.get_int("measure_steps");
  opts.drain_steps = cfg.get_int("drain_steps");
  opts.probes = static_cast<int>(cfg.get_int("routes"));
  opts.min_probe_distance = static_cast<int>(cfg.get_int("min_pair_distance"));
  opts.trace_record = cfg.get_str("trace_record");
  opts.trace_packet_size =
      cfg.get_str("switching") == "wormhole" ? static_cast<int>(cfg.get_int("flits_per_packet")) : 1;
  return opts;
}

void record_outcome(const lgfi::TrafficResult& r, const lgfi::DynamicSimulation& sim,
                    Replication& out) {
  out.steps = r.steps_run;
  out.tagged = r.measured;
  out.delivered = r.measured_delivered;
  out.unreachable = r.measured_unreachable;
  out.exhausted = r.measured_exhausted;
  out.unfinished = r.measured_unfinished;
  out.injected = r.injected;
  out.throughput = r.accepted_throughput;
  out.latency = r.latency;
  for (const auto& msg : sim.messages()) out.hops += msg.header.total_steps();
}

void untraced_replication(const lgfi::ExperimentRunner& runner, lgfi::Rng& rng, Replication& out) {
  Environment env = build_environment(runner, rng, out);
  lgfi::TrafficWorkload workload(*env.dyn.sim, *env.pattern, *env.process,
                                 workload_options(runner.config()), rng);
  record_outcome(workload.run(), *env.dyn.sim, out);
}

/// Layer counters of a traced replication, summed over its steps.
struct StepCounters {
  long long terminal_slots = 0;  ///< fire() consults: the inject-cost base
  long long offers = 0;
  long long fault_events = 0;
  long long occurrences = 0;
  long long converging_steps = 0;
  long long hops = 0;
  long long stalls = 0;
  long long flits_moved = 0;
  long long finished = 0;
  long long drain_steps = 0;
};

/// TrafficWorkload::run for open-loop processes, stepping the simulation
/// phase by phase so each phase is a span.  The RNG draws, launches and
/// tallies follow TrafficWorkload::inject and ::run exactly; run.py checks
/// the outcome against the untraced run's.
class TracedTraffic {
 public:
  TracedTraffic(Environment& env, const lgfi::TrafficWorkloadOptions& opts, lgfi::Rng& rng,
                SpanLog& log, int task)
      : sim_(*env.dyn.sim), pattern_(*env.pattern), process_(*env.process), opts_(opts),
        rng_(rng), log_(log), task_(task) {
    if (process_.closed_loop() || !opts_.trace_record.empty())
      throw std::invalid_argument(
          "the traced run supports open-loop injection without trace_record only");
  }

  lgfi::TrafficResult run() {
    lgfi::TrafficResult result;
    for (long long s = 0; s < opts_.warmup_steps; ++s) step(/*inject=*/true, false, result);
    const lgfi::Topology& mesh = sim_.mesh();
    for (int p = 0; p < opts_.probes; ++p) {
      const lgfi::Pair pair = lgfi::random_enabled_pair(mesh, sim_.model().field(), rng_,
                                                        opts_.min_probe_distance);
      result.probe_ids.push_back(sim_.launch_message(pair.source, pair.dest));
    }
    for (long long s = 0; s < opts_.measure_steps; ++s) step(/*inject=*/true, true, result);
    long long cap = opts_.drain_steps > 0 ? opts_.drain_steps
                                          : 4ll * mesh.direction_count() * mesh.node_count();
    while (!sim_.all_messages_done() && cap-- > 0) {
      step(/*inject=*/false, false, result);
      ++counters_.drain_steps;
    }
    for (const int id : result.measured_ids) {
      const lgfi::MessageProgress& msg = sim_.message(id);
      result.stall_steps += msg.stall_steps;
      if (msg.delivered) {
        ++result.measured_delivered;
        result.latency.add(msg.end_step - msg.start_step);
      } else if (msg.unreachable) {
        ++result.measured_unreachable;
      } else if (msg.budget_exhausted) {
        ++result.measured_exhausted;
      } else {
        ++result.measured_unfinished;
      }
    }
    const double window =
        static_cast<double>(opts_.measure_steps) * static_cast<double>(mesh.terminal_count());
    if (window > 0) {
      result.offered_load = static_cast<double>(result.offered) / window;
      result.accepted_throughput = static_cast<double>(result.measured_delivered) / window;
    }
    return result;
  }

  [[nodiscard]] const StepCounters& counters() const { return counters_; }

 private:
  void step(bool inject, bool measured, lgfi::TrafficResult& result) {
    const int span = log_.open(Layer::kStep, task_);
    if (inject) {
      const int id = log_.open(Layer::kInject, span);
      inject_sweep(measured, result);
      log_.close(id);
    }
    lgfi::StepContext ctx = sim_.begin_step();
    int id = log_.open(Layer::kFaultEvents, span);
    sim_.apply_fault_events(ctx);
    log_.close(id);
    id = log_.open(Layer::kInfoRounds, span);
    sim_.run_information_rounds(ctx);
    log_.close(id);
    id = log_.open(Layer::kAdvance, span);
    sim_.arbitrate_and_advance(ctx);
    log_.close(id);
    sim_.end_step(ctx);
    log_.close(span);

    ++result.steps_run;
    counters_.fault_events += static_cast<long long>(ctx.events.size());
    if (ctx.occurrence_opened) ++counters_.occurrences;
    if (sim_.model().last_activity().any()) ++counters_.converging_steps;
    counters_.hops += ctx.moved;
    counters_.stalls += ctx.stalled;
    counters_.flits_moved += ctx.flits_moved;
    counters_.finished += ctx.finished;
  }

  void inject_sweep(bool measured, lgfi::TrafficResult& result) {
    const lgfi::Topology& mesh = sim_.mesh();
    const lgfi::StatusField& field = sim_.model().field();
    const auto nodes = static_cast<lgfi::NodeId>(mesh.node_count());
    lgfi::InjectionStepView view;
    view.step = sim_.now();
    view.active_messages = sim_.active_messages();
    process_.begin_step(view);
    int slot = 0;
    for (lgfi::NodeId node = 0; node < nodes; ++node) {
      for (int t = 0; t < mesh.concentration(); ++t, ++slot) {
        ++counters_.terminal_slots;
        if (!process_.fire(slot, rng_)) continue;
        ++counters_.offers;
        if (measured) ++result.offered;
        if (field.at(node) != lgfi::NodeStatus::kEnabled) continue;
        const lgfi::Coord source = mesh.coord_of(node);
        lgfi::Coord dest;
        if (!process_.replay_destination(slot, dest)) dest = pattern_.destination(source, rng_);
        if (dest == source) continue;
        if (lgfi::is_block_member(field.at(dest))) continue;
        const int id = sim_.launch_message(source, dest);
        ++result.injected;
        process_.on_inject(slot, id);
        if (measured) {
          ++result.measured;
          result.measured_ids.push_back(id);
        }
      }
    }
  }

  lgfi::DynamicSimulation& sim_;
  lgfi::TrafficPattern& pattern_;
  lgfi::InjectionProcess& process_;
  const lgfi::TrafficWorkloadOptions& opts_;
  lgfi::Rng& rng_;
  SpanLog& log_;
  int task_;
  StepCounters counters_;
};

void traced_replication(const lgfi::ExperimentRunner& runner, lgfi::Rng& rng,
                        Clock::time_point origin, Replication& out) {
  SpanLog log(origin);
  const int task = log.open(Layer::kTask, -1);
  {
    Environment env = build_environment(runner, rng, out, &log, task);
    const lgfi::DynamicSimulation& sim = *env.dyn.sim;
    const lgfi::TrafficWorkloadOptions opts = workload_options(runner.config());
    const long long visits_before = sim.model().protocol_node_visits();
    TracedTraffic traffic(env, opts, rng, log, task);
    record_outcome(traffic.run(), sim, out);

    const StepCounters& c = traffic.counters();
    long long snapshots = 0;
    for (const auto& msg : sim.messages())
      snapshots += static_cast<long long>(msg.distance_at_occurrence.size());
    double vc_alloc = 0, credit = 0, backtracks = 0, deadlock = 0, fault_drops = 0;
    for (const auto& [name, value] : sim.switching().metrics()) {
      if (name == "vc_alloc_stalls") vc_alloc += value;
      if (name.rfind("credit_stalls_vc", 0) == 0) credit += value;
      if (name == "forced_backtracks") backtracks += value;
      if (name == "deadlock_drops") deadlock += value;
      if (name == "fault_drops") fault_drops += value;
    }
    const auto d = [](long long v) { return static_cast<double>(v); };
    out.counters = {
        {"terminal_slots", d(c.terminal_slots)},
        {"offers", d(c.offers)},
        {"fault_events", d(c.fault_events)},
        {"occurrences", d(c.occurrences)},
        {"occurrence_snapshots", d(snapshots)},
        {"node_visits", d(sim.model().protocol_node_visits() - visits_before)},
        {"converging_steps", d(c.converging_steps)},
        {"memory_bytes", d(sim.memory_bytes())},
        {"nodes", d(sim.mesh().node_count())},
        {"hops", d(c.hops)},
        {"stalls", d(c.stalls)},
        {"flits_moved", d(c.flits_moved)},
        {"finished", d(c.finished)},
        {"unfinished", d(sim.active_messages())},
        {"drain_steps", d(c.drain_steps)},
        {"sw_vc_alloc_stalls", vc_alloc},
        {"sw_credit_stalls", credit},
        {"sw_forced_backtracks", backtracks},
        {"sw_deadlock_drops", deadlock},
        {"sw_fault_drops", fault_drops},
    };
  }  // the environment's teardown stays inside the task span
  log.close(task);
  out.spans = log.take();
}

// --- one campaign ------------------------------------------------------------

enum class Body { kSetupOnly, kUntraced, kTraced };

/// Maps a task back to its (point, replication): the body receives only the
/// point's runner and the replication's forked Rng.  A copy of the Rng is
/// fingerprinted, so the simulation's own stream is untouched.
class TaskIndex {
 public:
  explicit TaskIndex(const lgfi::Campaign& campaign) : campaign_(campaign) {
    fingerprints_.resize(campaign.points.size());
    for (size_t p = 0; p < campaign.points.size(); ++p) {
      const lgfi::Config& cfg = campaign.points[p].config;
      for (size_t q = 0; q < p; ++q)
        if (campaign.points[q].config == cfg)
          throw std::invalid_argument("two grid points share one config");
      const auto seed = static_cast<uint64_t>(cfg.get_int("seed"));
      const long long reps = cfg.get_int("replications");
      for (long long rep = 0; rep < reps; ++rep) {
        lgfi::Rng probe = lgfi::Rng(seed).fork(static_cast<uint64_t>(rep));
        if (!fingerprints_[p].emplace(probe.next_u64(), static_cast<size_t>(rep)).second)
          throw std::logic_error("replication Rng fingerprints collide");
      }
    }
  }

  [[nodiscard]] std::pair<size_t, size_t> locate(const lgfi::ExperimentRunner& runner,
                                                 const lgfi::Rng& rng) const {
    for (size_t p = 0; p < campaign_.points.size(); ++p) {
      if (!(campaign_.points[p].config == runner.config())) continue;
      lgfi::Rng probe = rng;
      return {p, fingerprints_[p].at(probe.next_u64())};
    }
    throw std::logic_error("task's runner matches no grid point");
  }

 private:
  const lgfi::Campaign& campaign_;
  std::vector<std::unordered_map<uint64_t, size_t>> fingerprints_;
};

struct CampaignRun {
  std::string kind;  ///< setup | untraced | traced | threads1
  int threads = 0;
  double construct_s = 0.0;  ///< SweepSpec parse + CampaignRunner construction
  double run_s = 0.0;        ///< construction start to the last point's result
  std::vector<std::vector<Replication>> points;  ///< [point][rep]
};

CampaignRun run_campaign(const std::vector<std::string>& tokens, Body body, std::string kind) {
  CampaignRun run;
  run.kind = std::move(kind);
  const auto t0 = Clock::now();
  lgfi::SweepSpec spec(lgfi::experiment_config());
  for (const auto& token : tokens) spec.parse_token(token);
  const lgfi::CampaignRunner runner(spec);
  run.construct_s = seconds_between(t0, Clock::now());

  const lgfi::Campaign& campaign = runner.campaign();
  run.threads = static_cast<int>(campaign.base.get_int("threads"));
  const TaskIndex index(campaign);
  run.points.resize(campaign.points.size());
  for (size_t p = 0; p < campaign.points.size(); ++p)
    run.points[p].resize(static_cast<size_t>(campaign.points[p].config.get_int("replications")));

  // Each task writes only its own slot; run_with joins its pool before it
  // returns, so the reads below see every write.
  runner.run_with([&](const lgfi::ExperimentRunner& r, lgfi::Rng& rng, lgfi::MetricSet&) {
    const auto [p, rep] = index.locate(r, rng);
    Replication& out = run.points[p][rep];
    out.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
    switch (body) {
      case Body::kSetupOnly: build_environment(r, rng, out); break;
      case Body::kUntraced: untraced_replication(r, rng, out); break;
      case Body::kTraced: traced_replication(r, rng, t0, out); break;
    }
  });
  run.run_s = seconds_between(t0, Clock::now());
  return run;
}

// --- output ------------------------------------------------------------------

void write_run(std::ostream& os, const CampaignRun& run) {
  os << "{\"kind\":\"" << run.kind << "\",\"threads\":" << run.threads
     << ",\"construct_s\":" << run.construct_s << ",\"run_s\":" << run.run_s << ",\"tasks\":[";
  bool first = true;
  for (size_t p = 0; p < run.points.size(); ++p) {
    for (size_t rep = 0; rep < run.points[p].size(); ++rep) {
      const Replication& r = run.points[p][rep];
      os << (first ? "" : ",") << "{\"point\":" << p << ",\"rep\":" << rep
         << ",\"thread\":" << r.thread << ",\"setup_s\":" << r.setup_s << ",\"steps\":" << r.steps << ",\"tagged\":" << r.tagged
         << ",\"delivered\":" << r.delivered << ",\"unreachable\":" << r.unreachable
         << ",\"exhausted\":" << r.exhausted << ",\"unfinished\":" << r.unfinished
         << ",\"injected\":" << r.injected << ",\"hops\":" << r.hops
         << ",\"throughput\":" << r.throughput << ",\"latency\":[";
      bool first_bucket = true;
      for (const auto& [value, count] : r.latency.buckets()) {
        os << (first_bucket ? "" : ",") << "[" << value << "," << count << "]";
        first_bucket = false;
      }
      os << "],\"counters\":{";
      bool first_counter = true;
      for (const auto& [name, value] : r.counters) {
        os << (first_counter ? "" : ",") << "\"" << name << "\":" << value;
        first_counter = false;
      }
      os << "}}";
      first = false;
    }
  }
  os << "]}";
}

void write_spans(std::ostream& os, size_t run_index, const CampaignRun& run) {
  size_t task = 0;
  for (const auto& point : run.points) {
    for (const Replication& r : point) {
      for (size_t i = 0; i < r.spans.size(); ++i) {
        const Span& s = r.spans[i];
        os << run_index << ' ' << task << ' ' << i << ' ' << s.parent << ' ' << layer_name(s.layer)
           << ' ' << s.start_ns << ' ' << s.end_ns << '\n';
      }
      ++task;
    }
  }
}

long long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// Set-up passes before each timed campaign: enough for a steady median of
/// a quantity measured in milliseconds, a small share of the run.
constexpr int kSetupPasses = 10;

struct Args {
  std::string mode;
  double seconds = 0.0;
  std::string out;
  std::vector<std::string> tokens;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--mode") {
      args.mode = value();
    } else if (a == "--seconds") {
      args.seconds = std::stod(value());
    } else if (a == "--out") {
      args.out = value();
    } else if (a.rfind("--", 0) == 0) {
      throw std::invalid_argument("unknown flag " + a);
    } else {
      args.tokens.push_back(a);
    }
  }
  if (args.mode != "e2e" && args.mode != "trace")
    throw std::invalid_argument("--mode must be e2e or trace");
  if (args.out.empty()) throw std::invalid_argument("--out is required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return args;
}

int run_benchmark(const Args& args) {
  std::vector<CampaignRun> runs;
  const bool trace = args.mode == "trace";
  const auto start = Clock::now();
  bool trace_pending = trace;
  do {
    if (!trace)
      for (int i = 0; i < kSetupPasses; ++i)
        runs.push_back(run_campaign(args.tokens, Body::kSetupOnly, "setup"));
    runs.push_back(run_campaign(args.tokens, Body::kUntraced, "untraced"));
    if (trace_pending) runs.push_back(run_campaign(args.tokens, Body::kTraced, "traced"));
    trace_pending = false;
  } while (seconds_between(start, Clock::now()) < args.seconds);
  const long long rss_kb = peak_rss_kb();

  if (runs.back().threads != 1) {
    std::vector<std::string> single = args.tokens;
    single.emplace_back("threads=1");
    runs.push_back(run_campaign(single, Body::kUntraced, "threads1"));
  }

  std::ofstream os(args.out);
  os << std::setprecision(17);
  os << "{\"mode\":\"" << args.mode << "\",\"peak_rss_kb\":" << rss_kb << ",\"runs\":[";
  for (size_t i = 0; i < runs.size(); ++i) {
    if (i > 0) os << ",";
    write_run(os, runs[i]);
  }
  os << "]}\n";
  for (size_t i = 0; i < runs.size(); ++i) write_spans(os, i, runs[i]);
  os.flush();
  if (!os) {
    std::cerr << "lgfi_perfbench: cannot write " << args.out << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_benchmark(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "lgfi_perfbench: " << e.what() << "\n";
    return 2;
  }
}
