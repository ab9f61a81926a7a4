// Tests for the per-message routing-decision memo (DESIGN.md §8): a decision
// answered from the memo must equal the router's from-scratch decision at
// every step, under every source of environment change (node lifecycle
// churn, link faults, each information mode, persistent header marks), and
// on the stalled wormhole wedge the router must run about once per header
// change instead of once per stalled step.

#include <gtest/gtest.h>

#include <string>

#include "src/core/experiment_runner.h"
#include "src/sim/traffic_pattern.h"

namespace lgfi {
namespace {

struct MemoRun {
  long long checked = 0;    ///< memo hits compared against a fresh decision
  long long mismatches = 0;
  long long moves = 0;      ///< header moves (StepContext::moved)
  long long finishes = 0;   ///< messages finished (StepContext::finished)
  long long stalls = 0;     ///< stalled channel/VC requests
  long long router_decisions = 0;
};

/// Builds the config's dynamic environment, then drives it phase by phase
/// with uniform Bernoulli injection at `rate`.  Right before each advance
/// phase every in-flight message whose memo key is current — exactly the
/// decisions the advance phase will take from the memo — is compared with a
/// from-scratch router decision.
MemoRun run_checked(const std::string& overrides, double rate, int steps) {
  Config cfg = experiment_config();
  cfg.parse_string("traffic=uniform warmup_steps=0 measure_steps=" + std::to_string(steps) +
                   " " + overrides);
  const ExperimentRunner runner(cfg);
  Rng rng(7);
  auto env = runner.build_dynamic(rng);
  DynamicSimulation& sim = *env.sim;
  const Topology& mesh = *env.mesh;
  auto pattern = make_traffic_pattern("uniform", mesh, Config{}, rng);

  MemoRun out;
  for (int s = 0; s < steps; ++s) {
    for (NodeId node = 0; node < static_cast<NodeId>(mesh.node_count()); ++node) {
      if (!rng.bernoulli(rate)) continue;
      if (sim.model().field().at(node) != NodeStatus::kEnabled) continue;
      const Coord source = mesh.coord_of(node);
      const Coord dest = pattern->destination(source, rng);
      if (dest == source || is_block_member(sim.model().field().at(dest))) continue;
      (void)sim.launch_message(source, dest);
    }
    StepContext ctx = sim.begin_step();
    sim.apply_fault_events(ctx);
    sim.run_information_rounds(ctx);
    for (const MessageProgress& msg : sim.messages()) {
      if (msg.done()) continue;
      const auto memo = sim.memoized_decision(msg.id);
      if (!memo) continue;
      ++out.checked;
      if (!(*memo == sim.fresh_decision(msg.id))) ++out.mismatches;
    }
    sim.arbitrate_and_advance(ctx);
    sim.end_step(ctx);
    out.moves += ctx.moved;
    out.finishes += ctx.finished;
    out.stalls += ctx.stalled;
  }
  out.router_decisions = sim.router_decisions();
  return out;
}

TEST(DecisionMemo, WormholeWedgeDecidesOncePerHeaderChange) {
  // The fault-free 16x16 2-VC wedge: most probes wait on a VC for many
  // steps, so nearly every advance-phase decision is a memo hit.
  const MemoRun r =
      run_checked("mesh_dims=2 radix=16 faults=0 switching=wormhole num_vcs=2", 0.05, 300);
  EXPECT_EQ(r.mismatches, 0);
  EXPECT_GT(r.stalls, 5 * r.moves) << "the point must actually wedge";
  EXPECT_GT(r.checked, r.moves);
  const double header_changes = static_cast<double>(r.moves + r.finishes);
  EXPECT_LE(static_cast<double>(r.router_decisions), 1.1 * header_changes)
      << "the router must run about once per header change, not once per stalled step";
}

struct MemoCase {
  const char* name;
  const char* overrides;
  double rate;
};

class DecisionMemoSoundness : public ::testing::TestWithParam<MemoCase> {};

TEST_P(DecisionMemoSoundness, MemoEqualsFreshDecisionEveryStep) {
  const MemoRun r = run_checked(GetParam().overrides, GetParam().rate, 250);
  EXPECT_EQ(r.mismatches, 0);
  EXPECT_GT(r.checked, 1000) << "the case must exercise memo hits";
  EXPECT_GT(r.moves, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Environments, DecisionMemoSoundness,
    ::testing::Values(
        MemoCase{"lifecycle",
                 "mesh_dims=2 radix=12 fault_model=lifecycle fault_arrival_rate=0.05 "
                 "repair_rate=0.05 transient_frac=0.3",
                 0.15},
        MemoCase{"lifecycle_links_wormhole",
                 "mesh_dims=2 radix=12 fault_model=lifecycle_links fault_arrival_rate=0.3 "
                 "repair_rate=0.05 transient_frac=0.3 switching=wormhole",
                 0.04},
        MemoCase{"delayed_global",
                 "mesh_dims=2 radix=12 mode=dynamic fault_model=clustered faults=6 batches=4 "
                 "fault_interval=40 recoveries=true info_mode=delayed_global "
                 "switching=wormhole",
                 0.04},
        MemoCase{"instant_global",
                 "mesh_dims=2 radix=12 mode=dynamic fault_model=clustered faults=6 batches=4 "
                 "fault_interval=40 recoveries=true info_mode=instant_global",
                 0.1},
        MemoCase{"persistent_marks",
                 "mesh_dims=2 radix=12 fault_model=lifecycle fault_arrival_rate=0.05 "
                 "repair_rate=0.02 persistent_marks=true switching=wormhole",
                 0.06},
        MemoCase{"oracle_3d",
                 "mesh_dims=3 radix=6 fault_model=lifecycle fault_arrival_rate=0.2 "
                 "repair_rate=0.05 router=oracle switching=wormhole",
                 0.04}),
    [](const ::testing::TestParamInfo<MemoCase>& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace lgfi
