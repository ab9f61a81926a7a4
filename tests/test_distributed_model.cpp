// Integration tests for the distributed fault-information stack (P3):
// labeling, level detection, the n-level identification process, envelope
// propagation and boundary construction must converge to the centralized
// geometric references — across dimensions, fault shapes, merges, and
// recovery dynamics.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "src/fault/block_analyzer.h"
#include "src/fault/boundary_model.h"
#include "src/fault/corner_taxonomy.h"
#include "src/fault/distributed_model.h"
#include "src/fault/labeling.h"
#include "src/sim/fault_schedule.h"
#include "src/sim/rng.h"

namespace lgfi {
namespace {

std::vector<Box> sorted_boxes(std::span<const BlockInfo> infos) {
  std::vector<Box> out;
  for (const auto& i : infos) out.push_back(i.box);
  std::sort(out.begin(), out.end());
  return out;
}

/// Compares the distributed InfoStore against the centralized fixpoint.
/// Returns the number of mismatching nodes (and reports the first few).
int placement_mismatches(const Topology& mesh, const DistributedFaultModel& model,
                         const InfoStore& expected, int report_limit = 5) {
  int mismatches = 0;
  for (NodeId id = 0; id < mesh.node_count(); ++id) {
    const auto got = sorted_boxes(model.info().at(id));
    const auto want = sorted_boxes(expected.at(id));
    if (got != want) {
      ++mismatches;
      if (mismatches <= report_limit) {
        std::string g = "{", w = "{";
        for (const auto& b : got) g += b.to_string() + " ";
        for (const auto& b : want) w += b.to_string() + " ";
        ADD_FAILURE() << "node " << mesh.coord_of(id).to_string() << ": got " << g
                      << "} want " << w << "}";
      }
    }
  }
  return mismatches;
}

void expect_converges_to_reference(const Topology& mesh,
                                   const std::vector<Coord>& faults) {
  DistributedFaultModel model(mesh);
  for (const auto& f : faults) model.inject_fault(f);
  const auto rounds = model.stabilize(20000);

  // Labeling fixpoint matches the centralized stabilization.
  const StatusField expected_field = stabilized_field(mesh, faults);
  for (NodeId id = 0; id < mesh.node_count(); ++id) {
    ASSERT_EQ(model.field().at(id), expected_field.at(id))
        << "status mismatch at " << mesh.coord_of(id).to_string();
  }

  // Information placement matches the centralized fixpoint (epoch equals the
  // model's running epoch after the injections).
  const auto blocks = block_boxes(expected_field);
  const auto placement = compute_information_placement(mesh, blocks, model.epoch());
  EXPECT_EQ(placement_mismatches(mesh, model, placement.store), 0);
  EXPECT_GT(rounds.total, 0);
}

TEST(DistributedModel, SingleBlock2D) {
  expect_converges_to_reference(MeshTopology(2, 12),
                                {Coord{4, 5}, Coord{5, 6}, Coord{4, 6}, Coord{5, 5}});
}

TEST(DistributedModel, DiagonalChain2D) {
  expect_converges_to_reference(MeshTopology(2, 12), {Coord{3, 3}, Coord{4, 4}, Coord{5, 5}});
}

TEST(DistributedModel, TwoBlocks2D) {
  expect_converges_to_reference(MeshTopology(2, 14),
                                {Coord{3, 3}, Coord{3, 4}, Coord{9, 9}, Coord{10, 9}});
}

TEST(DistributedModel, StackedBlocksMerge2D) {
  // Block A directly above wider block B: A's wall must merge onto B and
  // continue below it (Figure 3(d) geometry).
  std::vector<Coord> faults;
  for (const auto& c : box_fault_placement(MeshTopology(2, 16), Box(Coord{6, 10}, Coord{8, 11})))
    faults.push_back(c);
  for (const auto& c : box_fault_placement(MeshTopology(2, 16), Box(Coord{5, 4}, Coord{9, 6})))
    faults.push_back(c);
  expect_converges_to_reference(MeshTopology(2, 16), faults);
}

TEST(DistributedModel, Figure1Block3D) {
  const MeshTopology mesh(3, 8);
  DistributedFaultModel model(mesh);
  for (const auto& f :
       {Coord{3, 5, 4}, Coord{4, 5, 4}, Coord{5, 5, 3}, Coord{3, 6, 3}})
    model.inject_fault(f);
  model.stabilize(20000);

  // The block [3:5, 5:6, 3:4] must be identified and present at, e.g., the
  // Figure 2 corner (6,4,5).
  const Box fig1(Coord{3, 5, 3}, Coord{5, 6, 4});
  EXPECT_TRUE(model.info().holds(mesh.index_of(Coord{6, 4, 5}), fig1));
  // ... and at a wall node below the block (surface S1 ring at y=4, column
  // extended toward y=0: e.g. (2,2,3) sits on the x-side wall).
  const auto wall = wall_positions_ignoring_merges(mesh, fig1, Surface{1, true});
  ASSERT_FALSE(wall.empty());
  for (const auto& w : wall) {
    EXPECT_TRUE(model.info().holds(mesh.index_of(w), fig1))
        << "missing wall info at " << w.to_string();
  }
}

TEST(DistributedModel, ReferenceMatch3D) {
  expect_converges_to_reference(
      MeshTopology(3, 8), {Coord{3, 5, 4}, Coord{4, 5, 4}, Coord{5, 5, 3}, Coord{3, 6, 3}});
}

TEST(DistributedModel, ReferenceMatch4D) {
  const MeshTopology mesh(4, 6);
  std::vector<Coord> faults;
  Box block(Coord{2, 2, 2, 2}, Coord{3, 3, 2, 3});
  block.for_each([&](const Coord& c) { faults.push_back(c); });
  expect_converges_to_reference(mesh, faults);
}

TEST(DistributedModel, ReferenceMatchRandom) {
  Rng rng(0xD15C);
  for (int trial = 0; trial < 6; ++trial) {
    Rng t = rng.fork(static_cast<uint64_t>(trial));
    const MeshTopology mesh(2 + trial % 3, trial % 3 == 2 ? 7 : 10);
    const auto faults = clustered_fault_placement(mesh, 5 + trial, t);
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_converges_to_reference(mesh, faults);
  }
}

TEST(DistributedModel, LevelDetectionMatchesGeometry) {
  const MeshTopology mesh(3, 8);
  DistributedFaultModel model(mesh);
  for (const auto& f :
       {Coord{3, 5, 4}, Coord{4, 5, 4}, Coord{5, 5, 3}, Coord{3, 6, 3}})
    model.inject_fault(f);
  model.stabilize(20000);

  const Box fig1(Coord{3, 5, 3}, Coord{5, 6, 4});
  for (NodeId id = 0; id < mesh.node_count(); ++id) {
    const Coord c = mesh.coord_of(id);
    const int geometric =
        model.field().at(id) == NodeStatus::kEnabled ? corner_level(c, fig1) : 0;
    // The distributed entry for this block (anchor inside fig1) must exist
    // exactly when the geometry says so, with the same level.
    int found = 0;
    for (const auto& e : model.levels_at(id))
      if (fig1.contains(e.anchor)) found = e.level;
    EXPECT_EQ(found, geometric) << "at " << c.to_string();
  }
}

TEST(DistributedModel, ConvergenceRoundCountsAreReasonable) {
  // a_i is bounded by the block extent; identification (b_i) and boundary
  // (c_i) finish within a small multiple of mesh extents — the "information
  // can be distributed quickly" claim in round units.
  const MeshTopology mesh(3, 8);
  DistributedFaultModel model(mesh);
  for (const auto& f :
       {Coord{3, 5, 4}, Coord{4, 5, 4}, Coord{5, 5, 3}, Coord{3, 6, 3}})
    model.inject_fault(f);
  const auto rounds = model.stabilize(20000);
  EXPECT_GT(rounds.labeling, 0);
  EXPECT_LE(rounds.labeling, 6);
  EXPECT_GT(rounds.identification, 0);
  EXPECT_LE(rounds.total, 8 * 8 * 3) << "well under TTL";
}

TEST(DistributedModel, RecoveryShrinksAndRedistributes) {
  // Figure 4 dynamics end-to-end: recovery triggers clean propagation, the
  // old block info is deleted, the new (smaller) block is identified and
  // its information redistributed.
  const MeshTopology mesh(3, 8);
  DistributedFaultModel model(mesh);
  for (const auto& f :
       {Coord{3, 5, 4}, Coord{4, 5, 4}, Coord{5, 5, 3}, Coord{3, 6, 3}})
    model.inject_fault(f);
  model.stabilize(20000);

  model.recover(Coord{5, 5, 3});
  model.stabilize(20000);

  const StatusField expected = [&] {
    StatusField f = stabilized_field(
        mesh, {Coord{3, 5, 4}, Coord{4, 5, 4}, Coord{5, 5, 3}, Coord{3, 6, 3}});
    f.recover(Coord{5, 5, 3});
    stabilize_labeling(f, 1 << 20, {Coord{5, 5, 3}});
    return f;
  }();
  for (NodeId id = 0; id < mesh.node_count(); ++id)
    ASSERT_EQ(model.field().at(id), expected.at(id))
        << "status mismatch at " << mesh.coord_of(id).to_string();

  const auto new_blocks = block_boxes(expected);
  ASSERT_EQ(new_blocks.size(), 1u);
  EXPECT_EQ(new_blocks[0], Box(Coord{3, 5, 3}, Coord{4, 6, 4}));

  const auto placement = compute_information_placement(mesh, new_blocks, model.epoch());
  EXPECT_EQ(placement_mismatches(mesh, model, placement.store), 0);
}

TEST(DistributedModel, GrowthSupersedesOldInfo) {
  // New faults enlarge a block: the old, smaller box must disappear from
  // every store and the bigger one take its place.
  const MeshTopology mesh(2, 14);
  DistributedFaultModel model(mesh);
  model.inject_fault(Coord{6, 6});
  model.stabilize(20000);
  EXPECT_TRUE(model.info().holds(mesh.index_of(Coord{5, 5}), Box::point(Coord{6, 6})));

  model.inject_fault(Coord{7, 7});  // merges into [6:7, 6:7]
  model.stabilize(20000);

  const StatusField expected = stabilized_field(mesh, {Coord{6, 6}, Coord{7, 7}});
  const auto blocks = block_boxes(expected);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0], Box(Coord{6, 6}, Coord{7, 7}));
  const auto placement = compute_information_placement(mesh, blocks, model.epoch());
  EXPECT_EQ(placement_mismatches(mesh, model, placement.store), 0);
}

TEST(DistributedModel, FailAndRepairMidIdentificationWipesOnlyThatNode) {
  // A node that fails or comes back holds no bookkeeping; its neighbours'
  // tables are untouched by the wipe.  The victim is the node holding the
  // most entries while identification of the Figure 1 block is under way.
  const MeshTopology mesh(3, 8);
  const std::vector<Coord> fig1{Coord{3, 5, 4}, Coord{4, 5, 4}, Coord{5, 5, 3}, Coord{3, 6, 3}};
  DistributedFaultModel model(mesh);
  for (const auto& f : fig1) model.inject_fault(f);
  auto entries = [&] {
    std::vector<int> out;
    for (NodeId id = 0; id < mesh.node_count(); ++id) out.push_back(model.bookkeeping_entries(id));
    return out;
  };
  NodeId victim = -1;
  for (int round = 0; round < 500 && victim < 0; ++round) {
    model.run_round();
    if (!model.last_activity().identification) continue;
    const auto now = entries();
    const auto best = std::max_element(now.begin(), now.end());
    if (*best >= 2) victim = static_cast<NodeId>(best - now.begin());
  }
  ASSERT_GE(victim, 0) << "identification never held bookkeeping";
  ASSERT_EQ(model.field().at(victim), NodeStatus::kEnabled);

  auto expect_only_victim_wiped = [&](const std::vector<int>& before) {
    const auto after = entries();
    EXPECT_EQ(after[static_cast<size_t>(victim)], 0);
    for (NodeId id = 0; id < mesh.node_count(); ++id)
      if (id != victim) ASSERT_EQ(after[static_cast<size_t>(id)], before[static_cast<size_t>(id)]);
  };
  auto before = entries();
  model.inject_fault(mesh.coord_of(victim));
  expect_only_victim_wiped(before);
  for (int round = 0; round < 3; ++round) model.run_round();
  before = entries();
  model.recover(mesh.coord_of(victim));
  expect_only_victim_wiped(before);

  // With the node back the fault set is the original one again.
  model.stabilize(20000);
  const auto blocks = block_boxes(stabilized_field(mesh, fig1));
  const auto placement = compute_information_placement(mesh, blocks, model.epoch());
  EXPECT_EQ(placement_mismatches(mesh, model, placement.store), 0);
}

TEST(DistributedModel, NoFaultsNoActivity) {
  const MeshTopology mesh(3, 6);
  DistributedFaultModel model(mesh);
  const auto rounds = model.stabilize(100);
  EXPECT_EQ(rounds.total, 0);
  EXPECT_EQ(model.info().total_entries(), 0);
}

}  // namespace
}  // namespace lgfi
