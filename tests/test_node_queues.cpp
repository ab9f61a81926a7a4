// NodeQueues (src/sim/node_queues.h) against the per-node vector FIFOs and
// 0..N scan it replaced: a seeded random mix of push and remove over node
// counts on and off 64-bit word boundaries must leave the same (node, id)
// visit order after every operation.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/sim/node_queues.h"
#include "src/sim/rng.h"

namespace lgfi {
namespace {

using Visits = std::vector<std::pair<NodeId, int>>;

Visits reference_visits(const std::vector<std::vector<int>>& fifo) {
  Visits out;
  for (size_t node = 0; node < fifo.size(); ++node)
    for (const int id : fifo[node]) out.emplace_back(static_cast<NodeId>(node), id);
  return out;
}

Visits queue_visits(const NodeQueues& q) {
  Visits out;
  q.for_each([&](NodeId node, int id) { out.emplace_back(node, id); });
  return out;
}

TEST(NodeQueues, MatchesFullScanReferenceUnderRandomOperations) {
  for (const NodeId nodes : {1, 63, 64, 65, 130, 200}) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("nodes=" + std::to_string(nodes) + " seed=" + std::to_string(seed));
      Rng rng(seed * 1000 + static_cast<uint64_t>(nodes));
      NodeQueues queues(nodes);
      std::vector<std::vector<int>> ref(static_cast<size_t>(nodes));
      Visits resident;  // (node, id) of every queued packet, for removals
      int next_id = 0;
      for (int op = 0; op < 3000; ++op) {
        // Pushes outnumber removals early so queues grow several deep, then
        // removals catch up so nodes empty and refill.
        const bool push = resident.empty() || rng.bernoulli(op < 1500 ? 0.65 : 0.4);
        if (push) {
          // Cluster pushes on a few nodes half the time: deep FIFOs.
          const auto bound = static_cast<uint64_t>(rng.bernoulli(0.5) ? std::min(nodes, 3) : nodes);
          const auto node = static_cast<NodeId>(rng.next_below(bound));
          queues.push(node, next_id);
          ref[static_cast<size_t>(node)].push_back(next_id);
          resident.emplace_back(node, next_id);
          ++next_id;
        } else {
          const size_t k = static_cast<size_t>(rng.next_below(resident.size()));
          const auto [node, id] = resident[k];
          resident[k] = resident.back();
          resident.pop_back();
          queues.remove(node, id);
          auto& q = ref[static_cast<size_t>(node)];
          q.erase(std::find(q.begin(), q.end(), id));
        }
        ASSERT_EQ(queue_visits(queues), reference_visits(ref)) << "after op " << op;
        ASSERT_NO_THROW(queues.validate());
      }
    }
  }
}

}  // namespace
}  // namespace lgfi
