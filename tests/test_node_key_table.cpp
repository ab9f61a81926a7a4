// NodeKeyTable (src/fault/node_key_table.h) against an ordered-map
// reference: a seeded random mix of insert, operator[], find, erase,
// erase_node, value erase_if and clear must leave the same entries, sizes
// and per-node counts after every operation.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>

#include "src/fault/node_key_table.h"
#include "src/sim/rng.h"

namespace lgfi {
namespace {

constexpr NodeId kNodes = 24;

using Reference = std::map<std::pair<NodeId, uint64_t>, int>;

void expect_agrees(const NodeKeyTable<int>& table, const Reference& ref, Rng& rng) {
  ASSERT_EQ(table.size(), ref.size());
  int counts[kNodes] = {};
  for (const auto& [k, v] : ref) {
    ++counts[k.first];
    const int* got = table.find(NodeKey{k.first, k.second});
    ASSERT_NE(got, nullptr) << "missing (" << k.first << ", " << k.second << ")";
    ASSERT_EQ(*got, v);
  }
  for (NodeId n = 0; n < kNodes; ++n) ASSERT_EQ(table.count(n), counts[n]) << "node " << n;
  // A fresh full-width key is almost surely absent; look it up either way.
  const NodeKey probe{static_cast<NodeId>(rng.next_below(kNodes)), rng.next_u64()};
  ASSERT_EQ(table.find(probe) != nullptr, ref.count({probe.node, probe.key}) == 1);
}

TEST(NodeKeyTable, MatchesOrderedMapReferenceUnderRandomOperations) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    NodeKeyTable<int> table;
    Reference ref;
    // Keys from a small pool so operations hit present entries often; the
    // same key value recurs under different nodes, and the pool mixes keys
    // that differ only in their high bits.
    auto draw = [&rng]() {
      const NodeId node = static_cast<NodeId>(rng.next_below(kNodes));
      const uint64_t k = rng.next_below(40);
      return NodeKey{node, rng.bernoulli(0.5) ? k : k << 40};
    };
    for (int op = 0; op < 6000; ++op) {
      const uint64_t kind = rng.next_below(100);
      if (kind < 35) {
        const NodeKey k = draw();
        const int v = static_cast<int>(rng.next_below(1000));
        const bool fresh = ref.emplace(std::make_pair(k.node, k.key), v).second;
        ASSERT_EQ(table.insert(k, v), fresh);
      } else if (kind < 55) {
        const NodeKey k = draw();
        int& got = table[k];
        int& want = ref[{k.node, k.key}];
        ASSERT_EQ(got, want);
        got = want = static_cast<int>(rng.next_below(1000));
      } else if (kind < 75) {
        const NodeKey k = draw();
        ASSERT_EQ(table.erase(k), ref.erase({k.node, k.key}) == 1);
      } else if (kind < 88) {
        const NodeKey k = draw();
        const auto it = ref.find({k.node, k.key});
        const int* got = table.find(k);
        ASSERT_EQ(got != nullptr, it != ref.end());
        if (got != nullptr) ASSERT_EQ(*got, it->second);
      } else if (kind < 95) {
        const NodeId node = static_cast<NodeId>(rng.next_below(kNodes));
        table.erase_node(node);
        std::erase_if(ref, [node](const auto& kv) { return kv.first.first == node; });
      } else if (kind < 99) {
        const int mod = static_cast<int>(rng.next_below(3)) + 2;
        const auto pred = [mod](int v) { return v % mod == 0; };
        table.erase_if(pred);
        std::erase_if(ref, [&](const auto& kv) { return pred(kv.second); });
      } else {
        table.clear();
        ref.clear();
      }
      expect_agrees(table, ref, rng);
      if (testing::Test::HasFatalFailure()) {
        ADD_FAILURE() << "seed " << seed << " op " << op << " kind " << kind;
        return;
      }
    }
  }
}

TEST(NodeKeyTable, SetKeepsFullKeyAndNodeIdentity) {
  NodeKeyTable<NoValue> seen;
  EXPECT_TRUE(seen.insert(NodeKey{3, 7}));
  EXPECT_FALSE(seen.insert(NodeKey{3, 7}));
  EXPECT_TRUE(seen.insert(NodeKey{4, 7}));  // same key, other node
  EXPECT_TRUE(seen.insert(NodeKey{3, 7 | (uint64_t{1} << 63)}));
  EXPECT_EQ(seen.count(3), 2);
  EXPECT_EQ(seen.count(4), 1);
  seen.erase_node(3);
  EXPECT_EQ(seen.count(3), 0);
  EXPECT_EQ(seen.size(), 1u);
  EXPECT_NE(seen.find(NodeKey{4, 7}), nullptr);
  EXPECT_TRUE(seen.insert(NodeKey{3, 7}));  // a wiped node starts over
}

}  // namespace
}  // namespace lgfi
