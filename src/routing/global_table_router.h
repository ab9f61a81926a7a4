#pragma once
// Global routing-table baseline.
//
// The traditional model the paper argues against: "fault information such as
// a routing table associated with each node" — every node stores the entire
// block list.  Routing quality equals Algorithm 3 with perfect information;
// the cost shows up in the E10 memory/update experiment (N copies of
// everything, diameter-long broadcast latency after every change, oscillation
// under churn) where the limited-global placement stores a small fraction.

#include <vector>

#include "src/routing/fault_info_router.h"
#include "src/routing/router.h"

namespace lgfi {

/// Every node sees the same global block list.
class GlobalInfoProvider final : public InfoProvider {
 public:
  GlobalInfoProvider() = default;
  explicit GlobalInfoProvider(std::vector<BlockInfo> blocks) : blocks_(std::move(blocks)) {}

  /// Replaces the list; bumps version() only on a real change.
  void set_blocks(std::vector<BlockInfo> blocks) {
    if (blocks == blocks_) return;
    blocks_ = std::move(blocks);
    ++version_;
  }

  [[nodiscard]] std::span<const BlockInfo> info_at(NodeId) const override { return blocks_; }
  [[nodiscard]] uint64_t version() const override { return version_; }

 private:
  std::vector<BlockInfo> blocks_;
  uint64_t version_ = 0;
};

/// Per-node visibility with broadcast latency: an update committed at step t
/// from origin o becomes visible at node v at t + D(o, v) (one hop per
/// round, the same propagation speed the limited model gets).  Used by the
/// dynamic-comparison experiment.
class DelayedGlobalInfoProvider final : public InfoProvider {
 public:
  explicit DelayedGlobalInfoProvider(const Topology& mesh);

  /// Publishes a new global snapshot originating at `origin` at time `now`.
  void publish(const std::vector<BlockInfo>& blocks, const Coord& origin, long long now);

  /// Advances visibility to time `now`.  O(1) when no wave is in flight.
  void advance(long long now);

  /// True while a published snapshot is still spreading — only then does
  /// advance() have any work to do.
  [[nodiscard]] bool wave_in_flight() const { return !pending_.empty(); }

  [[nodiscard]] std::span<const BlockInfo> info_at(NodeId node) const override;
  /// Counts reveals that changed a node's visible list.
  [[nodiscard]] uint64_t version() const override { return version_; }

  /// Nodes holding at least one entry (memory metric).
  [[nodiscard]] long long nodes_with_info() const;
  [[nodiscard]] long long total_entries() const;

 private:
  struct Pending {
    std::vector<BlockInfo> blocks;
    Coord origin;
    long long published_at = 0;
  };

  const Topology* mesh_;
  std::vector<std::vector<BlockInfo>> visible_;  ///< per node
  std::vector<Pending> pending_;
  long long now_ = 0;
  uint64_t version_ = 0;
};

/// Algorithm 3 configured as the routing-table baseline (pair with one of
/// the providers above in the RoutingContext).
FaultInfoRouter make_global_table_router();

}  // namespace lgfi
