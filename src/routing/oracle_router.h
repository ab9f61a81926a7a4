#pragma once
// Global-information oracle router (baseline).
//
// Routes along a true shortest path computed by BFS over the live nodes —
// the unattainable lower bound every fault-tolerant scheme is compared to.
// Two modes:  avoid faulty nodes only (the physical optimum — disabled nodes
// are functional processors), or avoid whole blocks (the best any algorithm
// honouring the block abstraction can do).  The gap between the two is the
// price of the block model itself, reported in E9.

#include <optional>
#include <unordered_map>
#include <vector>

#include "src/routing/router.h"

namespace lgfi {

enum class OracleAvoid : uint8_t {
  kFaultyOnly,   ///< traverse enabled and disabled nodes alike
  kBlockMembers, ///< treat disabled nodes as obstacles too
};

/// Length of the shortest path s -> d (hops), or nullopt if disconnected.
std::optional<int> oracle_path_length(const Topology& mesh, const StatusField& field,
                                      const Coord& source, const Coord& dest,
                                      OracleAvoid avoid = OracleAvoid::kBlockMembers);

class OracleRouter final : public Router {
 public:
  explicit OracleRouter(OracleAvoid avoid = OracleAvoid::kBlockMembers);

  [[nodiscard]] RouteDecision decide(const RoutingContext& ctx,
                                     const RoutingHeader& header) override;
  [[nodiscard]] std::string name() const override;

  /// Invalidate the cached BFS trees (the environment changed).  decide()
  /// also invalidates automatically via StatusField::version(), so this is
  /// only needed when swapping in a different field object.
  void set_dirty() {
    dist_by_dest_.clear();
    cached_version_ = kNoVersion;
  }

 private:
  static constexpr uint64_t kNoVersion = ~0ull;
  /// Cache-size bound: one tree is O(N) ints, so the cache tops out at
  /// 64 * N rather than the N^2 of one tree per live destination.
  static constexpr size_t kMaxCachedTrees = 64;

  OracleAvoid avoid_;
  /// BFS distance trees keyed by destination, valid for cached_version_ of
  /// the field only — the dynamic traffic engine interleaves decisions for
  /// many destinations per step, so one tree per destination (instead of
  /// one slot) keeps each decision O(1) between fault events.
  uint64_t cached_version_ = kNoVersion;
  /// Membership-only access (find/emplace/clear): eviction at
  /// kMaxCachedTrees is a wholesale clear(), never an iteration-ordered
  /// LRU walk, so routing decisions cannot depend on hash traversal order
  /// (determinism contract, DESIGN.md §16).
  std::unordered_map<Coord, std::vector<int>, CoordHash> dist_by_dest_;
};

}  // namespace lgfi
