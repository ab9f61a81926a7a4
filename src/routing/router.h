#pragma once
// Router interfaces shared by Algorithm 3 and the baseline routers.
//
// A router is a *decision policy*: given the message's header (destination,
// path stack with per-node used-direction sets) and the node-local view
// (statuses of self and neighbours, locally stored block information), it
// picks the next action.  Execution — moving the header one hop per step,
// under a static or dynamic fault environment — lives in route_walker.h and
// core/dynamic_simulation.h, so the same policies run in both worlds.

#include <span>
#include <string>

#include "src/fault/block_registry.h"
#include "src/fault/node_status.h"
#include "src/mesh/link_fault_mask.h"
#include "src/routing/routing_header.h"

namespace lgfi {

/// Where a node's block information comes from.  The paper's model stores it
/// at envelope/boundary nodes only; the global-table baseline hands every
/// node the full list.
class InfoProvider {
 public:
  virtual ~InfoProvider() = default;
  /// Block infos visible at `node` right now.
  [[nodiscard]] virtual std::span<const BlockInfo> info_at(NodeId node) const = 0;
  /// Monotone change counter: strictly increases whenever info_at() changes
  /// at any node (same contract as StatusField::version()).
  [[nodiscard]] virtual uint64_t version() const = 0;
};

/// Trivial provider: nobody knows anything (the info-free PCS baseline).
class EmptyInfoProvider final : public InfoProvider {
 public:
  [[nodiscard]] std::span<const BlockInfo> info_at(NodeId) const override { return {}; }
  [[nodiscard]] uint64_t version() const override { return 0; }
};

/// Wraps an InfoStore (the paper's limited-global placement).
class StoreInfoProvider final : public InfoProvider {
 public:
  explicit StoreInfoProvider(const InfoStore& store) : store_(&store) {}
  [[nodiscard]] std::span<const BlockInfo> info_at(NodeId node) const override {
    return store_->at(node);
  }
  [[nodiscard]] uint64_t version() const override { return store_->version(); }

 private:
  const InfoStore* store_;
};

/// The node-local view a routing decision may consult.
struct RoutingContext {
  const Topology* mesh = nullptr;
  const StatusField* field = nullptr;
  const InfoProvider* info = nullptr;
  /// Directed-channel fault state (DESIGN.md §17), or null when the
  /// environment has no link-fault notion — routers treat null as all-clear.
  const LinkFaultMask* links = nullptr;
};

enum class RouteAction : uint8_t {
  kForward,      ///< move one hop along `direction`
  kBacktrack,    ///< pop the path stack (PCS backtracking)
  kDelivered,    ///< current node is the destination
  kUnreachable,  ///< backtracked to the source with nothing left (step 4)
};

struct RouteDecision {
  RouteAction action = RouteAction::kUnreachable;
  Direction direction = Direction::none();
  /// True when the chosen direction was a preferred-but-detour direction —
  /// the message knowingly leaves the minimal box (critical routing).
  bool detour_preferred = false;
};

class Router {
 public:
  virtual ~Router() = default;

  /// One routing decision at the header's current node: a pure function of
  /// the header and the node-local view.  The caller applies the move (the
  /// header records used directions then), so a caller may memoize the
  /// result until RoutingHeader::version() or the view's versions change
  /// (DESIGN.md §8).  A router may keep caches of its own, but no result may
  /// depend on them.
  [[nodiscard]] virtual RouteDecision decide(const RoutingContext& ctx,
                                             const RoutingHeader& header) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace lgfi
