#pragma once
// Dimension-order (e-cube) routing — the non-fault-tolerant baseline.
//
// Corrects dimension 0 completely, then dimension 1, and so on.  Minimal
// and deadlock-free in a fault-free mesh, but the moment the single allowed
// next hop is faulty or disabled the route fails.  Benches use it to show
// what fraction of routes survive without any adaptivity at all.

#include "src/routing/router.h"

namespace lgfi {

class DimensionOrderRouter final : public Router {
 public:
  /// `strict`: treat disabled nodes as blocking too (default).  Non-strict
  /// lets the probe cross disabled nodes, isolating the effect of faults
  /// proper.
  explicit DimensionOrderRouter(bool strict = true) : strict_(strict) {}

  [[nodiscard]] RouteDecision decide(const RoutingContext& ctx,
                                     const RoutingHeader& header) override;
  [[nodiscard]] std::string name() const override { return "dimension-order"; }

 private:
  bool strict_;
};

}  // namespace lgfi
