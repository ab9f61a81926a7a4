#pragma once
// Fault-information-based PCS routing (Algorithm 3).
//
//   1. If the current node u is disabled, backtrack; otherwise,
//   2. pick an unused outgoing direction with the highest priority; the
//      direction selected is recorded in the message header.
//   3. If there is no unused outgoing direction, backtrack.
//   4. If the message is backtracked to the source, the destination is
//      unreachable.
//
// The priority order is preferred > spare-along-block > spare >
// preferred-but-detour; taking the incoming direction (the paper's last
// priority) is realized as the PCS backtrack itself.  The same class also
// serves as the info-free baseline (options.policy.use_block_info = false)
// and, paired with a global provider, as the routing-table baseline.

#include <string>

#include "src/routing/direction_policy.h"
#include "src/routing/router.h"

namespace lgfi {

struct FaultInfoRouterOptions {
  DirectionPolicyOptions policy;
  std::string name = "lgfi";
};

class FaultInfoRouter final : public Router {
 public:
  explicit FaultInfoRouter(FaultInfoRouterOptions options = {});

  [[nodiscard]] RouteDecision decide(const RoutingContext& ctx,
                                     const RoutingHeader& header) override;
  [[nodiscard]] std::string name() const override { return options_.name; }

  [[nodiscard]] const FaultInfoRouterOptions& options() const { return options_; }

 private:
  FaultInfoRouterOptions options_;
};

}  // namespace lgfi
