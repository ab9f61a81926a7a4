#include "src/routing/dimension_order_router.h"

namespace lgfi {

RouteDecision DimensionOrderRouter::decide(const RoutingContext& ctx, const RoutingHeader& header) {
  const Coord& u = header.current();
  const Coord& dest = header.destination();
  if (u == dest) return RouteDecision{RouteAction::kDelivered};

  for (int dim = 0; dim < ctx.mesh->dims(); ++dim) {
    const int sign = ctx.mesh->axis_step_sign(dim, u[dim], dest[dim]);
    if (sign == 0) continue;
    const Direction d(dim, sign > 0);
    const Coord v = ctx.mesh->step(u, d);
    const NodeStatus vs = ctx.field->at(v);
    const bool blocked =
        vs == NodeStatus::kFaulty || (strict_ && vs == NodeStatus::kDisabled) ||
        (ctx.links != nullptr && ctx.links->faulty(ctx.mesh->index_of(u), d));
    if (blocked) return RouteDecision{RouteAction::kUnreachable};
    return RouteDecision{RouteAction::kForward, d};
  }
  return RouteDecision{RouteAction::kDelivered};
}

}  // namespace lgfi
