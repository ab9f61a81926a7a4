#include "src/routing/direction_policy.h"

#include <cassert>

#include "src/fault/boundary_model.h"

namespace lgfi {

const char* to_string(DirectionClass c) {
  switch (c) {
    case DirectionClass::kPreferred: return "preferred";
    case DirectionClass::kSpareAlongBlock: return "spare-along-block";
    case DirectionClass::kSpare: return "spare";
    case DirectionClass::kPreferredDetour: return "preferred-but-detour";
    case DirectionClass::kExcluded: return "excluded";
  }
  return "?";
}

namespace {

/// Dimensions (other than dir.dim()) in which u touches a block member.
bool along_block(const RoutingContext& ctx, const Coord& u, Direction dir) {
  bool along = false;
  ctx.mesh->for_each_neighbor(u, [&](Direction m, const Coord& nb) {
    if (m.dim() == dir.dim()) return;
    if (is_block_member(ctx.field->at(nb))) along = true;
  });
  return along;
}

}  // namespace

DirectionClass classify_direction(const RoutingContext& ctx, const Coord& u, const Coord& dest,
                                  Direction dir, const DirectionSet& used,
                                  const DirectionPolicyOptions& opts) {
  assert(ctx.mesh != nullptr && ctx.field != nullptr);
  if (used.contains(dir)) return DirectionClass::kExcluded;
  if (!ctx.mesh->has_neighbor(u, dir)) return DirectionClass::kExcluded;
  // A link-faulted outgoing channel is as unusable as a missing one; unlike
  // a faulty neighbour it never enters block labeling (DESIGN.md §17).
  if (ctx.links != nullptr && ctx.links->faulty(ctx.mesh->index_of(u), dir))
    return DirectionClass::kExcluded;

  const Coord v = ctx.mesh->step(u, dir);
  const NodeStatus vs = ctx.field->at(v);
  if (opts.avoid_faulty_neighbors && vs == NodeStatus::kFaulty) return DirectionClass::kExcluded;
  if (opts.avoid_disabled_neighbors && vs == NodeStatus::kDisabled)
    return DirectionClass::kExcluded;

  const bool preferred = ctx.mesh->axis_distance(dir.dim(), v[dir.dim()], dest[dir.dim()]) <
                         ctx.mesh->axis_distance(dir.dim(), u[dir.dim()], dest[dir.dim()]);
  if (preferred) {
    if (opts.use_block_info && ctx.info != nullptr) {
      for (const BlockInfo& b : ctx.info->info_at(ctx.mesh->index_of(u))) {
        if (block_cuts_all_minimal_paths(b.box, v, dest))
          return DirectionClass::kPreferredDetour;
      }
    }
    return DirectionClass::kPreferred;
  }
  return along_block(ctx, u, dir) ? DirectionClass::kSpareAlongBlock : DirectionClass::kSpare;
}

ClassifiedDirection best_candidate(const RoutingContext& ctx, const Coord& u, const Coord& dest,
                                   const DirectionSet& used, Direction incoming,
                                   const DirectionPolicyOptions& opts) {
  // The reverse of the arrival move is the paper's lowest-priority "incoming
  // direction": taking it is the backtrack, handled by the router.
  const Direction return_dir = incoming.is_none() ? Direction::none() : incoming.opposite();

  ClassifiedDirection best;  // kExcluded until a usable direction appears
  for (int i = 0; i < ctx.mesh->direction_count(); ++i) {
    const Direction d = Direction::from_index(i);
    if (!return_dir.is_none() && d == return_dir) continue;
    const DirectionClass cls = classify_direction(ctx, u, dest, d, used, opts);
    if (cls < best.cls) {
      best = ClassifiedDirection{d, cls};
      if (cls == DirectionClass::kPreferred) break;
    }
  }
  return best;
}

}  // namespace lgfi
