#include "src/routing/oracle_router.h"

#include <queue>

namespace lgfi {

namespace {

bool traversable(const StatusField& field, NodeId id, OracleAvoid avoid) {
  const NodeStatus s = field.at(id);
  if (s == NodeStatus::kFaulty) return false;
  if (avoid == OracleAvoid::kBlockMembers && s == NodeStatus::kDisabled) return false;
  return true;
}

std::vector<int> bfs_from(const Topology& mesh, const StatusField& field, const Coord& from,
                          OracleAvoid avoid, const LinkFaultMask* links) {
  std::vector<int> dist(static_cast<size_t>(mesh.node_count()), -1);
  const NodeId start = mesh.index_of(from);
  if (!traversable(field, start, avoid)) return dist;
  std::queue<NodeId> q;
  dist[static_cast<size_t>(start)] = 0;
  q.push(start);
  while (!q.empty()) {
    const NodeId cur = q.front();
    q.pop();
    mesh.for_each_neighbor(mesh.coord_of(cur), [&](Direction d, const Coord& nb) {
      const NodeId nid = mesh.index_of(nb);
      if (dist[static_cast<size_t>(nid)] >= 0 || !traversable(field, nid, avoid)) return;
      // The tree is rooted at the *destination*: a message at nb moves
      // toward cur via d.opposite(), so that is the directed channel whose
      // health gates this edge.
      if (links != nullptr && links->faulty(nid, d.opposite())) return;
      dist[static_cast<size_t>(nid)] = dist[static_cast<size_t>(cur)] + 1;
      q.push(nid);
    });
  }
  return dist;
}

}  // namespace

std::optional<int> oracle_path_length(const Topology& mesh, const StatusField& field,
                                      const Coord& source, const Coord& dest,
                                      OracleAvoid avoid) {
  const auto dist = bfs_from(mesh, field, dest, avoid, nullptr);
  const int d = dist[static_cast<size_t>(mesh.index_of(source))];
  if (d < 0) return std::nullopt;
  return d;
}

OracleRouter::OracleRouter(OracleAvoid avoid) : avoid_(avoid) {}

std::string OracleRouter::name() const {
  return avoid_ == OracleAvoid::kFaultyOnly ? "oracle-faulty-only" : "oracle-blocks";
}

RouteDecision OracleRouter::decide(const RoutingContext& ctx, const RoutingHeader& header) {
  const Coord& u = header.current();
  if (u == header.destination()) return RouteDecision{RouteAction::kDelivered};

  // Every fault/recovery bumps the field version, and every link change
  // bumps the mask version; the sum of the two monotone counters strictly
  // increases on any change, so it is a sound combined cache key.  A stale
  // oracle would contradict its whole premise (it IS the instantly-informed
  // baseline).
  const uint64_t version =
      ctx.field->version() + (ctx.links != nullptr ? ctx.links->version() : 0);
  if (version != cached_version_) {
    dist_by_dest_.clear();
    cached_version_ = version;
  }
  auto it = dist_by_dest_.find(header.destination());
  if (it == dist_by_dest_.end()) {
    // Bound the cache: many-destination traffic on a big mesh would
    // otherwise hold one O(N) tree per destination (O(N^2) memory per
    // replication).  Wholesale clearing keeps eviction deterministic.
    if (dist_by_dest_.size() >= kMaxCachedTrees) dist_by_dest_.clear();
    it = dist_by_dest_
             .emplace(header.destination(),
                      bfs_from(*ctx.mesh, *ctx.field, header.destination(), avoid_, ctx.links))
             .first;
  }
  const std::vector<int>& dist = it->second;

  const int du = dist[static_cast<size_t>(ctx.mesh->index_of(u))];
  if (du < 0) return RouteDecision{RouteAction::kUnreachable};

  RouteDecision best{RouteAction::kUnreachable};
  ctx.mesh->for_each_neighbor(u, [&](Direction d, const Coord& nb) {
    if (best.action == RouteAction::kForward) return;
    if (ctx.links != nullptr && ctx.links->faulty(ctx.mesh->index_of(u), d)) return;
    const int dn = dist[static_cast<size_t>(ctx.mesh->index_of(nb))];
    if (dn >= 0 && dn == du - 1) best = RouteDecision{RouteAction::kForward, d};
  });
  return best;
}

}  // namespace lgfi
