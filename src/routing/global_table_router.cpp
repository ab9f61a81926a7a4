#include "src/routing/global_table_router.h"

namespace lgfi {

DelayedGlobalInfoProvider::DelayedGlobalInfoProvider(const Topology& mesh)
    : mesh_(&mesh), visible_(static_cast<size_t>(mesh.node_count())) {}

void DelayedGlobalInfoProvider::publish(const std::vector<BlockInfo>& blocks,
                                        const Coord& origin, long long now) {
  pending_.push_back(Pending{blocks, origin, now});
  advance(now);
}

void DelayedGlobalInfoProvider::advance(long long now) {
  if (pending_.empty()) return;  // quiescent: nothing is spreading
  now_ = now;
  for (auto it = pending_.begin(); it != pending_.end();) {
    // Reveal the snapshot at every node the broadcast wave has reached.
    bool fully_visible = true;
    for (NodeId id = 0; id < static_cast<NodeId>(mesh_->node_count()); ++id) {
      const long long arrival =
          it->published_at + mesh_->min_hops(it->origin, mesh_->coord_of(id));
      if (arrival <= now_) {
        auto& visible = visible_[static_cast<size_t>(id)];
        if (visible != it->blocks) {
          visible = it->blocks;
          ++version_;
        }
      } else {
        fully_visible = false;
      }
    }
    it = fully_visible ? pending_.erase(it) : std::next(it);
  }
}

std::span<const BlockInfo> DelayedGlobalInfoProvider::info_at(NodeId node) const {
  return visible_[static_cast<size_t>(node)];
}

long long DelayedGlobalInfoProvider::nodes_with_info() const {
  long long n = 0;
  for (const auto& v : visible_)
    if (!v.empty()) ++n;
  return n;
}

long long DelayedGlobalInfoProvider::total_entries() const {
  long long n = 0;
  for (const auto& v : visible_) n += static_cast<long long>(v.size());
  return n;
}

FaultInfoRouter make_global_table_router() {
  FaultInfoRouterOptions opts;
  opts.name = "global-table";
  return FaultInfoRouter(std::move(opts));
}

}  // namespace lgfi
