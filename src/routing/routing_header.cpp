#include "src/routing/routing_header.h"

#include <cassert>

namespace lgfi {

RoutingHeader::RoutingHeader(const Coord& source, const Coord& destination)
    : destination_(destination) {
  path_.push_back(PathEntry{source, Direction::none(), {}});
}

void RoutingHeader::forward(Direction d) { forward(d, d.apply(path_.back().node)); }

void RoutingHeader::forward(Direction d, const Coord& next) {
  assert(!d.is_none());
  path_.back().used.insert(d);
  PathEntry entry{next, d, {}};
  if (persistent_marks_) {
    // Record the mark globally and hand the next node its accumulated set.
    marks_[path_.back().node].insert(d);
    const auto it = marks_.find(next);
    if (it != marks_.end()) entry.used = it->second;
  }
  path_.push_back(std::move(entry));
  ++forward_steps_;
  ++version_;
}

void RoutingHeader::backtrack() {
  assert(!at_source());
  path_.pop_back();
  if (persistent_marks_ && !path_.empty()) {
    // A deeper duplicate entry of this node may have gone stale while the
    // path looped through it; resync from the authoritative map.
    const auto it = marks_.find(path_.back().node);
    if (it != marks_.end()) path_.back().used = it->second;
  }
  ++backtrack_steps_;
  ++version_;
}

void RoutingHeader::unmark(Direction d) {
  assert(!d.is_none());
  path_.back().used.erase(d);
  if (persistent_marks_) {
    const auto it = marks_.find(path_.back().node);
    if (it != marks_.end()) it->second.erase(d);
  }
  ++version_;
}

void RoutingHeader::enable_persistent_marks() { persistent_marks_ = true; }

}  // namespace lgfi
