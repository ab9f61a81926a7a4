#include "src/sim/link_arbiter.h"

namespace lgfi {

LinkArbiter::LinkArbiter(const Topology& mesh)
    : dirs_(mesh.direction_count()),
      cursor_(static_cast<size_t>(mesh.node_count()) * static_cast<size_t>(dirs_), 0),
      first_ticket_(cursor_.size(), -1) {}

void LinkArbiter::begin_step() {
  request_channel_.clear();
  granted_.clear();
  stalled_this_step_ = 0;
}

int LinkArbiter::request(NodeId from, Direction dir) {
  const int ticket = static_cast<int>(request_channel_.size());
  request_channel_.push_back(static_cast<int32_t>(channel_of(from, dir)));
  granted_.push_back(0);
  return ticket;
}

void LinkArbiter::arbitrate() {
  const size_t n = request_channel_.size();
  if (n == 0) return;

  // Group tickets by channel without sorting: prepending tickets in reverse
  // submission order leaves each channel's list in submission order.  Only
  // the channels requested this step are touched, and every list head is
  // reset to -1 below, so the O(channels) head array is never rescanned.
  next_ticket_.resize(n);
  touched_.clear();
  for (size_t t = n; t-- > 0;) {
    const auto channel = static_cast<size_t>(request_channel_[t]);
    int32_t& first = first_ticket_[channel];
    if (first < 0) touched_.push_back(static_cast<int32_t>(channel));
    next_ticket_[t] = first;
    first = static_cast<int32_t>(t);
  }

  // Channels resolve independently (each owns its cursor and its tickets),
  // so the order they are visited in cannot change any outcome.
  for (const int32_t channel : touched_) {
    const int32_t first = first_ticket_[static_cast<size_t>(channel)];
    first_ticket_[static_cast<size_t>(channel)] = -1;
    long long contenders = 0;
    for (int32_t t = first; t >= 0; t = next_ticket_[static_cast<size_t>(t)]) ++contenders;
    // A link-faulted channel grants nobody: all contenders stall, and the
    // cursor does not move so the rotation resumes intact after repair.
    if (links_ != nullptr && links_->any() &&
        links_->faulty(static_cast<NodeId>(channel / dirs_),
                       Direction::from_index(channel % dirs_))) {
      stalled_this_step_ += contenders;
      continue;
    }
    uint32_t& cursor = cursor_[static_cast<size_t>(channel)];
    int32_t winner = first;
    for (long long k = cursor % contenders; k > 0; --k)
      winner = next_ticket_[static_cast<size_t>(winner)];
    granted_[static_cast<size_t>(winner)] = 1;
    if (contenders > 1) {
      ++cursor;
      stalled_this_step_ += contenders - 1;
    }
  }
  total_stalled_ += stalled_this_step_;
}

}  // namespace lgfi
