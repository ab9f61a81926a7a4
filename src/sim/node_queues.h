#pragma once
// Per-node FIFOs of resident packet ids: the advance-phase service order of
// the arbitrated switching models (DESIGN.md §8, §10).
//
// The service order is nodes ascending, each node's FIFO in arrival order;
// it is also the order requests reach the LinkArbiter, so it fixes every
// round-robin grant.  A 0..N scan pays O(N) per step even when two packets
// are in flight, so an occupancy bitmap (one bit per node, set iff its FIFO
// is non-empty) lets for_each visit only occupied nodes, word by word via
// count-trailing-zeros: O(N/64 + resident packets) per step, in exactly the
// scan order.
//
// for_each's callback must not push or remove: models defer FIFO changes
// the decision loop causes until it returns (debug builds assert this).

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/mesh/topology.h"

namespace lgfi {

class NodeQueues {
 public:
  explicit NodeQueues(NodeId node_count = 0)
      : fifo_(static_cast<size_t>(node_count)),
        occupied_((static_cast<size_t>(node_count) + 63) / 64, 0) {}

  /// The packets resident at `node`, in arrival order.
  [[nodiscard]] const std::vector<int>& at(NodeId node) const {
    return fifo_[static_cast<size_t>(node)];
  }

  /// Appends `id` to `node`'s FIFO.
  void push(NodeId node, int id) {
    assert(!iterating_ && "NodeQueues changed inside for_each");
    auto& q = fifo_[static_cast<size_t>(node)];
    if (q.empty()) occupied_[word(node)] |= bit(node);
    q.push_back(id);
  }

  /// Removes `id`, which must be resident at `node`, keeping the order of
  /// the rest.
  void remove(NodeId node, int id) {
    assert(!iterating_ && "NodeQueues changed inside for_each");
    auto& q = fifo_[static_cast<size_t>(node)];
    const auto it = std::find(q.begin(), q.end(), id);
    assert(it != q.end());
    q.erase(it);
    if (q.empty()) occupied_[word(node)] &= ~bit(node);
  }

  /// Calls fn(node, id) for every resident packet: nodes ascending, each
  /// node's FIFO in arrival order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
#ifndef NDEBUG
    const IterationMark mark(iterating_);
#endif
    for (size_t w = 0; w < occupied_.size(); ++w) {
      for (uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
        const auto node = static_cast<NodeId>(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
        for (const int id : fifo_[static_cast<size_t>(node)]) fn(node, id);
      }
    }
  }

  /// Checks that a node's occupancy bit is set exactly when its FIFO is
  /// non-empty; throws std::logic_error otherwise.
  void validate() const {
    for (NodeId node = 0; node < static_cast<NodeId>(fifo_.size()); ++node) {
      const bool set = (occupied_[word(node)] & bit(node)) != 0;
      if (set == at(node).empty())
        throw std::logic_error("node queues: occupancy bit disagrees with fifo of node " +
                               std::to_string(node));
    }
    const size_t tail = fifo_.size() % 64;
    if (tail != 0 && (occupied_.back() >> tail) != 0)
      throw std::logic_error("node queues: occupancy bit set beyond the last node");
  }

 private:
  static size_t word(NodeId node) { return static_cast<size_t>(node) / 64; }
  static uint64_t bit(NodeId node) { return uint64_t{1} << (static_cast<size_t>(node) % 64); }

#ifndef NDEBUG
  /// Marks a for_each in progress, also when the callback throws.
  struct IterationMark {
    explicit IterationMark(bool& flag) : flag_(flag) { flag_ = true; }
    ~IterationMark() { flag_ = false; }
    IterationMark(const IterationMark&) = delete;
    IterationMark& operator=(const IterationMark&) = delete;
    bool& flag_;
  };
  mutable bool iterating_ = false;
#endif

  std::vector<std::vector<int>> fifo_;
  std::vector<uint64_t> occupied_;  ///< bit (node % 64) of word node / 64
};

}  // namespace lgfi
