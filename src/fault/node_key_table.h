#pragma once
// NodeKeyTable: the distributed fault model's per-node protocol bookkeeping
// (identification slice results and collector arrivals, the per-epoch launch
// log, merge- and cancel-flood dedup keys), indexed by node first.
//
// A node that fails or comes back holds no information (the paper's
// limited-global model), so every fault event wipes the node's entries from
// every table.  Entries live in one slab and each node's entries form a
// doubly linked chain behind a per-node head, so erase_node costs O(entries
// of that node) however large the table is.  Keyed lookups go through one
// open-addressing index over (node, key): a find or an insert of a present
// key is a single probe sequence.  Heads exist only for nodes that hold
// entries (a second open-addressing index finds them), so a quiescent node
// costs nothing here.
//
// Dedup semantics are exact: the full 64-bit key and the node id verbatim.
// Pointers and references into a table stay valid until its next insert or
// erase.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/mesh/topology.h"

namespace lgfi {

struct NodeKey {
  NodeId node;
  uint64_t key;
  friend bool operator==(const NodeKey& a, const NodeKey& b) {
    return a.node == b.node && a.key == b.key;
  }
};

/// Value type of a NodeKeyTable used as a set.
struct NoValue {};

template <class V>
class NodeKeyTable {
 public:
  [[nodiscard]] V* find(const NodeKey& k) {
    const uint32_t e = find_entry(k);
    return e == kNil ? nullptr : &entries_[e].value;
  }
  [[nodiscard]] const V* find(const NodeKey& k) const {
    const uint32_t e = find_entry(k);
    return e == kNil ? nullptr : &entries_[e].value;
  }
  /// Stores `value` under `k` unless `k` is present; true if it inserted.
  bool insert(const NodeKey& k, V value = V{}) {
    const auto [e, inserted] = find_or_insert(k);
    if (inserted) entries_[e].value = std::move(value);
    return inserted;
  }
  /// The value under `k`, value-initialized on first use.
  V& operator[](const NodeKey& k) { return entries_[find_or_insert(k).first].value; }

  bool erase(const NodeKey& k) {
    if (size_ == 0) return false;
    const size_t pos = probe(entry_index_, entry_hash(k.node, k.key), entry_is(k));
    if (entry_index_[pos] == 0) return false;
    const uint32_t e = entry_index_[pos] - 1;
    remove_at(entry_index_, pos, [this](uint32_t x) { return hash_of_entry(x); });
    unlink(e);
    release_entry(e);
    return true;
  }
  /// Drops every entry of `node`: O(count(node)).
  void erase_node(NodeId node) {
    if (size_ == 0) return;
    const size_t hpos = probe(head_index_, node_hash(node), head_is(node));
    if (head_index_[hpos] == 0) return;
    const uint32_t h = head_index_[hpos] - 1;
    for (uint32_t e = heads_[h].first; e != kNil;) {
      const uint32_t next = entries_[e].next;
      const size_t pos = probe(entry_index_, hash_of_entry(e), [e](uint32_t x) { return x == e; });
      remove_at(entry_index_, pos, [this](uint32_t x) { return hash_of_entry(x); });
      release_entry(e);
      e = next;
    }
    release_head(hpos);
  }
  /// Entries held by `node`.
  [[nodiscard]] int count(NodeId node) const {
    if (size_ == 0) return 0;
    const size_t hpos = probe(head_index_, node_hash(node), head_is(node));
    return head_index_[hpos] == 0 ? 0 : static_cast<int>(heads_[head_index_[hpos] - 1].count);
  }
  /// Drops every entry whose value satisfies `pred`.  The predicate sees
  /// only values and one erase never changes another entry's fate, so the
  /// outcome does not depend on the slab order the loop walks.
  template <class Pred>
  void erase_if(Pred pred) {
    for (size_t e = 0; e < entries_.size() && size_ > 0; ++e) {
      const Entry& x = entries_[e];
      if (x.node != kFree && pred(x.value)) erase(NodeKey{x.node, x.key});
    }
  }
  void clear() {
    if (entries_.empty()) return;
    entries_.clear();
    heads_.clear();
    free_entry_ = free_head_ = kNil;
    std::fill(entry_index_.begin(), entry_index_.end(), 0);
    std::fill(head_index_.begin(), head_index_.end(), 0);
    size_ = live_heads_ = 0;
  }

  [[nodiscard]] size_t size() const { return size_; }
  /// Resident bytes: the entry slab, the per-node heads and both indexes,
  /// at their allocated capacity.
  [[nodiscard]] long long memory_bytes() const {
    const size_t bytes = entries_.capacity() * sizeof(Entry) + heads_.capacity() * sizeof(Head) +
                         (entry_index_.capacity() + head_index_.capacity()) * sizeof(uint32_t);
    return static_cast<long long>(bytes);
  }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;
  static constexpr NodeId kFree = -1;  ///< node id of a slab slot on a free list
  static constexpr size_t kMinIndex = 16;

  struct Entry {
    uint64_t key = 0;
    NodeId node = kFree;
    uint32_t prev = kNil;  ///< the node's chain
    uint32_t next = kNil;  ///< the node's chain, or the free list
    [[no_unique_address]] V value{};
  };
  struct Head {
    NodeId node = kFree;
    uint32_t first = kNil;  ///< first entry, or the next free head
    uint32_t count = 0;
  };

  static uint64_t entry_hash(NodeId node, uint64_t key) {
    const uint64_t n = static_cast<uint32_t>(node);
    uint64_t h = key ^ (n * 0x9E3779B97F4A7C15ull);
    h ^= h >> 31;
    h *= 0xBF58476D1CE4E5B9ull;
    return h ^ (h >> 29);
  }
  static uint64_t node_hash(NodeId node) { return entry_hash(node, 0); }
  [[nodiscard]] uint64_t hash_of_entry(uint32_t e) const {
    return entry_hash(entries_[e].node, entries_[e].key);
  }
  [[nodiscard]] uint64_t hash_of_head(uint32_t h) const { return node_hash(heads_[h].node); }
  auto entry_is(const NodeKey& k) const {
    return [this, &k](uint32_t e) {
      return entries_[e].key == k.key && entries_[e].node == k.node;
    };
  }
  auto head_is(NodeId node) const {
    return [this, node](uint32_t h) { return heads_[h].node == node; };
  }

  // Linear probing over an index of slot numbers + 1 (0 = empty) whose
  // capacity is a power of two kept at least twice the live count.  Returns
  // the position of the matching slot, or of the empty slot ending the run.
  template <class Match>
  static size_t probe(const std::vector<uint32_t>& index, uint64_t hash, Match is_match) {
    const size_t mask = index.size() - 1;
    for (size_t pos = hash & mask;; pos = (pos + 1) & mask)
      if (index[pos] == 0 || is_match(index[pos] - 1)) return pos;
  }
  // Backward-shift deletion: later members of the run move into the hole
  // when their home position allows, so no tombstones accumulate.
  template <class HashOf>
  static void remove_at(std::vector<uint32_t>& index, size_t hole, HashOf hash_of) {
    const size_t mask = index.size() - 1;
    for (size_t pos = (hole + 1) & mask; index[pos] != 0; pos = (pos + 1) & mask) {
      const size_t home = hash_of(index[pos] - 1) & mask;
      if (((pos - home) & mask) >= ((pos - hole) & mask)) {
        index[hole] = index[pos];
        hole = pos;
      }
    }
    index[hole] = 0;
  }
  // Makes room for one more live slot.
  template <class HashOf>
  static void reserve_one(std::vector<uint32_t>& index, size_t live, HashOf hash_of) {
    if ((live + 1) * 2 <= index.size()) return;
    std::vector<uint32_t> old(std::max(kMinIndex, index.size() * 2), 0);
    old.swap(index);
    const size_t mask = index.size() - 1;
    for (const uint32_t slot : old) {
      if (slot == 0) continue;
      size_t pos = hash_of(slot - 1) & mask;
      while (index[pos] != 0) pos = (pos + 1) & mask;
      index[pos] = slot;
    }
  }

  [[nodiscard]] uint32_t find_entry(const NodeKey& k) const {
    if (size_ == 0) return kNil;
    const size_t pos = probe(entry_index_, entry_hash(k.node, k.key), entry_is(k));
    return entry_index_[pos] == 0 ? kNil : entry_index_[pos] - 1;
  }

  std::pair<uint32_t, bool> find_or_insert(const NodeKey& k) {
    reserve_one(entry_index_, size_, [this](uint32_t x) { return hash_of_entry(x); });
    const size_t pos = probe(entry_index_, entry_hash(k.node, k.key), entry_is(k));
    if (entry_index_[pos] != 0) return {entry_index_[pos] - 1, false};
    uint32_t e = free_entry_;
    if (e != kNil) {
      free_entry_ = entries_[e].next;
    } else {
      e = static_cast<uint32_t>(entries_.size());
      entries_.emplace_back();
    }
    const uint32_t h = head_of(k.node);
    Entry& x = entries_[e];
    x.key = k.key;
    x.node = k.node;
    x.prev = kNil;
    x.next = heads_[h].first;
    if (x.next != kNil) entries_[x.next].prev = e;
    heads_[h].first = e;
    ++heads_[h].count;
    entry_index_[pos] = e + 1;
    ++size_;
    return {e, true};
  }

  // The head of `node`, created empty if the node holds nothing yet.
  uint32_t head_of(NodeId node) {
    reserve_one(head_index_, live_heads_, [this](uint32_t x) { return hash_of_head(x); });
    const size_t pos = probe(head_index_, node_hash(node), head_is(node));
    if (head_index_[pos] != 0) return head_index_[pos] - 1;
    uint32_t h = free_head_;
    if (h != kNil) {
      free_head_ = heads_[h].first;
    } else {
      h = static_cast<uint32_t>(heads_.size());
      heads_.emplace_back();
    }
    heads_[h] = Head{node, kNil, 0};
    head_index_[pos] = h + 1;
    ++live_heads_;
    return h;
  }

  void release_head(size_t hpos) {
    const uint32_t h = head_index_[hpos] - 1;
    remove_at(head_index_, hpos, [this](uint32_t x) { return hash_of_head(x); });
    heads_[h] = Head{kFree, free_head_, 0};
    free_head_ = h;
    --live_heads_;
  }

  // Takes entry `e` out of its node's chain; drops the head with the last one.
  void unlink(uint32_t e) {
    const Entry& x = entries_[e];
    const size_t hpos = probe(head_index_, node_hash(x.node), head_is(x.node));
    Head& head = heads_[head_index_[hpos] - 1];
    (x.prev == kNil ? head.first : entries_[x.prev].next) = x.next;
    if (x.next != kNil) entries_[x.next].prev = x.prev;
    if (--head.count == 0) release_head(hpos);
  }

  void release_entry(uint32_t e) {
    entries_[e] = Entry{};
    entries_[e].next = free_entry_;
    free_entry_ = e;
    --size_;
  }

  std::vector<Entry> entries_;
  std::vector<Head> heads_;
  std::vector<uint32_t> entry_index_;
  std::vector<uint32_t> head_index_;
  uint32_t free_entry_ = kNil;
  uint32_t free_head_ = kNil;
  size_t size_ = 0;
  size_t live_heads_ = 0;
};

}  // namespace lgfi
