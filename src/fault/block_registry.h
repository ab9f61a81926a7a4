#pragma once
// Block information records and the per-node information store.
//
// The "limited global information" of the paper is block information —
// the block's box — replicated at a *limited* set of nodes: the block's
// envelope (Algorithm 2 step 4) and the boundary walls (Definition 3).
// InfoStore is that per-node storage; the memory-overhead experiment (E10)
// reports its footprint against the every-node-stores-everything baseline.
//
// Each entry carries its *provenance* — how the deposit was justified:
// being on the block's envelope, sitting on one of its boundary walls, or
// having been merged onto another block's envelope (Definition 3's merge
// rule).  Provenance is what makes the deletion process complete: when a
// carrier block is cancelled, every entry it was carrying is swept with it
// and its continuation walls are retraced (see boundary_protocol.cpp).

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/mesh/box.h"
#include "src/mesh/topology.h"

namespace lgfi {

/// One piece of block information as distributed through the network.
struct BlockInfo {
  Box box;             ///< the faulty block [lo_1:hi_1, ..., lo_n:hi_n]
  uint32_t epoch = 0;  ///< construction epoch; newer epochs supersede older

  friend bool operator==(const BlockInfo& a, const BlockInfo& b) {
    return a.box == b.box && a.epoch == b.epoch;
  }
};

/// Why a node stores an entry.  Ordered by justification strength: an
/// envelope deposit is locally re-validatable, a wall deposit is justified
/// by the block alone, a merged deposit additionally depends on the carrier.
enum class InfoVia : uint8_t {
  kEnvelope = 0,
  kWall = 1,
  kMerged = 2,
};

struct Provenance {
  InfoVia via = InfoVia::kEnvelope;
  Box carrier;          ///< kMerged: the block whose envelope carries this
  int8_t dim = -1;      ///< kWall/kMerged: the guarded surface dimension
  int8_t positive = 0;  ///< kWall/kMerged: the guarded surface side
};

/// Per-node replicated block information for a whole mesh.
class InfoStore {
 public:
  explicit InfoStore(const Topology& mesh);

  /// Adds (or refreshes) `info` at `node`.  Returns true if the store
  /// changed (new box, or newer epoch for an existing box).  A repeated
  /// deposit upgrades the provenance if the new justification is stronger
  /// (kEnvelope > kWall > kMerged).
  bool deposit(NodeId node, const BlockInfo& info, const Provenance& prov = {});

  /// Removes the entry with `box` (any epoch <= `epoch`).  Returns true if
  /// something was removed.
  bool cancel(NodeId node, const Box& box, uint32_t epoch);

  /// Removes everything stored at `node`.
  void clear_node(NodeId node);
  void clear();

  [[nodiscard]] std::span<const BlockInfo> at(NodeId node) const {
    return infos_[static_cast<size_t>(node)];
  }
  [[nodiscard]] std::span<const Provenance> provenance_at(NodeId node) const {
    return provs_[static_cast<size_t>(node)];
  }
  [[nodiscard]] bool holds(NodeId node, const Box& box) const;
  [[nodiscard]] std::optional<BlockInfo> find(NodeId node, const Box& box) const;

  /// Number of nodes storing at least one entry — the paper's "memory
  /// requirement ... in the whole network" metric.
  [[nodiscard]] long long nodes_with_info() const;

  /// Total entries across all nodes.
  [[nodiscard]] long long total_entries() const;

  /// Estimated resident bytes (per-node vector headers + retained entry
  /// capacity).  O(N) — bench/reporting use only.
  [[nodiscard]] long long memory_bytes() const;

  /// Monotone counter of real changes to the stored block infos (deposits
  /// of a new box or newer epoch, cancels, clears of non-empty nodes);
  /// provenance-only upgrades do not count, since routing never reads them.
  [[nodiscard]] uint64_t version() const { return version_; }

 private:
  // Parallel per-node vectors (infos_ stays contiguous for InfoProvider).
  std::vector<std::vector<BlockInfo>> infos_;
  std::vector<std::vector<Provenance>> provs_;
  uint64_t version_ = 0;
};

}  // namespace lgfi
