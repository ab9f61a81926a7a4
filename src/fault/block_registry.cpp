#include "src/fault/block_registry.h"

#include <algorithm>

namespace lgfi {

InfoStore::InfoStore(const Topology& mesh)
    : infos_(static_cast<size_t>(mesh.node_count())),
      provs_(static_cast<size_t>(mesh.node_count())) {}

bool InfoStore::deposit(NodeId node, const BlockInfo& info, const Provenance& prov) {
  auto& infos = infos_[static_cast<size_t>(node)];
  auto& provs = provs_[static_cast<size_t>(node)];
  for (size_t i = 0; i < infos.size(); ++i) {
    if (infos[i].box == info.box) {
      bool changed = false;
      if (info.epoch > infos[i].epoch) {
        infos[i].epoch = info.epoch;
        changed = true;
        ++version_;
      }
      // Upgrade to the stronger justification.
      if (static_cast<uint8_t>(prov.via) < static_cast<uint8_t>(provs[i].via))
        provs[i] = prov;
      return changed;
    }
  }
  infos.push_back(info);
  provs.push_back(prov);
  ++version_;
  return true;
}

bool InfoStore::cancel(NodeId node, const Box& box, uint32_t epoch) {
  auto& infos = infos_[static_cast<size_t>(node)];
  auto& provs = provs_[static_cast<size_t>(node)];
  for (size_t i = 0; i < infos.size(); ++i) {
    if (infos[i].box == box && infos[i].epoch <= epoch) {
      infos.erase(infos.begin() + static_cast<std::ptrdiff_t>(i));
      provs.erase(provs.begin() + static_cast<std::ptrdiff_t>(i));
      ++version_;
      return true;
    }
  }
  return false;
}

void InfoStore::clear_node(NodeId node) {
  auto& infos = infos_[static_cast<size_t>(node)];
  if (infos.empty()) return;
  infos.clear();
  provs_[static_cast<size_t>(node)].clear();
  ++version_;
}

void InfoStore::clear() {
  for (size_t node = 0; node < infos_.size(); ++node)
    clear_node(static_cast<NodeId>(node));
}

bool InfoStore::holds(NodeId node, const Box& box) const {
  const auto& infos = infos_[static_cast<size_t>(node)];
  return std::any_of(infos.begin(), infos.end(),
                     [&](const BlockInfo& e) { return e.box == box; });
}

std::optional<BlockInfo> InfoStore::find(NodeId node, const Box& box) const {
  for (const auto& e : infos_[static_cast<size_t>(node)])
    if (e.box == box) return e;
  return std::nullopt;
}

long long InfoStore::nodes_with_info() const {
  long long n = 0;
  for (const auto& e : infos_)
    if (!e.empty()) ++n;
  return n;
}

long long InfoStore::total_entries() const {
  long long n = 0;
  for (const auto& e : infos_) n += static_cast<long long>(e.size());
  return n;
}

long long InfoStore::memory_bytes() const {
  long long bytes = static_cast<long long>(
      infos_.capacity() * sizeof(std::vector<BlockInfo>) +
      provs_.capacity() * sizeof(std::vector<Provenance>));
  for (const auto& e : infos_) bytes += static_cast<long long>(e.capacity() * sizeof(BlockInfo));
  for (const auto& e : provs_) bytes += static_cast<long long>(e.capacity() * sizeof(Provenance));
  return bytes;
}

}  // namespace lgfi
