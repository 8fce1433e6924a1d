#include "sim/bandwidth.hpp"

namespace lo::sim {

void BandwidthAccountant::reset(std::size_t node_count) {
  per_node_bytes_.assign(node_count, 0);
  by_class_.clear();
  total_bytes_ = 0;
  total_messages_ = 0;
}

void BandwidthAccountant::ensure_nodes(std::size_t node_count) {
  if (per_node_bytes_.size() < node_count) per_node_bytes_.resize(node_count, 0);
}

void BandwidthAccountant::record(std::uint32_t from, const char* msg_class,
                                 std::size_t bytes) {
  if (from < per_node_bytes_.size()) per_node_bytes_[from] += bytes;
  auto& cls = by_class_[msg_class];
  cls.messages += 1;
  cls.bytes += bytes;
  total_bytes_ += bytes;
  total_messages_ += 1;
}

std::uint64_t BandwidthAccountant::sent_by(std::uint32_t node) const {
  return node < per_node_bytes_.size() ? per_node_bytes_[node] : 0;
}

std::uint64_t BandwidthAccountant::bytes_excluding(
    const std::vector<std::string>& excluded) const {
  std::uint64_t sum = 0;
  for (const auto& [name, stats] : by_class_) {
    bool skip = false;
    for (const auto& e : excluded) {
      if (name == e) {
        skip = true;
        break;
      }
    }
    if (!skip) sum += stats.bytes;
  }
  return sum;
}

}  // namespace lo::sim
