#include "core/commitment_log.hpp"

namespace lo::core {

CommitmentLog::CommitmentLog(NodeId self, const CommitmentParams& params,
                             std::uint32_t shard)
    : self_(self),
      params_(params),
      shard_(shard),
      clock_(params.clock_cells, params.clock_hashes),
      sketch_(params.sketch_bits, params.sketch_capacity) {}

std::vector<TxId> CommitmentLog::append(std::span<const TxId> txids,
                                        NodeId source) {
  std::vector<TxId> appended;
  appended.reserve(txids.size());
  for (const auto& id : txids) {
    if (!members_.insert(id).second) continue;
    order_.push_back(id);
    positions_.emplace(id, order_.size() - 1);
    const std::uint64_t raw = txid_short(id);
    short_index_.emplace(raw, id);
    clock_.add(raw);
    // add() returns the mapped field element: one map_nonzero per append.
    elem_index_.emplace(sketch_.add(raw), id);
    // Chain hash binds position: h_n = SHA-256(h_{n-1} || txid).
    crypto::Sha256 h;
    h.update(std::span<const std::uint8_t>(chain_hash_.data(), chain_hash_.size()));
    h.update(std::span<const std::uint8_t>(id.data(), id.size()));
    chain_hash_ = h.finalize();
    appended.push_back(id);
  }
  if (!appended.empty()) {
    ++seqno_;
    bundles_.push_back(Bundle{seqno_, source, appended});
    minted_.clear();
  }
  return appended;
}

CommitmentHeader CommitmentLog::make_header(const crypto::Signer& signer,
                                            std::size_t wire_capacity) const {
  CommitmentHeader h(params_);
  h.node = self_;
  h.shard = shard_;
  h.seqno = seqno_;
  h.count = order_.size();
  h.chain_hash = chain_hash_;
  h.clock = clock_;
  h.sketch = wire_capacity >= sketch_.capacity() ? sketch_
                                                 : sketch_.truncated(wire_capacity);
  h.key = signer.public_key();
  const std::size_t cap = h.sketch.capacity();
  for (const auto& m : minted_) {
    if (m.wire_capacity == cap && m.mode == signer.mode() && m.key == h.key) {
      h.sig = m.sig;
      return h;
    }
  }
  auto msg = h.signing_bytes();
  h.sig = signer.sign(std::span<const std::uint8_t>(msg.data(), msg.size()));
  minted_.push_back(MintedSig{h.key, signer.mode(), cap, h.sig});
  return h;
}

std::optional<TxId> CommitmentLog::resolve_short(std::uint64_t raw) const {
  auto it = short_index_.find(raw);
  if (it == short_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<TxId> CommitmentLog::resolve_element(std::uint64_t element) const {
  auto it = elem_index_.find(element);
  if (it == elem_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::size_t> CommitmentLog::position_of(const TxId& id) const {
  auto it = positions_.find(id);
  if (it == positions_.end()) return std::nullopt;
  return it->second;
}

std::vector<TxId> CommitmentLog::ids_after(std::size_t from_position) const {
  if (from_position >= order_.size()) return {};
  return {order_.begin() + static_cast<std::ptrdiff_t>(from_position),
          order_.end()};
}

const CommitmentLog::Bundle* CommitmentLog::bundle_by_seqno(
    std::uint64_t seqno) const {
  if (seqno == 0 || seqno > bundles_.size()) return nullptr;
  // Bundles are created with consecutive seqnos starting at 1.
  const Bundle& b = bundles_[seqno - 1];
  return b.seqno == seqno ? &b : nullptr;
}

std::size_t CommitmentLog::memory_bytes() const noexcept {
  std::size_t sum = order_.size() * sizeof(TxId);
  sum += short_index_.size() * (sizeof(std::uint64_t) + sizeof(TxId));
  sum += elem_index_.size() * (sizeof(std::uint64_t) + sizeof(TxId));
  sum += positions_.size() * (sizeof(TxId) + sizeof(std::size_t));
  sum += members_.size() * sizeof(TxId);
  for (const auto& b : bundles_) {
    sum += sizeof(Bundle) + b.txids.size() * sizeof(TxId);
  }
  sum += clock_.serialized_size();
  sum += sketch_.serialized_size();
  return sum;
}

}  // namespace lo::core
