// The append-only commitment log — "Inclusion of All Transactions" and
// "Transaction Selection in Received Order" (Table 1, Sec. 4.1).
//
// Every valid transaction id a miner encounters is appended exactly once, in
// reception order, grouped into *bundles*: one bundle per reconciliation
// exchange (or per locally created batch). Bundle boundaries define the
// partial order that block building must respect (Sec. 4.3); the seqno
// increments per bundle and links commitments to block segments.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/commitment.hpp"
#include "core/types.hpp"
#include "crypto/keys.hpp"

namespace lo::core {

class CommitmentLog {
 public:
  struct Bundle {
    std::uint64_t seqno = 0;  // commitment counter after this bundle
    NodeId source = 0;        // where the ids came from (self for own txs)
    std::vector<TxId> txids;  // in committed order
  };

  // `shard` is the shard id this log covers in a sharded pipeline
  // (DESIGN.md §7); headers minted by make_header() carry it. 0 for the
  // single-shard protocol.
  CommitmentLog(NodeId self, const CommitmentParams& params,
                std::uint32_t shard = 0);

  NodeId self() const noexcept { return self_; }
  std::uint32_t shard() const noexcept { return shard_; }
  std::uint64_t seqno() const noexcept { return seqno_; }
  std::uint64_t count() const noexcept { return order_.size(); }
  const crypto::Digest256& chain_hash() const noexcept { return chain_hash_; }
  const CommitmentParams& params() const noexcept { return params_; }

  bool contains(const TxId& id) const {
    return members_.find(id) != members_.end();
  }

  // Appends the ids that are not yet present, in the given order, as one new
  // bundle. Returns the ids actually appended; seqno is bumped only when the
  // bundle is non-empty.
  std::vector<TxId> append(std::span<const TxId> txids, NodeId source);

  // Snapshot of the current state as a signed commitment header. The wire
  // sketch is truncated to `wire_capacity` syndromes (PinSketch prefix
  // property) — callers size it to the estimated difference with the peer;
  // by default the full local capacity is included. A header minted again
  // at the same seqno and wire capacity for the same signer reuses the first
  // one's signature: its signed bytes are identical and both signature modes
  // are deterministic.
  CommitmentHeader make_header(const crypto::Signer& signer,
                               std::size_t wire_capacity = SIZE_MAX) const;

  const std::vector<Bundle>& bundles() const noexcept { return bundles_; }
  const std::vector<TxId>& order() const noexcept { return order_; }
  const sketch::Sketch& sketch() const noexcept { return sketch_; }
  const bloom::BloomClock& clock() const noexcept { return clock_; }

  // Maps a sketch raw item back to the full transaction id, if known.
  std::optional<TxId> resolve_short(std::uint64_t raw) const;

  // Maps a decoded sketch *element* (the field-mapped image of a raw item)
  // back to the full transaction id, if it belongs to this log.
  std::optional<TxId> resolve_element(std::uint64_t element) const;

  // Position of the id in commitment order; nullopt when absent.
  std::optional<std::size_t> position_of(const TxId& id) const;

  // Ids committed after the given position (used to build explicit deltas
  // for peers whose watermark into our order is `from_position`).
  std::vector<TxId> ids_after(std::size_t from_position) const;

  // The bundle with the given seqno, if any.
  const Bundle* bundle_by_seqno(std::uint64_t seqno) const;

  // Approximate resident memory of the log bookkeeping (Sec. 6.5 numbers).
  std::size_t memory_bytes() const noexcept;

 private:
  NodeId self_;
  CommitmentParams params_;
  std::uint32_t shard_ = 0;
  std::uint64_t seqno_ = 0;
  std::vector<TxId> order_;
  std::vector<Bundle> bundles_;
  std::unordered_set<TxId, TxIdHash> members_;
  std::unordered_map<std::uint64_t, TxId> short_index_;
  std::unordered_map<std::uint64_t, TxId> elem_index_;
  std::unordered_map<TxId, std::size_t, TxIdHash> positions_;
  crypto::Digest256 chain_hash_{};
  bloom::BloomClock clock_;
  sketch::Sketch sketch_;

  // Signatures of the headers minted since the last append(), which clears
  // them. Not part of the log's state: memory_bytes() leaves them out.
  struct MintedSig {
    crypto::PublicKey key;
    crypto::SignatureMode mode;
    std::size_t wire_capacity;
    crypto::Signature sig;
  };
  mutable std::vector<MintedSig> minted_;
};

}  // namespace lo::core
