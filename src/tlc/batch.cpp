#include "tlc/batch.hpp"

#include <stdexcept>
#include <utility>

#include "wire/codec.hpp"

namespace tlc::core {
namespace {

constexpr std::uint16_t kBatchMagic = 0x5442;  // "TB"
constexpr std::uint8_t kBatchVersion = 1;

void write_digest(wire::Writer& w, const crypto::Digest& d) { w.raw(d); }

crypto::Digest read_digest(wire::Reader& r) {
  crypto::Digest d{};
  r.raw_into(d);
  return d;
}

void write_head_signable(wire::Writer& w, const BatchHead& h) {
  w.u16(kBatchMagic);
  w.u8(kBatchVersion);
  w.u8(static_cast<std::uint8_t>(h.sender));
  w.u64(h.batch_index);
  w.u64(h.first_cycle);
  w.u32(h.count);
  write_digest(w, h.root);
  write_digest(w, h.prev_link);
  write_digest(w, h.link);
}

/// Batch heads are signed off the hot path (once per batch), but reuse the
/// same thread-local scratch idiom as messages.cpp: signable images are
/// transient and never nest.
wire::Writer& scratch_writer() {
  thread_local wire::Writer w;
  w.clear();
  return w;
}

}  // namespace

ByteVec BatchHead::encode() const {
  wire::Writer& w = scratch_writer();
  write_head_signable(w, *this);
  w.bytes(signature);
  return w.buffer();
}

BatchHead BatchHead::decode(std::span<const std::uint8_t> data) {
  wire::Reader r{data};
  if (r.u16() != kBatchMagic) throw wire::DecodeError{"not a batch head"};
  if (r.u8() != kBatchVersion) {
    throw wire::DecodeError{"unsupported batch-head version"};
  }
  BatchHead h;
  const std::uint8_t role = r.u8();
  if (role > 1) throw wire::DecodeError{"bad role"};
  h.sender = static_cast<PartyRole>(role);
  h.batch_index = r.u64();
  h.first_cycle = r.u64();
  h.count = r.u32();
  h.root = read_digest(r);
  h.prev_link = read_digest(r);
  h.link = read_digest(r);
  h.signature = r.bytes();
  r.expect_end();
  return h;
}

void BatchHead::sign(const crypto::KeyPair& key) {
  wire::Writer& w = scratch_writer();
  write_head_signable(w, *this);
  signature = crypto::sign(key, w.buffer());
}

bool BatchHead::verify(const crypto::PublicKey& key) const {
  if (signature.empty()) return false;
  wire::Writer& w = scratch_writer();
  write_head_signable(w, *this);
  return crypto::verify(key, w.buffer(), signature);
}

BatchBuilder::BatchBuilder(const crypto::KeyPair& key, PartyRole sender,
                           FlushPolicy policy)
    : key_(key), sender_(sender), policy_(policy) {
  if (policy_.max_batch == 0) policy_.max_batch = 1;
}

std::optional<ReceiptBatch> BatchBuilder::append(const PocMsg& poc,
                                                 std::uint64_t cycle) {
  return append_encoded(poc.encode(), cycle);
}

std::optional<ReceiptBatch> BatchBuilder::append_encoded(
    ByteVec poc_bytes, std::uint64_t cycle) {
  if (pending_.empty()) pending_first_cycle_ = cycle;
  pending_digests_.push_back(crypto::leaf_digest(poc_bytes));
  pending_.push_back(std::move(poc_bytes));
  if (pending_.size() >= policy_.max_batch) return flush();
  return std::nullopt;
}

std::optional<ReceiptBatch> BatchBuilder::end_cycle() {
  if (!policy_.flush_on_cycle_end) return std::nullopt;
  return flush();
}

std::optional<ReceiptBatch> BatchBuilder::flush() {
  if (pending_.empty()) return std::nullopt;
  const crypto::MerkleTree tree = crypto::MerkleTree::build(pending_digests_);

  ReceiptBatch batch;
  batch.head.batch_index = next_index_;
  batch.head.first_cycle = pending_first_cycle_;
  batch.head.count = static_cast<std::uint32_t>(pending_.size());
  batch.head.sender = sender_;
  batch.head.root = tree.root();
  batch.head.prev_link = prev_link_;
  batch.head.link =
      crypto::chain_link(prev_link_, tree.root(), next_index_);
  batch.head.sign(key_);

  batch.entries.reserve(pending_.size());
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    batch.entries.push_back(
        BatchEntry{std::move(pending_[i]),
                   tree.prove(static_cast<std::uint32_t>(i))});
  }

  pending_.clear();
  pending_digests_.clear();
  prev_link_ = batch.head.link;
  ++next_index_;
  return batch;
}

void BatchBuilder::resume_chain(std::uint64_t next_index,
                                const crypto::Digest& prev_link) {
  if (!pending_.empty()) {
    throw std::logic_error{"BatchBuilder::resume_chain with receipts pending"};
  }
  next_index_ = next_index;
  prev_link_ = prev_link;
}

wire::BatchFrame to_batch_frame(const ReceiptBatch& batch,
                                wire::FrameHeader header) {
  wire::BatchFrame frame;
  frame.header = header;
  frame.head = batch.head.encode();
  frame.entries.reserve(batch.entries.size());
  for (const BatchEntry& e : batch.entries) {
    wire::BatchFrameEntry fe;
    fe.payload = e.poc;
    fe.leaf_index = e.proof.leaf_index;
    fe.leaf_count = e.proof.leaf_count;
    fe.path.assign(e.proof.path.begin(), e.proof.path.end());
    frame.entries.push_back(std::move(fe));
  }
  return frame;
}

ReceiptBatch from_batch_frame(const wire::BatchFrame& frame) {
  ReceiptBatch batch;
  batch.head = BatchHead::decode(frame.head);
  batch.entries.reserve(frame.entries.size());
  for (const wire::BatchFrameEntry& fe : frame.entries) {
    BatchEntry e;
    e.poc = fe.payload;
    e.proof.leaf_index = fe.leaf_index;
    e.proof.leaf_count = fe.leaf_count;
    e.proof.path.assign(fe.path.begin(), fe.path.end());
    batch.entries.push_back(std::move(e));
  }
  return batch;
}

}  // namespace tlc::core
