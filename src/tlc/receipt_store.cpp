#include "tlc/receipt_store.hpp"

#include <array>
#include <fstream>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "wire/codec.hpp"

namespace tlc::core {
namespace {

constexpr std::size_t kMagicSize = 8;

/// The file framing both archives share: an 8-byte magic, then records,
/// each a big-endian u32 length and that many bytes.
struct Framing {
  const char* store;  // names the archive in errors
  std::array<char, kMagicSize> magic;
};

constexpr Framing kPocFile{"ReceiptStore",
                           {'T', 'L', 'C', 'R', 'C', 'P', 'T', '1'}};
constexpr Framing kBatchFile{"BatchedReceiptStore",
                             {'T', 'L', 'C', 'R', 'C', 'P', 'T', '2'}};

[[noreturn]] void fail(const Framing& f, const std::string& what) {
  throw std::runtime_error{std::string{f.store} + ": " + what};
}

/// Appends one record, writing the magic first when the file is new.
void append_record(const std::filesystem::path& path, const Framing& f,
                   const ByteVec& bytes) {
  const bool fresh = !std::filesystem::exists(path);
  std::ofstream os{path, std::ios::binary | std::ios::app};
  if (!os) fail(f, "cannot open " + path.string());
  if (fresh) {
    os.write(f.magic.data(), static_cast<std::streamsize>(kMagicSize));
  }
  const auto len = static_cast<std::uint32_t>(bytes.size());
  const char prefix[4] = {
      static_cast<char>(len >> 24), static_cast<char>(len >> 16),
      static_cast<char>(len >> 8), static_cast<char>(len)};
  os.write(prefix, sizeof(prefix));
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  if (!os) fail(f, "write failed");
}

/// Every record of the file, in order, through `decode`; none when the
/// file does not exist. Throws std::runtime_error on a foreign magic, a
/// truncated record, or a record `decode` rejects with wire::DecodeError.
template <class Decode>
auto load_records(const std::filesystem::path& path, const Framing& f,
                  Decode decode) {
  std::vector<std::invoke_result_t<Decode, const ByteVec&>> out;
  if (!std::filesystem::exists(path)) return out;
  std::ifstream is{path, std::ios::binary};
  if (!is) fail(f, "cannot open " + path.string());
  std::uintmax_t left = std::filesystem::file_size(path);
  std::array<char, kMagicSize> magic{};
  is.read(magic.data(), static_cast<std::streamsize>(kMagicSize));
  if (!is || magic != f.magic) {
    fail(f, "not a " + std::string{f.magic.data(), kMagicSize} + " file");
  }
  left -= kMagicSize;
  while (left > 0) {
    unsigned char prefix[4];
    is.read(reinterpret_cast<char*>(prefix), sizeof(prefix));
    if (!is) fail(f, "truncated record length");
    left -= sizeof(prefix);
    const std::uint32_t len = (static_cast<std::uint32_t>(prefix[0]) << 24) |
                              (static_cast<std::uint32_t>(prefix[1]) << 16) |
                              (static_cast<std::uint32_t>(prefix[2]) << 8) |
                              static_cast<std::uint32_t>(prefix[3]);
    // Checked before allocating: a corrupt prefix must not size the buffer.
    if (len > left) fail(f, "truncated record");
    ByteVec bytes(len);
    is.read(reinterpret_cast<char*>(bytes.data()), len);
    if (!is) fail(f, "truncated record");
    left -= len;
    try {
      out.push_back(decode(bytes));
    } catch (const wire::DecodeError& e) {
      fail(f, std::string{"corrupt record: "} + e.what());
    }
  }
  return out;
}

}  // namespace

ReceiptStore::ReceiptStore(std::filesystem::path path)
    : path_(std::move(path)) {}

void ReceiptStore::append(const PocMsg& poc) {
  append_record(path_, kPocFile, poc.encode());
}

std::vector<PocMsg> ReceiptStore::load_all() const {
  return load_records(path_, kPocFile, [](const ByteVec& bytes) {
    return PocMsg::decode(bytes);
  });
}

std::size_t ReceiptStore::count() const { return load_all().size(); }

ReceiptStore::AuditReport ReceiptStore::audit(
    PublicVerifier& verifier) const {
  AuditReport report;
  for (const PocMsg& poc : load_all()) {
    ++report.total;
    VerifiedCharge charge;
    const VerifyResult result = verifier.verify(poc.encode(), &charge);
    ++report.by_result[result];
    if (result == VerifyResult::kOk) {
      ++report.accepted;
      report.total_verified_volume += charge.charged;
    } else {
      ++report.rejected;
    }
  }
  return report;
}

// ---------------------------------------------------- BatchedReceiptStore

BatchedReceiptStore::BatchedReceiptStore(std::filesystem::path path,
                                         const crypto::KeyPair& key,
                                         PartyRole sender, FlushPolicy policy)
    : path_(std::move(path)), builder_(key, sender, policy) {
  // Reopening an existing archive continues its hash chain — restarting
  // at genesis would make the store's own audit report a chain splice on
  // the first batch appended after the reopen.
  if (std::filesystem::exists(path_)) {
    const std::vector<ReceiptBatch> existing = load_all();
    if (!existing.empty()) {
      const BatchHead& last = existing.back().head;
      builder_.resume_chain(last.batch_index + 1, last.link);
    }
  }
}

void BatchedReceiptStore::append(const PocMsg& poc, std::uint64_t cycle) {
  if (auto batch = builder_.append(poc, cycle)) write_batch(*batch);
}

void BatchedReceiptStore::end_cycle() {
  if (auto batch = builder_.end_cycle()) write_batch(*batch);
}

void BatchedReceiptStore::flush() {
  if (auto batch = builder_.flush()) write_batch(*batch);
}

void BatchedReceiptStore::write_batch(const ReceiptBatch& batch) {
  // Stored record == wire frame with a zeroed header: the archive holds
  // exactly the bytes a settlement would transmit.
  const ByteVec bytes =
      wire::encode_batch_frame(to_batch_frame(batch, wire::FrameHeader{}));
  append_record(path_, kBatchFile, bytes);
}

std::vector<ReceiptBatch> BatchedReceiptStore::load_all() const {
  return load_records(path_, kBatchFile, [](const ByteVec& bytes) {
    return from_batch_frame(wire::decode_batch_frame(bytes));
  });
}

std::size_t BatchedReceiptStore::count() const {
  std::size_t n = 0;
  for (const ReceiptBatch& b : load_all()) n += b.entries.size();
  return n;
}

BatchedReceiptStore::BatchAuditReport BatchedReceiptStore::audit(
    BatchedVerifier& verifier) const {
  BatchAuditReport report;
  for (const ReceiptBatch& batch : load_all()) {
    ++report.batches;
    const BatchAudit audit = verifier.verify_batch(batch);
    ++report.by_head_result[audit.head];
    if (audit.head != BatchVerifyResult::kOk) {
      ++report.heads_rejected;
      // Entries under a rejected head count as rejected receipts.
      report.receipts.total += batch.entries.size();
      report.receipts.rejected += batch.entries.size();
      continue;
    }
    ++report.heads_accepted;
    report.receipts.total += audit.receipts.size();
    report.receipts.accepted += audit.accepted;
    report.receipts.rejected += audit.rejected;
    report.receipts.total_verified_volume += audit.total_verified_volume;
    for (const VerifyResult r : audit.receipts) ++report.receipts.by_result[r];
  }
  return report;
}

}  // namespace tlc::core
