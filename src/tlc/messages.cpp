#include "tlc/messages.hpp"

#include <type_traits>

#include "wire/codec.hpp"

namespace tlc::core {
namespace {

constexpr std::uint16_t kMagic = 0x544c;  // "TL"
constexpr std::uint8_t kVersion = 1;

void write_header(wire::Writer& w, MessageType type) {
  w.u16(kMagic);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(type));
}

MessageType read_header(wire::Reader& r) {
  if (r.u16() != kMagic) throw wire::DecodeError{"bad magic"};
  if (r.u8() != kVersion) throw wire::DecodeError{"unsupported version"};
  const std::uint8_t t = r.u8();
  if (t < 1 || t > 3) throw wire::DecodeError{"unknown message type"};
  return static_cast<MessageType>(t);
}

void write_plan(wire::Writer& w, const PlanEcho& p) {
  w.u64(p.cycle_start_ns);
  w.u64(p.cycle_length_ns);
  w.f64(p.loss_weight);
  w.u64(p.cycle_index);
}

PlanEcho read_plan(wire::Reader& r) {
  PlanEcho p;
  p.cycle_start_ns = r.u64();
  p.cycle_length_ns = r.u64();
  p.loss_weight = r.f64();
  p.cycle_index = r.u64();
  return p;
}

void write_nonce(wire::Writer& w, const Nonce& n) { w.raw(n); }

Nonce read_nonce(wire::Reader& r) {
  Nonce n{};
  r.raw_into(n);
  return n;
}

/// Scratch encoder for the sign/verify/encode paths. Each party signs and
/// verifies at every negotiation message, and the transient "signable"
/// image is discarded immediately after the crypto call — a reusable
/// per-thread buffer removes that per-message allocation. Thread-local
/// (not global) so concurrent scenario sweeps never share it. Safe here
/// because signable writers never nest: embedded messages (peer_cdr,
/// peer_cda) are stored pre-encoded.
wire::Writer& scratch_writer() {
  thread_local wire::Writer w;
  w.clear();
  return w;
}

PartyRole read_role(wire::Reader& r) {
  const std::uint8_t v = r.u8();
  if (v > 1) throw wire::DecodeError{"bad role"};
  return static_cast<PartyRole>(v);
}

charging::Direction read_direction(wire::Reader& r) {
  const std::uint8_t v = r.u8();
  if (v > 1) throw wire::DecodeError{"bad direction"};
  return static_cast<charging::Direction>(v);
}

/// The claim a CDR or CDA carries, after its header: both messages sign
/// and send the same seven fields in this order.
template <typename Claim>
void write_claim(wire::Writer& w, const Claim& m) {
  write_plan(w, m.plan);
  w.u8(static_cast<std::uint8_t>(m.sender));
  w.u8(static_cast<std::uint8_t>(m.direction));
  w.u32(m.seq);
  w.u32(m.round);
  write_nonce(w, m.nonce);
  w.u64(m.claim.count());
}

template <typename Claim>
void read_claim(wire::Reader& r, Claim& m) {
  m.plan = read_plan(r);
  m.sender = read_role(r);
  m.direction = read_direction(r);
  m.seq = r.u32();
  m.round = r.u32();
  m.nonce = read_nonce(r);
  m.claim = Bytes{r.u64()};
}

void expect_type(wire::Reader& r, MessageType type, const char* what) {
  if (read_header(r) != type) throw wire::DecodeError{what};
}

/// The image each message's signature covers: every field but the
/// signature itself (and, for a PoC, the nonces appended in clear).
void write_signable(wire::Writer& w, const CdrMsg& m) {
  write_header(w, MessageType::kCdr);
  write_claim(w, m);
}

void write_signable(wire::Writer& w, const CdaMsg& m) {
  write_header(w, MessageType::kCda);
  write_claim(w, m);
  w.bytes(m.peer_cdr);
}

void write_signable(wire::Writer& w, const PocMsg& m) {
  write_header(w, MessageType::kPoc);
  write_plan(w, m.plan);
  w.u8(static_cast<std::uint8_t>(m.sender));
  w.u32(m.seq);
  w.u32(m.round);
  w.u64(m.charged.count());
  w.bytes(m.peer_cda);
}

template <typename Msg>
ByteVec encode_signed(const Msg& m) {
  wire::Writer& w = scratch_writer();
  write_signable(w, m);
  w.bytes(m.signature);
  if constexpr (std::is_same_v<Msg, PocMsg>) {
    write_nonce(w, m.nonce_edge);
    write_nonce(w, m.nonce_operator);
  }
  return w.buffer();
}

template <typename Msg>
ByteVec signature_of(const Msg& m, const crypto::KeyPair& key) {
  wire::Writer& w = scratch_writer();
  write_signable(w, m);
  return crypto::sign(key, w.buffer());
}

template <typename Msg>
bool signature_holds(const Msg& m, const crypto::PublicKey& key) {
  if (m.signature.empty()) return false;
  wire::Writer& w = scratch_writer();
  write_signable(w, m);
  return crypto::verify(key, w.buffer(), m.signature);
}

}  // namespace

Nonce make_nonce(Rng& rng) {
  Nonce n{};
  for (std::size_t i = 0; i < n.size(); i += 8) {
    const std::uint64_t word = rng();
    for (std::size_t j = 0; j < 8; ++j) {
      n[i + j] = static_cast<std::uint8_t>(word >> (8 * j));
    }
  }
  return n;
}

PlanEcho PlanEcho::from(const charging::DataPlan& plan,
                        const charging::ChargingCycle& cycle) {
  PlanEcho echo;
  echo.cycle_start_ns =
      static_cast<std::uint64_t>(cycle.start.time_since_epoch().count());
  echo.cycle_length_ns = static_cast<std::uint64_t>(cycle.length.count());
  echo.loss_weight = plan.loss_weight;
  echo.cycle_index = cycle.index;
  return echo;
}

ByteVec CdrMsg::encode() const { return encode_signed(*this); }
void CdrMsg::sign(const crypto::KeyPair& key) {
  signature = signature_of(*this, key);
}
bool CdrMsg::verify(const crypto::PublicKey& key) const {
  return signature_holds(*this, key);
}

ByteVec CdaMsg::encode() const { return encode_signed(*this); }
void CdaMsg::sign(const crypto::KeyPair& key) {
  signature = signature_of(*this, key);
}
bool CdaMsg::verify(const crypto::PublicKey& key) const {
  return signature_holds(*this, key);
}

ByteVec PocMsg::encode() const { return encode_signed(*this); }
void PocMsg::sign(const crypto::KeyPair& key) {
  signature = signature_of(*this, key);
}
bool PocMsg::verify(const crypto::PublicKey& key) const {
  return signature_holds(*this, key);
}

CdrMsg CdrMsg::decode(std::span<const std::uint8_t> data) {
  wire::Reader r{data};
  expect_type(r, MessageType::kCdr, "not a CDR");
  CdrMsg m;
  read_claim(r, m);
  m.signature = r.bytes();
  r.expect_end();
  return m;
}

CdaMsg CdaMsg::decode(std::span<const std::uint8_t> data) {
  wire::Reader r{data};
  expect_type(r, MessageType::kCda, "not a CDA");
  CdaMsg m;
  read_claim(r, m);
  m.peer_cdr = r.bytes();
  m.signature = r.bytes();
  r.expect_end();
  return m;
}

PocMsg PocMsg::decode(std::span<const std::uint8_t> data) {
  wire::Reader r{data};
  expect_type(r, MessageType::kPoc, "not a PoC");
  PocMsg m;
  m.plan = read_plan(r);
  m.sender = read_role(r);
  m.seq = r.u32();
  m.round = r.u32();
  m.charged = Bytes{r.u64()};
  m.peer_cda = r.bytes();
  m.signature = r.bytes();
  m.nonce_edge = read_nonce(r);
  m.nonce_operator = read_nonce(r);
  r.expect_end();
  return m;
}

// ---------------------------------------------------------------- variant

ByteVec encode_message(const Message& msg) {
  return std::visit([](const auto& m) { return m.encode(); }, msg);
}

Message decode_message(std::span<const std::uint8_t> data) {
  wire::Reader peek{data};
  const MessageType type = read_header(peek);
  switch (type) {
    case MessageType::kCdr:
      return CdrMsg::decode(data);
    case MessageType::kCda:
      return CdaMsg::decode(data);
    case MessageType::kPoc:
      return PocMsg::decode(data);
  }
  throw wire::DecodeError{"unreachable message type"};
}

MessageType message_type(const Message& msg) {
  return std::visit(
      [](const auto& m) -> MessageType {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, CdrMsg>) return MessageType::kCdr;
        if constexpr (std::is_same_v<T, CdaMsg>) return MessageType::kCda;
        return MessageType::kPoc;
      },
      msg);
}

}  // namespace tlc::core
