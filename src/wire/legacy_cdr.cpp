#include "wire/legacy_cdr.hpp"

#include <cstdio>
#include <ctime>

#include "wire/codec.hpp"

namespace tlc::wire {
namespace {

// Volumes are carried as 24-bit counts of 256-byte blocks (≈4 GB range at
// 256 B granularity), mirroring 3GPP's variable-length volume encoding while
// keeping the record at the paper's 34-byte size.
constexpr std::uint64_t kVolumeGranularity = 256;

std::uint32_t pack_volume(Bytes v) {
  const std::uint64_t blocks =
      (v.count() + kVolumeGranularity - 1) / kVolumeGranularity;
  return static_cast<std::uint32_t>(blocks & 0xffffff);
}

Bytes unpack_volume(std::uint32_t blocks) {
  return Bytes{static_cast<std::uint64_t>(blocks) * kVolumeGranularity};
}

void put_u24(ByteVec& buf, std::uint32_t v) {
  buf.push_back(static_cast<std::uint8_t>(v >> 16));
  buf.push_back(static_cast<std::uint8_t>(v >> 8));
  buf.push_back(static_cast<std::uint8_t>(v));
}

std::uint32_t get_u24(Reader& r) {
  const auto hi = static_cast<std::uint32_t>(r.u8());
  const auto mid = static_cast<std::uint32_t>(r.u8());
  const auto lo = static_cast<std::uint32_t>(r.u8());
  return (hi << 16) | (mid << 8) | lo;
}

std::string format_time(std::uint32_t unix_seconds) {
  const auto t = static_cast<std::time_t>(unix_seconds);
  std::tm tm_utc{};
  // tlc-lint: allow(determinism): converts a *simulated* timestamp to UTC
  // fields — gmtime_r is a pure function of its input, unlike localtime
  gmtime_r(&t, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%d %H:%M:%S", &tm_utc);
  return buf;
}

}  // namespace

ByteVec encode_legacy_cdr(const LegacyCdr& cdr) {
  ByteVec out;
  out.reserve(kLegacyCdrSize);
  out.insert(out.end(), cdr.served_imsi.begin(), cdr.served_imsi.end());
  Writer w;
  w.u32(cdr.gateway_address);
  w.u32(cdr.charging_id);
  w.u32(cdr.sequence_number);
  w.u32(cdr.time_of_first_usage);
  w.u32(cdr.time_of_last_usage);
  const ByteVec mid = w.take();
  out.insert(out.end(), mid.begin(), mid.end());
  put_u24(out, pack_volume(cdr.uplink_volume));
  put_u24(out, pack_volume(cdr.downlink_volume));
  return out;
}

LegacyCdr decode_legacy_cdr(std::span<const std::uint8_t> data) {
  if (data.size() != kLegacyCdrSize) {
    throw DecodeError{"decode_legacy_cdr: wrong record size"};
  }
  Reader r{data};
  LegacyCdr cdr;
  r.raw_into(cdr.served_imsi);
  cdr.gateway_address = r.u32();
  cdr.charging_id = r.u32();
  cdr.sequence_number = r.u32();
  cdr.time_of_first_usage = r.u32();
  cdr.time_of_last_usage = r.u32();
  cdr.uplink_volume = unpack_volume(get_u24(r));
  cdr.downlink_volume = unpack_volume(get_u24(r));
  r.expect_end();
  return cdr;
}

std::string legacy_cdr_to_xml(const LegacyCdr& cdr) {
  std::string imsi_hex;
  for (std::size_t i = 0; i < cdr.served_imsi.size(); ++i) {
    char buf[4];
    std::snprintf(buf, sizeof(buf), "%02X", cdr.served_imsi[i]);
    if (i > 0) imsi_hex.push_back(' ');
    imsi_hex += buf;
  }
  char addr[20];
  std::snprintf(addr, sizeof(addr), "%u.%u.%u.%u",
                (cdr.gateway_address >> 24) & 0xff,
                (cdr.gateway_address >> 16) & 0xff,
                (cdr.gateway_address >> 8) & 0xff, cdr.gateway_address & 0xff);
  std::string out;
  out += "<chargingRecord>\n";
  out += "  <servedIMSI>" + imsi_hex + "</servedIMSI>\n";
  out += "  <gatewayAddress>" + std::string{addr} + "</gatewayAddress>\n";
  out += "  <chargingID>" + std::to_string(cdr.charging_id) +
         "</chargingID>\n";
  out += "  <SequenceNumber>" + std::to_string(cdr.sequence_number) +
         "</SequenceNumber>\n";
  out += "  <timeOfFirstUsage>" + format_time(cdr.time_of_first_usage) +
         "</timeOfFirstUsage>\n";
  out += "  <timeOfLastUsage>" + format_time(cdr.time_of_last_usage) +
         "</timeOfLastUsage>\n";
  out += "  <timeUsage>" +
         std::to_string(cdr.time_of_last_usage - cdr.time_of_first_usage) +
         "</timeUsage>\n";
  out += "  <datavolumeUplink>" + std::to_string(cdr.uplink_volume.count()) +
         "</datavolumeUplink>\n";
  out += "  <datavolumeDownlink>" +
         std::to_string(cdr.downlink_volume.count()) +
         "</datavolumeDownlink>\n";
  out += "</chargingRecord>\n";
  return out;
}

}  // namespace tlc::wire
