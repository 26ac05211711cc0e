#include "epc/device.hpp"

namespace tlc::epc {

void EdgeDevice::note_app_sent(const net::Packet& packet, TimePoint now) {
  app_usage_.record(now, charging::Direction::kUplink, packet.size);
}

void EdgeDevice::note_modem_transmitted(Bytes bytes) {
  modem_tx_ += bytes.count();
}

void EdgeDevice::on_downlink_delivered(const net::Packet& packet,
                                       TimePoint now) {
  // Zero-rated control-plane traffic (the TLC settlement exchange) stays
  // out of the usage views the parties later negotiate over.
  if (packet.flow == net::kControlFlow) return;
  modem_rx_ += packet.size.count();
  app_usage_.record(now, charging::Direction::kDownlink, packet.size);
}

charging::UsageRecord EdgeDevice::api_usage(std::uint64_t cycle) const {
  return charging::scaled_usage(app_usage_.usage(cycle), api_tamper_);
}

void EdgeDevice::set_api_tamper_factor(double factor) {
  charging::check_tamper_factor(factor, "EdgeDevice::set_api_tamper_factor");
  api_tamper_ = factor;
}

}  // namespace tlc::epc
