#include "fault/injector.hpp"

#include "common/rng.hpp"

namespace tlc::fault {
namespace {

bool in_window(double t, double start_s, double duration_s) {
  return t >= start_s && t < start_s + duration_s;
}

}  // namespace

net::FaultDecision LinkFaultInjector::on_deliver(const net::Packet& packet,
                                                 TimePoint now) {
  (void)packet;
  net::FaultDecision decision;
  const double t = to_seconds(now - kTimeZero);

  if (config_.burst &&
      in_window(t, config_.burst->start_s, config_.burst->duration_s) &&
      rng_.chance(config_.burst->probability)) {
    decision.drop = true;
    ++dropped_;
    return decision;  // a dropped packet cannot also duplicate or delay
  }
  if (config_.duplication && t >= config_.duplication->start_s &&
      duplicated_ < config_.duplication->max_packets) {
    decision.duplicates = config_.duplication->copies;
    ++duplicated_;
  }
  if (config_.reorder &&
      in_window(t, config_.reorder->start_s, config_.reorder->duration_s) &&
      rng_.chance(config_.reorder->probability)) {
    decision.delay =
        from_seconds(config_.reorder->max_delay_ms / 1000.0 * rng_.uniform());
    ++delayed_;
  }
  return decision;
}

FaultSession::FaultSession(FaultPlan plan) : plan_(plan) {}

exp::ScenarioConfig FaultSession::scenario() {
  exp::ScenarioConfig cfg;
  cfg.app = static_cast<exp::AppKind>(plan_.app_index);
  cfg.background_mbps = plan_.background_mbps;
  cfg.handover_period_s = plan_.handover_period_s;
  cfg.cycles = plan_.cycles;
  cfg.cycle_length = from_seconds(plan_.cycle_length_s);
  cfg.seed = plan_.seed;
  cfg.wire_settlement = plan_.wire_settlement;
  cfg.poc_batch_size = plan_.poc_batch_size;
  cfg.testbed_hook = [this](exp::Testbed& bed) { attach(bed); };
  return cfg;
}

void FaultSession::attach(exp::Testbed& bed) {
  Rng rng{stream_mix64(plan_.seed ^ 0x6661756c74ULL)};  // "fault"

  if (plan_.dl_burst_drop || plan_.dl_duplication || plan_.dl_reorder) {
    dl_injector_ = std::make_unique<LinkFaultInjector>(
        LinkFaultInjector::Config{plan_.dl_burst_drop, plan_.dl_duplication,
                                  plan_.dl_reorder},
        rng.fork());
    for (epc::BaseStation& cell : bed.cells()) {
      cell.set_downlink_fault_hook(dl_injector_.get());
    }
  }
  if (plan_.ul_burst_drop) {
    ul_injector_ = std::make_unique<LinkFaultInjector>(
        LinkFaultInjector::Config{plan_.ul_burst_drop, std::nullopt,
                                  std::nullopt},
        rng.fork());
    for (epc::BaseStation& cell : bed.cells()) {
      cell.set_uplink_fault_hook(ul_injector_.get());
    }
  }

  if (plan_.gateway_stall) {
    auto* gw = &bed.gateway();
    bed.scheduler().schedule_after(from_seconds(plan_.gateway_stall->start_s),
                                   [gw] { gw->set_counter_stall(true); });
    bed.scheduler().schedule_after(
        from_seconds(plan_.gateway_stall->start_s +
                     plan_.gateway_stall->duration_s),
        [gw] { gw->set_counter_stall(false); });
  }

  if (plan_.counter_check_timeout) {
    bed.fail_next_counter_checks(
        plan_.counter_check_timeout->count,
        from_seconds(plan_.counter_check_timeout->retry_after_s));
  }

  if (plan_.handover_kill && bed.handover() != nullptr) {
    auto* ho = bed.handover();
    bed.scheduler().schedule_after(from_seconds(plan_.handover_kill->at_s),
                                   [ho] { ho->execute_handover(); });
  }
}

}  // namespace tlc::fault
