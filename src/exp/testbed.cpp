#include "exp/testbed.hpp"

#include <algorithm>
#include <string>

namespace tlc::exp {
namespace {

constexpr Duration kDisconnectSample = std::chrono::seconds{1};

}  // namespace

Testbed::Testbed(TestbedConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      device_(config_.plan, config_.edge_clock),
      server_(config_.plan, config_.edge_clock),
      gateway_(sched_, config_.plan, config_.operator_clock,
               epc::Imsi::from_number(kTestbedImsi)),
      backhaul_up_(sched_, config_.backhaul,
                   [this](const net::Packet& p, TimePoint at) {
                     server_.on_uplink_delivered(p, at);
                   }),
      backhaul_down_(sched_, config_.backhaul,
                     [this](const net::Packet& p, TimePoint) {
                       gateway_.forward_downlink(p, serving_cell().attached());
                     }),
      rrc_(config_.plan, config_.operator_clock) {
  config_.plan.validate();

  // One cell, or two under mobility: the device hands over between them.
  const std::size_t cell_count =
      config_.handover_period > Duration::zero() ? 2 : 1;
  for (std::size_t i = 0; i < cell_count; ++i) {
    cells_.emplace_back(sched_, config_.bs, rng_.fork(), device_,
                        config_.plan, config_.operator_clock);
  }
  last_disc_total_.assign(cell_count, Duration::zero());

  // A scenario pushes hundreds of thousands of events; one up-front
  // reservation keeps the heap's early growth off the packet path.
  sched_.reserve(1024);

  // Observability: one registry + trace sink for the whole testbed, with
  // events stamped in sim time. Wire before start() so the scheduler's
  // counters see every event. Both are owned by this testbed instance —
  // nothing observability-related is process-global — which is what lets
  // whole testbeds run concurrently on sweep workers without sharing.
  obs_.trace.set_clock([this] { return sched_.now(); });
  sched_.set_observability(obs_);
  gateway_.set_observability(obs_);
  rrc_.set_observability(obs_);
  backhaul_up_.set_observability(obs_, "net.backhaul.ul");
  backhaul_down_.set_observability(obs_, "net.backhaul.dl");
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    cells_[i].set_observability(obs_, "cell" + std::to_string(i));
  }

  for (epc::BaseStation& cell : cells_) {
    cell.set_uplink_sink([this](const net::Packet& p, TimePoint at) {
      if (p.flow == net::kControlFlow) {
        // Zero-rated settlement signaling: delivered over the air (so it
        // sits in net.ul.delivered_bytes) but never charged — tallied here
        // so the uplink charging-gap identity stays exact.
        obs_.metrics.counter("tlc.settle.ul_delivered_bytes")
            .inc(p.size.count());
        if (control_ul_handler_) control_ul_handler_(p, at);
        return;
      }
      truth_received_.record(at, charging::Direction::kUplink, p.size);
      gateway_.on_uplink_from_enb(p, at);
    });
    cell.set_downlink_sink([this](const net::Packet& p, TimePoint at) {
      if (p.flow == net::kControlFlow) {
        if (control_dl_handler_) control_dl_handler_(p, at);
        return;
      }
      truth_received_.record(at, charging::Direction::kDownlink, p.size);
    });
    cell.set_counter_check_sink(
        [this](const epc::CounterCheckReport& report) {
          rrc_.on_counter_check(report);
        });
  }
  gateway_.set_pcrf(&pcrf_);
  gateway_.set_downlink_forward(
      [this](net::Packet p) { serving_cell().send_downlink(std::move(p)); });
  gateway_.set_uplink_forward(
      [this](net::Packet p) { backhaul_up_.enqueue(std::move(p)); });
  std::vector<epc::BaseStation*> cell_ptrs;
  for (epc::BaseStation& cell : cells_) {
    cell.start();
    cell_ptrs.push_back(&cell);
  }
  if (cells_.size() > 1) {
    handover_ = std::make_unique<epc::HandoverController>(
        sched_,
        epc::HandoverController::Config{config_.handover_period,
                                        config_.handover_interruption},
        std::move(cell_ptrs));
    handover_->set_observability(obs_);
    handover_->start();
  }
}

void Testbed::app_send_uplink(net::Packet packet) {
  const TimePoint now = sched_.now();
  device_.note_app_sent(packet, now);
  truth_sent_.record(now, charging::Direction::kUplink, packet.size);
  serving_cell().send_uplink(std::move(packet));
}

void Testbed::app_send_downlink(net::Packet packet) {
  const TimePoint now = sched_.now();
  server_.note_sent(packet, now);
  truth_sent_.record(now, charging::Direction::kDownlink, packet.size);
  backhaul_down_.enqueue(std::move(packet));
}

void Testbed::control_send_uplink(net::Packet packet) {
  // Bypasses app/ground-truth accounting on purpose: settlement signaling
  // is not application traffic. It still rides the real modem queue and
  // radio, so its delivery is subject to every §3.1 loss cause.
  serving_cell().send_uplink(std::move(packet));
}

void Testbed::control_send_downlink(net::Packet packet) {
  // Injected behind the gateway's charge point (the operator originates it
  // in its own core), straight onto the eNB downlink. Every injected byte
  // lands in net.dl.{delivered,drop.*} but is never charged; this counter
  // balances the downlink gap identity.
  obs_.metrics.counter("tlc.settle.dl_sent_bytes").inc(packet.size.count());
  serving_cell().send_downlink(std::move(packet));
}

void Testbed::fail_next_counter_checks(std::uint32_t count,
                                       Duration retry_after) {
  counter_check_faults_ += count;
  counter_check_retry_ = retry_after;
}

void Testbed::schedule_cycle_end_checks(TimePoint until,
                                        std::int64_t last_boundary) {
  const Duration len = config_.plan.cycle_length;
  for (std::int64_t k = 1; k <= last_boundary; ++k) {
    const TimePoint local_boundary = kTimeZero + len * k;
    const TimePoint true_boundary =
        config_.operator_clock.true_time(local_boundary);
    if (true_boundary > until) break;
    if (true_boundary < sched_.now()) continue;
    const Duration jitter = from_seconds(
        rng_.uniform(0.0, to_seconds(config_.counter_check_jitter_max)));
    sched_.schedule_at(true_boundary + jitter, [this] {
      epc::BaseStation& cell = serving_cell();
      if (counter_check_faults_ == 0) {
        cell.trigger_counter_check();
      } else if (cell.time_out_counter_check(counter_check_retry_)) {
        --counter_check_faults_;
      }
    });
  }
}

void Testbed::run_until(TimePoint until, std::int64_t last_boundary) {
  schedule_cycle_end_checks(until, last_boundary);

  // Periodic sampler attributing the serving cell's outage since the last
  // sample to the true-time cycle.
  std::function<void()> sample = [this, &sample, until] {
    const TimePoint now = sched_.now();
    Duration& outage = disconnected_[config_.plan.cycle_at(now).index];
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Duration total = cells_[i].radio().disconnected_time();
      if (&cells_[i] == &serving_cell()) outage += total - last_disc_total_[i];
      last_disc_total_[i] = total;
    }
    if (now + kDisconnectSample <= until) {
      sched_.schedule_after(kDisconnectSample, sample);
    }
  };
  sched_.schedule_after(kDisconnectSample, sample);

  sched_.run_until(until);
}

charging::GroundTruth Testbed::truth(charging::Direction direction,
                                     std::uint64_t cycle) const {
  charging::GroundTruth truth;
  truth.sent = truth_sent_.usage(cycle).in(direction);
  // Guard the invariant x̂_o ≤ x̂_e against boundary straddling (a packet
  // sent at the very end of a cycle can be delivered in the next one).
  truth.received =
      std::min(truth_received_.usage(cycle).in(direction), truth.sent);
  return truth;
}

core::LocalView Testbed::edge_view(charging::Direction direction,
                                   std::uint64_t cycle) const {
  return monitor::edge_view(device_, server_, direction, cycle);
}

core::LocalView Testbed::operator_view(
    charging::Direction direction, std::uint64_t cycle,
    monitor::OperatorDlSource dl_source) const {
  Bytes observed_ul_loss;
  for (const epc::BaseStation& cell : cells_) {
    observed_ul_loss += cell.observed_uplink_radio_loss(cycle);
  }
  return monitor::operator_view(gateway_, rrc_, observed_ul_loss, device_,
                                direction, cycle, dl_source);
}

double Testbed::disconnect_ratio(std::uint64_t cycle) const {
  const auto it = disconnected_.find(cycle);
  if (it == disconnected_.end()) return 0.0;
  return to_seconds(it->second) / to_seconds(config_.plan.cycle_length);
}

}  // namespace tlc::exp
