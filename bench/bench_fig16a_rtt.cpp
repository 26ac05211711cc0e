// Figure 16a — "RTT within charging cycle (w/ and w/o TLC)".
//
// TLC's central latency claim: the negotiation runs only at the end of the
// cycle, adds no per-packet processing, and never blocks transfer — so
// enabling it must not change in-cycle round-trip times. We ping 200 times
// (as the paper does) across the simulated radio path for each device
// profile, once with TLC idle and once with TLC's cycle-end machinery
// (counter checks + a running negotiation) active.
//
// Contrast with bench_ablation_sync_baseline, where a record-synchronizing
// scheme (the Theorem 1 strawman) visibly inflates latency.
#include <cstdio>
#include <map>
#include <vector>

#include "common/stats.hpp"
#include "epc/basestation.hpp"
#include "exp/device_profile.hpp"
#include "exp/metrics.hpp"
#include "obs/metrics.hpp"

using namespace tlc;
using namespace tlc::exp;

namespace {

struct RttResult {
  double mean_ms = 0.0;
  obs::LogHistogramSnapshot percentiles;  // RTT in ns
};

RttResult measure_rtt(const DeviceProfile& dev, bool tlc_active,
                      std::uint64_t seed) {
  sim::Scheduler sched;
  charging::DataPlan plan;
  plan.cycle_length = std::chrono::seconds{60};
  epc::EdgeDevice device{plan, sim::NodeClock{}};

  epc::BaseStationConfig cfg;
  cfg.radio.base_rss = Dbm{-85.0};
  cfg.radio.shadow_sigma_db = 0.5;
  cfg.radio.baseline_loss = 0.0;
  cfg.downlink.propagation_delay = dev.link_latency;
  cfg.uplink.propagation_delay = dev.link_latency;
  epc::BaseStation bs{sched, cfg, Rng{seed}, device, plan,
                      sim::NodeClock{}};

  OnlineStats rtt_ms;
  obs::LogHistogram rtt_hist;
  std::map<std::uint64_t, TimePoint> sent_at;

  // Echo at the device, time at the uplink exit (the "server" side).
  bs.set_downlink_sink([&bs](const net::Packet& p, TimePoint) {
    net::Packet echo = p;
    echo.direction = charging::Direction::kUplink;
    bs.send_uplink(std::move(echo));
  });
  bs.set_uplink_sink([&rtt_ms, &rtt_hist, &sent_at, &sched](
                         const net::Packet& p, TimePoint) {
    const auto it = sent_at.find(p.id);
    if (it != sent_at.end()) {
      const Duration rtt = sched.now() - it->second;
      rtt_ms.add(to_seconds(rtt) * 1e3);
      rtt_hist.observe_duration(rtt);
    }
  });
  if (tlc_active) {
    // The operator polls modem counters every second — far more often than
    // TLC ever needs — to show even aggressive counter-checking is free.
    bs.set_counter_check_sink([](const epc::CounterCheckReport&) {});
    for (int i = 1; i <= 20; ++i) {
      sched.schedule_at(kTimeZero + std::chrono::seconds{i},
                        [&bs] { (void)bs.trigger_counter_check(); });
    }
  }
  bs.start();

  for (std::uint64_t i = 0; i < 200; ++i) {
    sched.schedule_at(kTimeZero + std::chrono::milliseconds{100 * i + 10},
                      [&bs, &sent_at, &sched, i] {
                        net::Packet ping;
                        ping.id = i;
                        ping.size = Bytes{64};
                        ping.direction = charging::Direction::kDownlink;
                        ping.created = sched.now();
                        sent_at[i] = ping.created;
                        bs.send_downlink(std::move(ping));
                      });
  }
  sched.run_until(kTimeZero + std::chrono::seconds{25});
  obs::LogHistogramSnapshot snap;
  snap.count = rtt_hist.count();
  snap.sum = rtt_hist.sum();
  snap.min = rtt_hist.min();
  snap.max = rtt_hist.max();
  snap.p50 = rtt_hist.quantile(0.50);
  snap.p90 = rtt_hist.quantile(0.90);
  snap.p99 = rtt_hist.quantile(0.99);
  return RttResult{rtt_ms.mean(), snap};
}

}  // namespace

int main() {
  std::printf("## Figure 16a: in-cycle ping RTT with and without TLC\n\n");
  Table table{{"device", "RTT w/o TLC (ms)", "RTT w/ TLC (ms)", "delta",
               "p50/p99 w/ TLC (ms)"}};
  struct Row {
    std::string device;
    RttResult without;
    RttResult with;
  };
  std::vector<Row> rows;
  for (const DeviceProfile& dev : device_profiles()) {
    if (dev.name == "Z840") continue;  // the paper plots the three devices
    Row row{std::string(dev.name), measure_rtt(dev, false, 11),
            measure_rtt(dev, true, 11)};
    table.add_row({row.device, fmt(row.without.mean_ms, 3),
                   fmt(row.with.mean_ms, 3),
                   fmt(row.with.mean_ms - row.without.mean_ms, 3) + " ms",
                   fmt(static_cast<double>(row.with.percentiles.p50) / 1e6,
                       3) +
                       "/" +
                       fmt(static_cast<double>(row.with.percentiles.p99) /
                               1e6,
                           3)});
    rows.push_back(std::move(row));
  }
  table.print();
  std::printf("\npaper: 'RTT exhibits marginal differences with/without "
              "TLC' — the delta column\nmust be ~0: counter checks ride the "
              "control plane and negotiation is off-path.\n");

  // Machine-readable percentiles for regression tracking, in the same
  // shape as BENCH_sched.json.
  std::FILE* out = std::fopen("BENCH_fig16.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n  \"devices\": [");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      const auto ns = [](std::uint64_t v) {
        return static_cast<unsigned long long>(v);
      };
      std::fprintf(
          out,
          "%s\n    {\"device\": \"%s\",\n"
          "     \"rtt_ms_without_tlc\": %.3f, \"rtt_ms_with_tlc\": %.3f,\n"
          "     \"without_tlc_rtt_ns\": {\"count\": %llu, \"p50\": %llu, "
          "\"p90\": %llu, \"p99\": %llu, \"max\": %llu},\n"
          "     \"with_tlc_rtt_ns\": {\"count\": %llu, \"p50\": %llu, "
          "\"p90\": %llu, \"p99\": %llu, \"max\": %llu}}",
          i == 0 ? "" : ",", r.device.c_str(), r.without.mean_ms,
          r.with.mean_ms, ns(r.without.percentiles.count),
          ns(r.without.percentiles.p50), ns(r.without.percentiles.p90),
          ns(r.without.percentiles.p99), ns(r.without.percentiles.max),
          ns(r.with.percentiles.count), ns(r.with.percentiles.p50),
          ns(r.with.percentiles.p90), ns(r.with.percentiles.p99),
          ns(r.with.percentiles.max));
    }
    std::fprintf(out, "\n  ]\n}\n");
    std::fclose(out);
    std::printf("wrote BENCH_fig16.json\n");
  } else {
    std::perror("BENCH_fig16.json");
  }
  return 0;
}
