#include "exp/fleet.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <thread>
#include <vector>

#include "charging/data_plan.hpp"
#include "exp/sweep.hpp"

namespace tlc::exp {
namespace {

using epc::CellReport;
using epc::DeviceCycle;
using epc::DeviceFleet;

/// One cell range's ledger. Each range's walk is the only writer of its
/// sink, and of the report slots of its own cells; aligned so parallel
/// walkers never share a cache line.
struct alignas(64) RangeSink {
  RangeSink(std::uint32_t cycles, std::uint32_t cell_count,
            std::vector<CellReport>& slots)
      : ledger(cycles), cells(cell_count), report_slots(&slots) {}

  void settled(const DeviceCycle& d) { ledger.add(d); }
  /// Slots are (cycle, cell)-indexed, so the slot vector is already in the
  /// OFCS fold order once every range has walked.
  void report(const CellReport& r) {
    (*report_slots)[std::size_t{r.cycle} * cells + r.cell] = r;
  }

  epc::SettlementLedger ledger;
  std::uint32_t cells;
  std::vector<CellReport>* report_slots;
};

}  // namespace

FleetResult run_fleet(const FleetConfig& config) {
  // Checked on the caller's thread: no range walker may throw from the
  // charging rule, and the kernel never checks its traffic model or
  // horizon. resolve_jobs refuses a shard count above the thread ceiling.
  charging::check_loss_weight(config.loss_weight, "run_fleet");
  epc::check_walk(config, "run_fleet");
  const auto requested =
      static_cast<std::uint32_t>(resolve_jobs(config.shards));
  DeviceFleet fleet(config.devices, config.devices_per_cell, config.seed);
  const std::uint32_t cells = fleet.cells();
  // More shards than cells would leave some shards empty; clamp instead.
  const std::uint32_t shards = std::min(requested, cells);
  const std::uint32_t cells_per_shard = (cells + shards - 1) / shards;

  std::vector<CellReport> reports(std::size_t{config.cycles} * cells);
  std::vector<RangeSink> sinks(shards,
                               RangeSink{config.cycles, cells, reports});
  const auto walk_shard = [&](std::uint32_t s) {
    const std::uint32_t begin = std::min(s * cells_per_shard, cells);
    epc::walk_cells(fleet, config, begin,
                    std::min(begin + cells_per_shard, cells), sinks[s]);
  };
  if (config.parallel && shards > 1) {
    std::vector<std::jthread> threads;  // joined when the block exits
    threads.reserve(shards);
    for (std::uint32_t s = 0; s < shards; ++s) {
      threads.emplace_back(walk_shard, s);
    }
  } else {
    for (std::uint32_t s = 0; s < shards; ++s) walk_shard(s);
  }

  FleetResult result;
  for (const RangeSink& sink : sinks) result += sink.ledger;
  result.close(reports);
  result.cycle_totals = result.cycle_rows;
  result.devices = fleet.devices();
  result.cells = cells;
  result.shards = shards;
  result.digest = fleet.digest();
  result.messages = result.cell_reports;
  result.events = result.bursts + result.messages;

  std::uint64_t settled_devices = 0;
  for (const DeviceFleet::SettleTotals& row : result.cycle_rows) {
    settled_devices += row.devices;
  }
  std::map<std::string, std::uint64_t>& counters = result.metrics.counters;
  counters["fleet.bursts"] = result.bursts;
  counters["fleet.reconnects"] = result.reconnects;
  counters["fleet.dropped_disconnect_bytes"] = result.gap_disconnect;
  counters["fleet.dropped_radio_bytes"] = result.gap_radio;
  counters["fleet.dropped_handover_bytes"] = result.gap_handover;
  counters["fleet.charged_dl_bytes"] = result.charged_dl;
  counters["fleet.delivered_dl_bytes"] = result.delivered_dl;
  counters["fleet.charged_ul_bytes"] = result.charged_ul;
  counters["fleet.settled_devices"] = settled_devices;
  counters["fleet.cell_reports"] = result.cell_reports;
  return result;
}

std::string fleet_fingerprint(const FleetResult& result) {
  // Everything determinism-relevant, nothing topology-dependent: shard
  // count and the event/message/window tallies are deliberately excluded,
  // so fingerprints compare equal across shard counts.
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof buf,
                "devices=%llu cells=%lu charged_dl=%llu delivered_dl=%llu "
                "gap_dl=%llu billed_legacy=%llu billed_tlc=%llu "
                "charged_ul=%llu digest=%016llx ofcs=%016llx flagged=%llu",
                static_cast<unsigned long long>(result.devices),
                static_cast<unsigned long>(result.cells),
                static_cast<unsigned long long>(result.charged_dl),
                static_cast<unsigned long long>(result.delivered_dl),
                static_cast<unsigned long long>(result.gap_dl),
                static_cast<unsigned long long>(result.billed_legacy),
                static_cast<unsigned long long>(result.billed_tlc),
                static_cast<unsigned long long>(result.charged_ul),
                static_cast<unsigned long long>(result.digest),
                static_cast<unsigned long long>(result.ofcs_chain),
                static_cast<unsigned long long>(result.flagged_reports));
  out += buf;
  for (std::size_t c = 0; c < result.cycle_rows.size(); ++c) {
    const DeviceFleet::SettleTotals& row = result.cycle_rows[c];
    std::snprintf(buf, sizeof buf,
                  " cycle%zu={charged=%llu delivered=%llu gap=%llu "
                  "legacy=%llu tlc=%llu}",
                  c, static_cast<unsigned long long>(row.charged_dl),
                  static_cast<unsigned long long>(row.delivered_dl),
                  static_cast<unsigned long long>(row.gap_dl),
                  static_cast<unsigned long long>(row.billed_legacy),
                  static_cast<unsigned long long>(row.billed_tlc));
    out += buf;
  }
  out += " metrics=";
  out += result.metrics.to_json();
  return out;
}

}  // namespace tlc::exp
