#include "serve/replay.hpp"

#include <algorithm>
#include <span>
#include <thread>
#include <vector>

namespace tlc::serve {
namespace {

/// Sends the fleet kernel's records into the pipeline, one cell at a time:
/// each cell's kSettlement per (device, cycle) is buffered, and the cell's
/// kCellReport closes the run, which goes to the store as one submit.
struct SubmitSink {
  SubmitSink(ServePipeline& p, std::uint32_t devices_per_cell)
      : pipeline(p) {
    run.reserve(std::size_t{devices_per_cell} + 1);
  }

  void settled(const epc::DeviceCycle& d) {
    ExchangeRecord& rec = run.emplace_back();
    rec.kind = RecordKind::kSettlement;
    rec.device = d.device;
    rec.cell = d.cell;
    rec.cycle = d.cycle;
    rec.charged_dl = d.settled.charged_dl;
    rec.delivered_dl = d.settled.delivered_dl;
    rec.charged_ul = d.settled.charged_ul;
    rec.billed_legacy = d.settled.billed_legacy;
    rec.billed_tlc = d.settled.billed_tlc;
    rec.gap_by_cause[static_cast<std::size_t>(GapCause::kDisconnect)] =
        d.dropped_disconnect;
    rec.gap_by_cause[static_cast<std::size_t>(GapCause::kRadio)] =
        d.dropped_radio;
    rec.gap_by_cause[static_cast<std::size_t>(GapCause::kHandover)] =
        d.dropped_handover;
    rec.bursts = d.bursts;
    rec.reconnects = d.reconnects;
  }

  void report(const epc::CellReport& r) {
    ExchangeRecord& rec = run.emplace_back();
    rec.kind = RecordKind::kCellReport;
    rec.cell = r.cell;
    rec.cycle = r.cycle;
    rec.charged_dl = r.charged_dl;
    rec.delivered_dl = r.delivered_dl;
    pipeline.submit(std::span<ExchangeRecord>(run));
    run.clear();
  }

  ServePipeline& pipeline;
  std::vector<ExchangeRecord> run;  // one cell: never outgrows the reserve
};

}  // namespace

ReplayResult run_replay(const ReplayConfig& config) {
  // Before any producer or consumer thread exists (the pipeline checks
  // the loss weight, consumer count and store capacity the same way).
  epc::check_walk(config, "run_replay");
  check_thread_count(config.producers, "run_replay");
  epc::DeviceFleet fleet(config.devices, config.devices_per_cell,
                         config.seed);
  const std::uint32_t cells = fleet.cells();
  const std::size_t producers = std::max<std::size_t>(
      1, std::min<std::size_t>(config.producers, cells));

  PipelineConfig pipe_cfg;
  pipe_cfg.consumers = config.consumers;
  pipe_cfg.store_capacity = config.store_capacity;
  pipe_cfg.cycles = config.cycles;
  pipe_cfg.loss_weight = config.loss_weight;
  pipe_cfg.clock = config.clock;
  ServePipeline pipeline(pipe_cfg);

  const std::uint32_t cells_per_producer =
      (cells + static_cast<std::uint32_t>(producers) - 1) /
      static_cast<std::uint32_t>(producers);
  {
    std::vector<std::jthread> threads;  // joined when the block exits
    threads.reserve(producers);
    for (std::size_t p = 0; p < producers; ++p) {
      const std::uint32_t cell_begin = std::min(
          static_cast<std::uint32_t>(p) * cells_per_producer, cells);
      const std::uint32_t cell_end =
          std::min(cell_begin + cells_per_producer, cells);
      threads.emplace_back([&, cell_begin, cell_end] {
        SubmitSink sink{pipeline, config.devices_per_cell};
        epc::walk_cells(fleet, config, cell_begin, cell_end, sink);
      });
    }
  }
  pipeline.drain();

  ReplayResult result;
  result.devices = fleet.devices();
  result.cells = cells;
  result.stats = pipeline.stats();
  result.fleet_digest = fleet.digest();
  return result;
}

}  // namespace tlc::serve
