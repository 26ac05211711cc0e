// Link-layer mobility (§3.1 gap cause 2): handover between base stations.
//
// A moving device periodically switches serving cells. During the handover
// interruption the source cell's buffered downlink data is discarded and
// in-flight traffic is lost (X2-style handover without data forwarding),
// while the gateway keeps charging — the mobility-induced charging gap the
// measurement studies [10] report.
//
// The controller owns the serving-cell decision; the testbed sends the
// gateway's and the device's traffic through serving().
#pragma once

#include <vector>

#include "epc/basestation.hpp"

namespace tlc::epc {

class HandoverController {
 public:
  struct Config {
    /// Time between handovers (device speed proxy).
    Duration period = std::chrono::seconds{30};
    /// Data interruption while the device switches cells.
    Duration interruption = std::chrono::milliseconds{80};
  };

  /// All cells serve the same device; cell 0 starts as the serving cell.
  /// Every non-serving cell is suspended. `start()` begins the periodic
  /// handover schedule.
  HandoverController(sim::Scheduler& sched, Config config,
                     std::vector<BaseStation*> cells);

  void start();

  /// The cell traffic goes through. During the interruption window every
  /// cell is suspended, so packets sent through it drop with
  /// DropCause::kHandover — charged (downlink) but never delivered.
  [[nodiscard]] BaseStation& serving() { return *cells_[serving_index_]; }
  [[nodiscard]] std::size_t serving_index() const { return serving_index_; }

  /// Executes one handover to the next cell immediately (also used by the
  /// periodic schedule).
  void execute_handover();

  /// Counter epc.handover.count, the controller's only handover tally;
  /// trace component "epc.handover", one "handover" event per execution
  /// (from/to cell indices) at info.
  void set_observability(obs::Obs& obs);

 private:
  sim::Scheduler& sched_;
  Config config_;
  std::vector<BaseStation*> cells_;
  std::size_t serving_index_ = 0;
  bool started_ = false;

  obs::Obs* obs_ = nullptr;
  obs::Counter* m_handovers_ = nullptr;
};

}  // namespace tlc::epc
