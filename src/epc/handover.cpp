#include "epc/handover.hpp"

#include <stdexcept>

namespace tlc::epc {

HandoverController::HandoverController(sim::Scheduler& sched, Config config,
                                       std::vector<BaseStation*> cells)
    : sched_(sched), config_(config), cells_(std::move(cells)) {
  if (cells_.size() < 2) {
    throw std::invalid_argument{"HandoverController: need >= 2 cells"};
  }
  for (std::size_t i = 1; i < cells_.size(); ++i) {
    cells_[i]->suspend(net::DropCause::kHandover);
  }
  cells_[0]->resume();
}

void HandoverController::start() {
  if (started_) return;
  started_ = true;
  // Self-rescheduling loop: each firing executes a handover and arms the
  // next one.
  struct Loop {
    HandoverController* self;
    void operator()() const {
      self->execute_handover();
      self->sched_.schedule_after(self->config_.period, Loop{self});
    }
  };
  sched_.schedule_after(config_.period, Loop{this});
}

void HandoverController::set_observability(obs::Obs& obs) {
  obs_ = &obs;
  m_handovers_ = &obs.metrics.counter("epc.handover.count");
}

void HandoverController::execute_handover() {
  if (m_handovers_ != nullptr) m_handovers_->inc();
  const std::size_t target = (serving_index_ + 1) % cells_.size();
  TLC_TRACE_EVENT(obs_, "epc.handover", "handover", obs::TraceLevel::kInfo,
                  obs::field("from", static_cast<std::uint64_t>(serving_index_)),
                  obs::field("to", static_cast<std::uint64_t>(target)));

  // Source cell releases the device: buffered data is discarded (no X2
  // forwarding), and nothing flows until the target admits the device.
  cells_[serving_index_]->suspend(net::DropCause::kHandover);
  serving_index_ = target;

  // The target cell completes admission after the interruption window.
  sched_.schedule_after(config_.interruption, [this, target] {
    if (serving_index_ == target) {
      cells_[target]->resume();
    }
  });
}

}  // namespace tlc::epc
