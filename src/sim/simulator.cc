#include "src/sim/simulator.h"

#include "src/util/check.h"

namespace bundler {

void Simulator::DispatchNext() {
  queue_.PopNext(&now_)();
  ++events_dispatched_;
}

void Simulator::RunUntil(TimePoint until) {
  stopped_ = false;
  const uint64_t start_dispatched = events_dispatched_;
  trace_.Trace(obs::TraceCat::kSim, obs::TraceEv::kSimRunStart, sim_comp_,
               now_, static_cast<uint64_t>(until.nanos()));
  while (!stopped_ && !queue_.Empty()) {
    if (queue_.NextTime() > until) {
      break;
    }
    DispatchNext();
  }
  if (now_ < until) {
    now_ = until;
  }
  trace_.Trace(obs::TraceCat::kSim, obs::TraceEv::kSimRunEnd, sim_comp_, now_,
               events_dispatched_ - start_dispatched, events_dispatched_);
}

void Simulator::RunAll() {
  stopped_ = false;
  const uint64_t start_dispatched = events_dispatched_;
  trace_.Trace(obs::TraceCat::kSim, obs::TraceEv::kSimRunStart, sim_comp_,
               now_);
  while (!stopped_ && !queue_.Empty()) {
    DispatchNext();
  }
  trace_.Trace(obs::TraceCat::kSim, obs::TraceEv::kSimRunEnd, sim_comp_, now_,
               events_dispatched_ - start_dispatched, events_dispatched_);
}

}  // namespace bundler
