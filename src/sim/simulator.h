// Discrete-event simulator driver. Owns the clock and the event queue;
// every network component schedules timers through it.
//
// Scheduling guide for layers (see README "Simulator core"):
//  - One-shot work: Schedule/ScheduleAt. Slots are pooled and callbacks are
//    inline (InlineCallback), so this never heap-allocates. Every event
//    fires once.
//  - Recurring timers (control ticks, samplers): a one-shot whose callback
//    re-arms it with Schedule as its first statement, so events the tick
//    schedules for the next firing instant order after the next tick. The
//    owner keeps the latest id and cancels that one on teardown.
//  - Moved deadlines (shaper wakeups): Cancel the armed id, then Schedule
//    afresh.
//  - Time-ordered streams of future events (a link's propagating packets, a
//    precomputed arrival schedule): ReserveSeq one ticket per entry when the
//    entry is created, keep only the head pending, and arm each next entry
//    with ScheduleAt(t, ticket, cb). Order is as if every entry had been
//    scheduled when its ticket was reserved; the heap holds one event.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <utility>

#include "src/obs/counters.h"
#include "src/obs/trace.h"
#include "src/sim/event_queue.h"
#include "src/util/check.h"
#include "src/util/time.h"

namespace bundler {

class Simulator {
 public:
  // The simulator itself is trace component 0 (kind "sim").
  Simulator() { sim_comp_ = trace_.RegisterComponent("sim", "sim"); }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint now() const { return now_; }

  // Schedule `cb` to run after `delay` (>= 0) from now. Templated so the
  // callable is constructed straight into the event slot (no intermediate
  // callback object on the hot path). Schedule/ScheduleAt stay discardable
  // on purpose: fire-and-forget one-shots are the hot-path idiom, and a
  // dropped id is merely an un-cancellable event.
  template <typename F>
  EventId Schedule(TimeDelta delay, F&& cb) {
    BUNDLER_CHECK(delay >= TimeDelta::Zero());
    return queue_.Push(now_ + delay, std::forward<F>(cb));
  }
  // Schedule `cb` at absolute time `t` (>= now).
  template <typename F>
  EventId ScheduleAt(TimePoint t, F&& cb) {
    BUNDLER_CHECK_MSG(t >= now_, "scheduling into the past: %s < %s",
                      t.ToString().c_str(), now_.ToString().c_str());
    return queue_.Push(t, std::forward<F>(cb));
  }
  // Reserve the next FIFO position for a later ScheduleAt(t, ticket, cb).
  [[nodiscard]] EventTicket ReserveSeq() { return queue_.ReserveSeq(); }
  // Schedule `cb` at `t` (>= now) under a reserved ticket: it dispatches
  // where an event scheduled at the ReserveSeq call would have. The key
  // (t, ticket) must not lie behind the event being dispatched (CHECKed).
  template <typename F>
  EventId ScheduleAt(TimePoint t, EventTicket ticket, F&& cb) {
    BUNDLER_CHECK_MSG(t >= now_, "scheduling into the past: %s < %s",
                      t.ToString().c_str(), now_.ToString().c_str());
    return queue_.Push(t, ticket, std::forward<F>(cb));
  }
  // Cancel-if-pending. Unlike EventQueue::Cancel this is NOT [[nodiscard]]:
  // "stop it if it has not fired yet" is a sanctioned idiom here (timers race
  // with the events they guard), and the bool is informational.
  bool Cancel(EventId id) { return queue_.Cancel(id); }

  // Run until the queue drains or the clock would pass `until`.
  void RunUntil(TimePoint until);
  // Run until the queue drains completely.
  void RunAll();
  // Stop an in-progress Run* after the current event returns.
  void Stop() { stopped_ = true; }

  uint64_t events_dispatched() const { return events_dispatched_; }

  // Observability: the per-simulator flight recorder and counter registry.
  // Components reach them through their Simulator* and register at
  // construction time; see src/obs/.
  obs::Tracer& trace() { return trace_; }
  const obs::Tracer& trace() const { return trace_; }
  obs::CounterRegistry& counters() { return counters_; }
  const obs::CounterRegistry& counters() const { return counters_; }
  uint32_t sim_comp() const { return sim_comp_; }

  // Event-queue profiling (peak heap depth).
  const EventQueue::Profile& queue_profile() const { return queue_.profile(); }
  size_t PendingForTest() const { return queue_.PendingForTest(); }

 private:
  void DispatchNext();

  TimePoint now_;
  EventQueue queue_;
  bool stopped_ = false;
  uint64_t events_dispatched_ = 0;
  obs::Tracer trace_;
  obs::CounterRegistry counters_;
  uint32_t sim_comp_ = 0;
};

}  // namespace bundler

#endif  // SRC_SIM_SIMULATOR_H_
