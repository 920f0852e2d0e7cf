// A precomputed, time-ordered stream of future events (an arrival schedule)
// that keeps exactly one event pending in the simulator.
//
// Add reserves each entry's FIFO ticket (Simulator::ReserveSeq) when the
// entry is appended, and only the stream's head sits in the event heap; as an
// entry fires it arms its successor under that successor's own ticket. Every
// entry therefore dispatches exactly where scheduling it at Add time would
// have put it, relative to all other events, while the heap holds one entry
// per stream instead of one per future event.
#ifndef SRC_SIM_EVENT_STREAM_H_
#define SRC_SIM_EVENT_STREAM_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/sim/inline_function.h"
#include "src/sim/simulator.h"
#include "src/util/check.h"

namespace bundler {

template <typename T>
class EventStream {
 public:
  // Runs at each entry's time with the entry's value.
  using Handler = InlineFunction<void(const T&)>;

  EventStream(Simulator* sim, Handler on_fire) : sim_(sim), on_fire_(std::move(on_fire)) {
    BUNDLER_CHECK(sim_ != nullptr);
  }
  // Pending events capture `this`.
  EventStream(const EventStream&) = delete;
  EventStream& operator=(const EventStream&) = delete;

  // Appends an entry firing at `at`, no earlier than the previous entry.
  void Add(TimePoint at, T value) {
    BUNDLER_CHECK_MSG(entries_.empty() || at >= entries_.back().at,
                      "stream entries must be added in time order");
    entries_.push_back(Entry{at, sim_->ReserveSeq(), std::move(value)});
    if (next_ + 1 == entries_.size()) {
      Arm();  // the stream was idle: the new entry is its head
    }
  }

 private:
  struct Entry {
    TimePoint at;
    EventTicket ticket;
    T value;
  };

  void Arm() {
    const Entry& head = entries_[next_];
    sim_->ScheduleAt(head.at, head.ticket, [this]() { Fire(); });
  }

  void Fire() {
    // Copied out: the handler may Add to this stream and grow entries_.
    const T value = entries_[next_++].value;
    if (next_ < entries_.size()) {
      Arm();
    }
    on_fire_(value);
  }

  Simulator* sim_;
  Handler on_fire_;
  std::vector<Entry> entries_;
  size_t next_ = 0;  // index of the pending head
};

}  // namespace bundler

#endif  // SRC_SIM_EVENT_STREAM_H_
