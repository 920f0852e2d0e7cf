// Event queue for the discrete-event simulator: a 4-ary heap ordered by
// (time, insertion sequence) over generation-counted slots.
//
// Design (the simulator hot path — every link hop, timer, and control tick
// goes through here):
//  - Callbacks are InlineCallbacks: fixed-size inline storage, so scheduling
//    never heap-allocates. Slots are pooled on a free list and recycled.
//  - The heap stores (time, seq, slot) entries; slots hold the callback and
//    their current heap position, so Cancel and Reschedule are O(log n)
//    sift operations — no hash lookups, no dead entries accumulating.
//  - EventIds encode (generation, slot): a stale id (already fired or
//    cancelled) fails the generation check and is a no-op, exactly like the
//    old lazy-deletion semantics but without retaining tombstones.
//  - The seq tiebreak guarantees FIFO dispatch of events scheduled for the
//    same instant, which keeps runs deterministic. Reschedule assigns a fresh
//    seq (it is ordered like a brand-new push at the new time).
//  - Periodic events (PushPeriodic) keep their slot forever: DispatchHead
//    re-arms them at time+period *before* invoking the callback, matching the
//    FIFO ordering of the classic "callback re-schedules itself first" idiom
//    while skipping the cancel/push/allocate churn.
//  - Event streams: ReserveSeq hands out a FIFO position without pushing, and
//    a ticketed Push later enqueues an event under that (time, seq) key. A
//    component owning a time-ordered stream of future events (a link's
//    propagating packets, a precomputed arrival schedule) reserves one ticket
//    per entry when the entry is created, keeps only the stream's head in the
//    heap, and arms the next entry with its own ticket when the head fires.
//    Dispatch order is exactly what pushing every entry up front would give,
//    while the heap holds one entry per stream.
//
// Contract: Empty() and NextTime() are const and never mutate the heap; the
// head is always live (cancellation removes eagerly).
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/inline_function.h"
#include "src/util/check.h"
#include "src/util/time.h"

namespace bundler {

using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

// A FIFO position reserved by EventQueue::ReserveSeq, redeemed by a ticketed
// Push. Each ticket is pushed at most once.
struct EventTicket {
  uint64_t seq = 0;
};

class EventQueue {
 public:
  using Callback = InlineCallback;

  // Profiling counters: operation mix, peak heap depth, and a log2
  // histogram of heap size at dispatch time (bucket i counts dispatches that
  // popped from a heap of size in [2^(i-1), 2^i)). Maintained
  // unconditionally — each hook is one or two increments on operations that
  // already cost a sift.
  struct Profile {
    uint64_t pushes = 0;            // one-shot Push calls (ticketed too)
    uint64_t periodic_pushes = 0;   // PushPeriodic calls (not re-arms)
    uint64_t cancels = 0;           // successful Cancels
    uint64_t reschedules = 0;       // successful Reschedules
    uint64_t dispatches_oneshot = 0;
    uint64_t dispatches_periodic = 0;
    uint64_t max_heap = 0;          // peak concurrent pending events
    uint64_t dispatch_size_log2[32] = {};
  };
  const Profile& profile() const { return profile_; }

  // Returns an id usable with Cancel/Reschedule until the event fires.
  // [[nodiscard]] across the handle-returning API: dropping a handle is legal
  // for fire-and-forget one-shots only through Simulator::Schedule (which
  // documents that choice); at this layer a dropped handle or ignored
  // Cancel/Reschedule verdict is a bug.
  [[nodiscard]] EventId Push(TimePoint time, Callback cb);

  // Hot-path overload: constructs the callable directly in the pooled slot
  // (no intermediate InlineCallback, one fewer capture copy per schedule).
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, Callback>>>
  [[nodiscard]] EventId Push(TimePoint time, F&& f) {
    return EmplaceAt(time, NextSeq(), std::forward<F>(f));
  }

  // Reserves the next FIFO position without pushing anything: the ticket
  // orders after every event pushed before this call and before every event
  // pushed after it, whenever it is redeemed.
  [[nodiscard]] EventTicket ReserveSeq() { return EventTicket{NextSeq()}; }

  // Pushes a one-shot event under the pre-reserved key (time, ticket.seq).
  // CHECK-fails when that key is not after the event being (or last)
  // dispatched: the event would otherwise fire out of its reserved order.
  template <typename F>
  [[nodiscard]] EventId Push(TimePoint time, EventTicket ticket, F&& f) {
    BUNDLER_CHECK_MSG(ticket.seq != 0 && ticket.seq < next_seq_,
                      "ticket %llu was never reserved",
                      static_cast<unsigned long long>(ticket.seq));
    BUNDLER_CHECK_MSG(
        time > cursor_time_ || (time == cursor_time_ && ticket.seq > cursor_seq_),
        "ticketed push at (%s, %llu) behind the dispatch position (%s, %llu)",
        time.ToString().c_str(), static_cast<unsigned long long>(ticket.seq),
        cursor_time_.ToString().c_str(),
        static_cast<unsigned long long>(cursor_seq_));
    return EmplaceAt(time, ticket.seq, std::forward<F>(f));
  }

  // Fires at `first`, then every `period` until cancelled. The id stays
  // valid across firings (cancel it to stop the timer) — dropping it makes
  // the timer unstoppable, hence [[nodiscard]].
  [[nodiscard]] EventId PushPeriodic(TimePoint first, TimeDelta period, Callback cb);

  // Removes the event from the heap. Returns false (no-op) when the id
  // already fired, was cancelled, or is kInvalidEventId.
  [[nodiscard]] bool Cancel(EventId id);

  // Moves a pending event to `t` with fresh FIFO ordering (as if it were
  // pushed at `t` now). For a periodic event this moves the next firing;
  // later firings follow at t+period. Returns false when the id is dead.
  [[nodiscard]] bool Reschedule(EventId id, TimePoint t);

  bool Empty() const { return heap_.empty(); }
  // Time of the earliest pending event; callers must ensure !Empty().
  TimePoint NextTime() const;

  // Pops the earliest event and returns its callback without invoking it.
  // One-shot events only (CHECK-fails on a periodic head); the Simulator
  // drives DispatchHead, which understands periodic re-arming.
  [[nodiscard]] Callback PopNext(TimePoint* time_out);

  // Pops the earliest event and invokes it. Periodic events are re-armed at
  // time+period (fresh seq) before their callback runs.
  void DispatchHead();

  size_t PendingForTest() const { return heap_.size(); }

 private:
  static constexpr uint32_t kNpos = 0xffffffffu;

  enum class SlotState : uint8_t {
    kFree,
    kQueued,
    kDispatching,         // periodic, callback currently running
    kDispatchCancelled,   // cancelled from inside its own dispatch
  };

  // 16 bytes: the sift loops are cache-bound on the heap array, so seq and
  // slot share one word (seq in the high 40 bits, slot in the low 24).
  // Comparing `key` compares seq — seqs are unique per entry, so the slot
  // bits never influence the order. Limits: 2^24 concurrent events, 2^40
  // scheduled events per queue lifetime (CHECK-enforced, ~12 days of
  // continuous dispatch at 1M events/sec).
  struct HeapEntry {
    TimePoint time;
    uint64_t key;

    uint32_t slot() const { return static_cast<uint32_t>(key & kSlotMask); }
  };
  static constexpr uint64_t kSlotMask = (1ull << 24) - 1;
  static constexpr uint64_t kMaxSeq = 1ull << 40;
  static uint64_t MakeKey(uint64_t seq, uint32_t slot) {
    return (seq << 24) | slot;
  }
  static uint64_t SeqOf(uint64_t key) { return key >> 24; }

  // Heap positions live in a dense side array (heap_pos_), not in Slot: the
  // sift loops update the position of every entry they move, and Slot's
  // inline callback storage makes it an 80-byte stride — putting the 4-byte
  // position there would turn each sift level into a cache miss.
  struct Slot {
    uint32_t gen = 0;
    SlotState state = SlotState::kFree;
    uint32_t next_free = kNpos;
    TimeDelta period;  // zero => one-shot
    Callback cb;
  };

  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    return a.key < b.key;
  }

  uint64_t NextSeq();
  uint64_t NextKey(uint32_t slot) { return MakeKey(NextSeq(), slot); }
  // Constructs the callable straight into a pooled slot (no intermediate
  // InlineCallback) and queues it under (time, seq).
  template <typename F>
  EventId EmplaceAt(TimePoint time, uint64_t seq, F&& f) {
    uint32_t idx = AllocSlot();
    Slot& slot = slots_[idx];
    slot.state = SlotState::kQueued;
    slot.period = TimeDelta::Zero();
    slot.cb.Emplace(std::forward<F>(f));
    HeapPush(HeapEntry{time, MakeKey(seq, idx)});
    ++profile_.pushes;
    return IdFor(idx);
  }
  uint32_t AllocSlot();
  void FreeSlot(uint32_t idx);
  // Slot index for a live id, or kNpos when stale/invalid.
  uint32_t Resolve(EventId id) const;
  EventId IdFor(uint32_t idx) const {
    return (static_cast<EventId>(slots_[idx].gen) << 32) |
           static_cast<EventId>(idx + 1);
  }

  void HeapPush(HeapEntry e);
  void HeapRemoveAt(uint32_t pos);
  void SiftUp(uint32_t pos, HeapEntry e);
  void SiftDown(uint32_t pos, HeapEntry e);
  void Place(uint32_t pos, HeapEntry e) {
    heap_[pos] = e;
    heap_pos_[e.slot()] = pos;
  }

  Profile profile_;
  std::vector<HeapEntry> heap_;  // 4-ary, ordered by (time, seq)
  std::vector<Slot> slots_;
  std::vector<uint32_t> heap_pos_;  // slot -> heap index, kNpos when absent
  uint32_t free_head_ = kNpos;
  uint64_t next_seq_ = 1;
  // Key of the event being (or last) dispatched; ticketed pushes must land
  // after it.
  TimePoint cursor_time_ = TimePoint::FromNanos(std::numeric_limits<int64_t>::min());
  uint64_t cursor_seq_ = 0;
};

}  // namespace bundler

#endif  // SRC_SIM_EVENT_QUEUE_H_
