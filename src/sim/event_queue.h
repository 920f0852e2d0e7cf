// Event queue for the discrete-event simulator: a 4-ary heap ordered by
// (time, insertion sequence) over generation-counted slots.
//
// Design (the simulator hot path — every link hop, timer, and control tick
// goes through here):
//  - Callbacks are InlineCallbacks: fixed-size inline storage, so scheduling
//    never heap-allocates. Slots are pooled on a free list and recycled.
//  - The heap stores (time, seq, slot) entries; slots hold the callback and
//    their current heap position, so Cancel is an O(log n) sift — no hash
//    lookups, no dead entries accumulating. A slot is live exactly while its
//    entry is in the heap.
//  - EventIds encode (generation, slot): a stale id (already fired or
//    cancelled) fails the generation check and is a no-op, exactly like the
//    old lazy-deletion semantics but without retaining tombstones.
//  - The seq tiebreak guarantees FIFO dispatch of events scheduled for the
//    same instant, which keeps runs deterministic. Every event fires once;
//    a recurring timer re-arms itself with a fresh push as the first
//    statement of its callback, and a moved deadline is a Cancel plus a
//    fresh push.
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

  // Profiling: the peak heap depth (concurrent pending events), updated on
  // every push.
  struct Profile {
    uint64_t max_heap = 0;
  };
  const Profile& profile() const { return profile_; }

  // Constructs the callable directly in a pooled slot and returns an id
  // usable with Cancel until the event fires. [[nodiscard]] across the
  // handle-returning API: dropping a handle is legal for fire-and-forget
  // one-shots only through Simulator::Schedule (which documents that
  // choice); at this layer a dropped handle or ignored Cancel verdict is a
  // bug.
  template <typename F>
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

  // Removes the event from the heap. Returns false (no-op) when the id
  // already fired, was cancelled, or is kInvalidEventId.
  [[nodiscard]] bool Cancel(EventId id);

  bool Empty() const { return heap_.empty(); }
  // Time of the earliest pending event; callers must ensure !Empty().
  TimePoint NextTime() const;

  // Pops the earliest event and returns its callback without invoking it.
  // The slot is freed first, so the callback may recycle it by scheduling
  // new events (ids never collide thanks to the generation counter).
  [[nodiscard]] Callback PopNext(TimePoint* time_out);

  size_t PendingForTest() const { return heap_.size(); }

 private:
  static constexpr uint32_t kNpos = 0xffffffffu;

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
  // inline callback storage makes it a 64-byte stride — putting the 4-byte
  // position there would turn each sift level into a cache miss. Freeing a
  // slot bumps its generation, so an id resolves only while its event is in
  // the heap.
  struct Slot {
    uint32_t gen = 0;
    uint32_t next_free = kNpos;
    Callback cb;
  };
  static_assert(sizeof(Slot) <= 64, "a slot fits one cache line");

  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    return a.key < b.key;
  }

  uint64_t NextSeq();
  // Constructs the callable straight into a pooled slot (no intermediate
  // InlineCallback) and queues it under (time, seq).
  template <typename F>
  EventId EmplaceAt(TimePoint time, uint64_t seq, F&& f) {
    uint32_t idx = AllocSlot();
    slots_[idx].cb.Emplace(std::forward<F>(f));
    HeapPush(HeapEntry{time, MakeKey(seq, idx)});
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
  void Place(uint32_t pos, HeapEntry e) {
    heap_[pos] = e;
    heap_pos_[e.slot()] = pos;
  }

  Profile profile_;
  std::vector<HeapEntry> heap_;  // 4-ary, ordered by (time, seq)
  std::vector<Slot> slots_;
  std::vector<uint32_t> heap_pos_;  // slot -> heap index, kNpos when free
  uint32_t free_head_ = kNpos;
  uint64_t next_seq_ = 1;
  // Key of the event being (or last) dispatched; ticketed pushes must land
  // after it.
  TimePoint cursor_time_ = TimePoint::FromNanos(std::numeric_limits<int64_t>::min());
  uint64_t cursor_seq_ = 0;
};

}  // namespace bundler

#endif  // SRC_SIM_EVENT_QUEUE_H_
