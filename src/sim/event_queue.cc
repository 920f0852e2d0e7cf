#include "src/sim/event_queue.h"

#include <utility>

#include "src/util/check.h"

namespace bundler {

uint64_t EventQueue::NextSeq() {
  BUNDLER_CHECK(next_seq_ < kMaxSeq);
  return next_seq_++;
}

uint32_t EventQueue::AllocSlot() {
  if (free_head_ != kNpos) {
    uint32_t idx = free_head_;
    free_head_ = slots_[idx].next_free;
    slots_[idx].next_free = kNpos;
    return idx;
  }
  BUNDLER_CHECK(slots_.size() < kSlotMask);
  slots_.emplace_back();
  heap_pos_.push_back(kNpos);
  return static_cast<uint32_t>(slots_.size() - 1);
}

void EventQueue::FreeSlot(uint32_t idx) {
  Slot& slot = slots_[idx];
  slot.cb.Reset();
  heap_pos_[idx] = kNpos;
  // Bumping the generation invalidates every outstanding id for this slot.
  // Wrap would let a stale id (2^32 recycles old) resolve to a live event;
  // fail loudly instead, like the kMaxSeq limit in NextSeq.
  ++slot.gen;
  BUNDLER_CHECK(slot.gen != 0);
  slot.next_free = free_head_;
  free_head_ = idx;
}

uint32_t EventQueue::Resolve(EventId id) const {
  if (id == kInvalidEventId) {
    return kNpos;
  }
  uint64_t low = id & 0xffffffffu;
  if (low == 0 || low > slots_.size()) {
    return kNpos;
  }
  uint32_t idx = static_cast<uint32_t>(low - 1);
  if (slots_[idx].gen != static_cast<uint32_t>(id >> 32)) {
    return kNpos;
  }
  return idx;
}

void EventQueue::SiftUp(uint32_t pos, HeapEntry e) {
  while (pos > 0) {
    uint32_t parent = (pos - 1) / 4;
    if (!Earlier(e, heap_[parent])) {
      break;
    }
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, e);
}

void EventQueue::HeapPush(HeapEntry e) {
  heap_.emplace_back();  // placeholder; SiftUp writes the final position
  if (heap_.size() > profile_.max_heap) {
    profile_.max_heap = heap_.size();
  }
  SiftUp(static_cast<uint32_t>(heap_.size() - 1), e);
}

void EventQueue::HeapRemoveAt(uint32_t pos) {
  BUNDLER_CHECK(pos < heap_.size());
  heap_pos_[heap_[pos].slot()] = kNpos;
  HeapEntry last = heap_.back();
  heap_.pop_back();
  const uint32_t n = static_cast<uint32_t>(heap_.size());
  if (pos == n) {
    return;  // removed the tail
  }
  if (pos > 0 && Earlier(last, heap_[(pos - 1) / 4])) {
    SiftUp(pos, last);
    return;
  }
  // Bottom-up re-seat (Knuth's hole descent): pull the min-child chain up
  // into the hole without comparing against `last` at every level, then
  // bubble `last` up from the vacated leaf. The re-seated element is the
  // former tail — almost always one of the latest events — so the upward
  // pass nearly always stops immediately, saving a comparison per level on
  // the hottest operation in the simulator (popping the earliest event).
  uint32_t hole = pos;
  while (true) {
    uint32_t first_child = hole * 4 + 1;
    if (first_child >= n) {
      break;
    }
    uint32_t last_child = first_child + 3 < n - 1 ? first_child + 3 : n - 1;
    uint32_t best = first_child;
    for (uint32_t c = first_child + 1; c <= last_child; ++c) {
      if (Earlier(heap_[c], heap_[best])) {
        best = c;
      }
    }
    Place(hole, heap_[best]);
    hole = best;
  }
  SiftUp(hole, last);
}

bool EventQueue::Cancel(EventId id) {
  uint32_t idx = Resolve(id);
  if (idx == kNpos) {
    return false;
  }
  HeapRemoveAt(heap_pos_[idx]);
  FreeSlot(idx);
  return true;
}

TimePoint EventQueue::NextTime() const {
  BUNDLER_CHECK(!heap_.empty());
  return heap_[0].time;
}

EventQueue::Callback EventQueue::PopNext(TimePoint* time_out) {
  BUNDLER_CHECK(!heap_.empty());
  HeapEntry head = heap_[0];
  *time_out = head.time;
  HeapRemoveAt(0);
  cursor_time_ = head.time;
  cursor_seq_ = SeqOf(head.key);
  uint32_t idx = head.slot();
  Callback cb = std::move(slots_[idx].cb);
  FreeSlot(idx);
  return cb;
}

}  // namespace bundler
