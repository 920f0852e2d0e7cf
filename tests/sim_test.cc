// Unit tests for the discrete-event simulator core: ordering, cancellation
// (including mid-dispatch), ticketed event streams, and the engine's
// zero-allocation guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <random>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/event_stream.h"
#include "src/sim/simulator.h"

// Global allocation counter: this binary replaces operator new/delete so the
// steady-state test below can assert the engine schedules without touching
// the heap. Counting only (no behavior change); the replacement is binary
// wide, which is exactly what we want — any hidden allocation on the
// schedule/dispatch path shows up here.
static uint64_t g_heap_allocs = 0;

// noinline: keeps GCC from pairing the inlined malloc with a visible free
// (spurious -Wmismatched-new-delete) and from eliding counted allocations.
__attribute__((noinline)) void* operator new(std::size_t size) {
  ++g_heap_allocs;
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t size) { return operator new(size); }
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace bundler {
namespace {

TEST(EventQueueTest, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  (void)q.Push(TimePoint::FromNanos(30), [&]() { order.push_back(3); });
  (void)q.Push(TimePoint::FromNanos(10), [&]() { order.push_back(1); });
  (void)q.Push(TimePoint::FromNanos(20), [&]() { order.push_back(2); });
  TimePoint t;
  while (!q.Empty()) {
    q.PopNext(&t)();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoAtSameTimestamp) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    (void)q.Push(TimePoint::FromNanos(5), [&order, i]() { order.push_back(i); });
  }
  TimePoint t;
  while (!q.Empty()) {
    q.PopNext(&t)();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventQueueTest, CancelSkipsEvent) {
  EventQueue q;
  int fired = 0;
  EventId id = q.Push(TimePoint::FromNanos(1), [&]() { ++fired; });
  (void)q.Push(TimePoint::FromNanos(2), [&]() { ++fired; });
  EXPECT_TRUE(q.Cancel(id));
  TimePoint t;
  while (!q.Empty()) {
    q.PopNext(&t)();
  }
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, CancelUnknownIdIsNoop) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(123456));
  EXPECT_FALSE(q.Cancel(kInvalidEventId));
  EXPECT_TRUE(q.Empty());
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  TimePoint seen;
  sim.Schedule(TimeDelta::Millis(5), [&]() { seen = sim.now(); });
  sim.RunAll();
  EXPECT_EQ(seen, TimePoint::Zero() + TimeDelta::Millis(5));
  EXPECT_EQ(sim.events_dispatched(), 1u);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(TimeDelta::Millis(5), [&]() { ++fired; });
  sim.Schedule(TimeDelta::Millis(15), [&]() { ++fired; });
  sim.RunUntil(TimePoint::Zero() + TimeDelta::Millis(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), TimePoint::Zero() + TimeDelta::Millis(10));
  sim.RunUntil(TimePoint::Zero() + TimeDelta::Millis(20));
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  std::vector<double> times;
  std::function<void()> tick = [&]() {
    times.push_back(sim.now().ToSeconds());
    if (times.size() < 5) {
      sim.Schedule(TimeDelta::Seconds(1), tick);
    }
  };
  sim.Schedule(TimeDelta::Seconds(1), tick);
  sim.RunAll();
  ASSERT_EQ(times.size(), 5u);
  EXPECT_DOUBLE_EQ(times.back(), 5.0);
}

TEST(SimulatorTest, StopHaltsDispatch) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(TimeDelta::Millis(1), [&]() {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(TimeDelta::Millis(2), [&]() { ++fired; });
  sim.RunAll();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, CancelPreventsCallback) {
  Simulator sim;
  int fired = 0;
  EventId id = sim.Schedule(TimeDelta::Millis(1), [&]() { ++fired; });
  sim.Cancel(id);
  sim.RunAll();
  EXPECT_EQ(fired, 0);
}

TEST(EventQueueTest, ConstEmptyAndNextTime) {
  EventQueue q;
  const EventQueue& cq = q;  // the inspection API must be genuinely const
  EXPECT_TRUE(cq.Empty());
  (void)q.Push(TimePoint::FromNanos(7), []() {});
  EXPECT_FALSE(cq.Empty());
  EXPECT_EQ(cq.NextTime(), TimePoint::FromNanos(7));
}

TEST(EventQueueTest, CancelRemovesEagerly) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(q.Push(TimePoint::FromNanos(i), []() {}));
  }
  // No tombstones: cancelled events leave the heap immediately.
  for (int i = 0; i < 8; i += 2) {
    EXPECT_TRUE(q.Cancel(ids[i]));
  }
  EXPECT_EQ(q.PendingForTest(), 4u);
  EXPECT_FALSE(q.Cancel(ids[0]));  // stale id: generation mismatch
}

TEST(EventQueueTest, StaleIdAfterSlotReuseIsNoop) {
  EventQueue q;
  EventId first = q.Push(TimePoint::FromNanos(1), []() {});
  ASSERT_TRUE(q.Cancel(first));
  // The freed slot is recycled; the old id must not cancel the new event.
  int fired = 0;
  (void)q.Push(TimePoint::FromNanos(2), [&]() { ++fired; });
  EXPECT_FALSE(q.Cancel(first));
  TimePoint t;
  while (!q.Empty()) {
    q.PopNext(&t)();
  }
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, CancelDuringDispatchOfSameInstantEvent) {
  Simulator sim;
  int fired = 0;
  EventId victim = kInvalidEventId;
  // Both events at the same instant; the first cancels the second while the
  // dispatch loop is already inside that instant.
  sim.Schedule(TimeDelta::Millis(1), [&]() { sim.Cancel(victim); });
  victim = sim.Schedule(TimeDelta::Millis(1), [&]() { ++fired; });
  sim.RunAll();
  EXPECT_EQ(fired, 0);
}

// Randomized mirror test: the queue must dispatch exactly the live events in
// (time, FIFO) order under interleaved push / cancel / move (cancel plus a
// fresh push), matching a naive reference model.
TEST(EventQueueTest, RandomizedOrderMatchesReferenceModel) {
  struct Ref {
    int64_t time_ns;
    uint64_t order;  // monotonically increasing push stamp
    int label;
  };
  std::mt19937_64 rng(20260729);
  EventQueue q;
  std::vector<int> fired;
  std::vector<Ref> live;
  std::vector<std::pair<EventId, size_t>> pending;  // id -> index into live
  uint64_t stamp = 0;
  int next_label = 0;
  for (int op = 0; op < 4000; ++op) {
    uint64_t pick = rng() % 10;
    if (pick < 6 || pending.empty()) {
      int64_t t = static_cast<int64_t>(rng() % 64);  // dense times force ties
      int label = next_label++;
      EventId id = q.Push(TimePoint::FromNanos(t),
                          [&fired, label]() { fired.push_back(label); });
      live.push_back(Ref{t, ++stamp, label});
      pending.emplace_back(id, live.size() - 1);
    } else if (pick < 8) {
      size_t victim = rng() % pending.size();
      ASSERT_TRUE(q.Cancel(pending[victim].first));
      live[pending[victim].second].label = -1;  // tombstone in the model only
      pending.erase(pending.begin() + victim);
    } else {
      // Move a pending event: cancel it and push its callback afresh.
      size_t victim = rng() % pending.size();
      int64_t t = static_cast<int64_t>(rng() % 64);
      ASSERT_TRUE(q.Cancel(pending[victim].first));
      Ref& moved = live[pending[victim].second];
      int label = moved.label;
      pending[victim].first = q.Push(TimePoint::FromNanos(t),
                                     [&fired, label]() { fired.push_back(label); });
      moved.time_ns = t;
      moved.order = ++stamp;
    }
  }
  TimePoint t;
  while (!q.Empty()) {
    q.PopNext(&t)();
  }
  std::vector<Ref> expected;
  for (const Ref& r : live) {
    if (r.label >= 0) {
      expected.push_back(r);
    }
  }
  std::sort(expected.begin(), expected.end(), [](const Ref& a, const Ref& b) {
    return a.time_ns != b.time_ns ? a.time_ns < b.time_ns : a.order < b.order;
  });
  ASSERT_EQ(fired.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(fired[i], expected[i].label) << "at dispatch " << i;
  }
}

TEST(SimulatorTest, SteadyStateSchedulingDoesNotAllocate) {
  Simulator sim;
  // Warm-up: grow the slot pool and heap arrays to the working-set size and
  // churn through them once so the free list is populated.
  constexpr int kPending = 512;
  for (int i = 0; i < kPending; ++i) {
    sim.Schedule(TimeDelta::Micros(i + 1), []() {});
  }
  sim.RunAll();

  uint64_t before = g_heap_allocs;
  // Steady state: a self-re-arming tick, a deadline moved by cancel plus a
  // fresh push every tick, and a block of one-shots per tick — all with
  // inline captures. None of this may allocate.
  struct Ticker {
    Simulator* sim;
    int chain = 0;
    EventId movable = kInvalidEventId;

    void Tick() {
      if (++chain > 100) {
        sim->Cancel(movable);
        return;
      }
      sim->Schedule(TimeDelta::Micros(50), [this]() { Tick(); });
      EXPECT_TRUE(sim->Cancel(movable));
      movable = sim->Schedule(TimeDelta::Seconds(3600), []() {});
      for (int i = 0; i < kPending / 2; ++i) {
        sim->Schedule(TimeDelta::Micros(1 + i % 7), []() {});
      }
    }
  };
  Ticker ticker{&sim};
  ticker.movable = sim.Schedule(TimeDelta::Seconds(3600), []() {});
  sim.Schedule(TimeDelta::Micros(50), [&ticker]() { ticker.Tick(); });
  sim.RunAll();
  EXPECT_GT(ticker.chain, 100);
  EXPECT_EQ(g_heap_allocs - before, 0u)
      << "the schedule/cancel/dispatch hot path must not touch the heap";
}

// --- Ticketed event streams (Simulator::ReserveSeq + ScheduleAt(t, ticket)) ---

TEST(SimulatorTicketTest, TicketKeepsTheFifoPositionOfItsReservation) {
  Simulator sim;
  std::vector<int> fired;
  sim.Schedule(TimeDelta::Micros(5), [&fired]() { fired.push_back(1); });
  const EventTicket ticket = sim.ReserveSeq();
  sim.Schedule(TimeDelta::Micros(5), [&fired]() { fired.push_back(3); });
  // Pushed last, but ordered where it was reserved: between 1 and 3.
  sim.ScheduleAt(TimePoint::Zero() + TimeDelta::Micros(5), ticket,
                 [&fired]() { fired.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

// Drives one randomized schedule of N time-ordered streams interleaved with
// ordinary events, in one of two ways: every stream entry pushed as a plain
// event when it is created, or each stream an EventStream (a ticket reserved
// per entry, only the head pending). Firing some entries schedules ordinary
// follow-ups and appends new entries to their stream mid-run, identically in
// both modes.
class StreamFuzz {
 public:
  static constexpr int kStreams = 8;

  StreamFuzz(bool ticketed, uint64_t seed) : ticketed_(ticketed) {
    for (int k = 0; k < kStreams; ++k) {
      streams_[k] = std::make_unique<EventStream<int>>(
          &sim, [this, k](const int& id) { Fire(k, id); });
    }
    std::mt19937_64 rng(seed);
    for (int step = 0; step < 1500; ++step) {
      const uint64_t r = rng();
      if (r % 4 == 0) {
        const int id = next_id_++;
        sim.ScheduleAt(TimePoint::Zero() + TimeDelta::Nanos(static_cast<int64_t>(rng() % 40) * 250),
                       [this, id]() { Fire(-1, id); });
        continue;
      }
      const int k = static_cast<int>(r % kStreams);
      Append(k, last_at_[k] + TimeDelta::Nanos(static_cast<int64_t>(rng() % 3) * 250));
    }
  }

  Simulator sim;
  std::vector<int> fired;

 private:
  void Append(int k, TimePoint at) {
    const int id = next_id_++;
    last_at_[k] = at;
    if (ticketed_) {
      streams_[k]->Add(at, id);
    } else {
      sim.ScheduleAt(at, [this, k, id]() { Fire(k, id); });
    }
  }

  void Fire(int k, int id) {
    fired.push_back(id);
    if (id % 3 == 0) {
      sim.Schedule(TimeDelta::Nanos(id % 4 * 250), [this, id]() { fired.push_back(-id); });
    }
    if (k >= 0 && id % 5 == 0 && next_id_ < 3000) {
      const TimePoint base = std::max(sim.now(), last_at_[k]);
      Append(k, base + TimeDelta::Nanos(id % 7 * 250));
    }
  }

  bool ticketed_;
  int next_id_ = 1;
  std::unique_ptr<EventStream<int>> streams_[kStreams];
  TimePoint last_at_[kStreams];
};

TEST(SimulatorTicketTest, TicketedStreamsMatchUpFrontPushes) {
  for (uint64_t seed : {1u, 2u, 20261019u}) {
    StreamFuzz ticketed(/*ticketed=*/true, seed);
    StreamFuzz plain(/*ticketed=*/false, seed);
    ticketed.sim.RunAll();
    plain.sim.RunAll();
    EXPECT_GT(plain.fired.size(), 1500u);
    EXPECT_EQ(ticketed.fired, plain.fired) << "seed " << seed;
    EXPECT_EQ(ticketed.sim.events_dispatched(), plain.sim.events_dispatched());
    // One pending entry per stream instead of every future entry.
    EXPECT_LT(ticketed.sim.queue_profile().max_heap,
              plain.sim.queue_profile().max_heap / 2);
  }
}

TEST(SimulatorTicketDeathTest, TicketedPushBehindDispatchPositionDies) {
  EXPECT_DEATH(
      {
        Simulator sim;
        const EventTicket early = sim.ReserveSeq();
        sim.Schedule(TimeDelta::Micros(5), [&sim, early]() {
          // Same instant as the running event, but reserved before it.
          sim.ScheduleAt(sim.now(), early, []() {});
        });
        sim.RunAll();
      },
      "behind the dispatch position");
}

}  // namespace
}  // namespace bundler
