// Unit tests for the queue disciplines, token-bucket shaping (a one-bundle
// SiteEgress, the sendbox's rate enforcement stage), and the qdisc occupancy
// sampler.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/bundler/site_egress.h"
#include "src/metrics/queue_monitor.h"
#include "src/qdisc/codel.h"
#include "src/qdisc/drr.h"
#include "src/qdisc/fifo.h"
#include "src/qdisc/fq_codel.h"
#include "src/qdisc/prio.h"
#include "src/qdisc/sfq.h"
#include "src/qdisc/token_bucket.h"
#include "src/sim/simulator.h"

namespace bundler {
namespace {

Packet MakePkt(uint16_t src_port, uint32_t size = kMtuBytes, uint64_t flow = 1) {
  FlowKey key;
  key.src = MakeAddress(1, 1);
  key.dst = MakeAddress(2, 1);
  key.src_port = src_port;
  key.dst_port = 80;
  return MakeDataPacket(flow, key, 0, size);
}

TEST(DropTailFifoTest, FifoOrderPreserved) {
  DropTailFifo q(10 * kMtuBytes);
  TimePoint t;
  for (int i = 0; i < 5; ++i) {
    Packet p = MakePkt(100);
    p.seq = i;
    EXPECT_TRUE(q.Enqueue(std::move(p), t));
  }
  EXPECT_EQ(q.packets(), 5);
  for (int i = 0; i < 5; ++i) {
    auto p = q.Dequeue(t);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->seq, i);
  }
  EXPECT_TRUE(q.Empty());
}

TEST(DropTailFifoTest, DropsWhenFull) {
  DropTailFifo q(3 * kMtuBytes);
  TimePoint t;
  EXPECT_TRUE(q.Enqueue(MakePkt(1), t));
  EXPECT_TRUE(q.Enqueue(MakePkt(2), t));
  EXPECT_TRUE(q.Enqueue(MakePkt(3), t));
  EXPECT_FALSE(q.Enqueue(MakePkt(4), t));
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.packets(), 3);
}

TEST(DropTailFifoTest, ByteAccounting) {
  DropTailFifo q(10'000);
  TimePoint t;
  q.Enqueue(MakePkt(1, 1000), t);
  q.Enqueue(MakePkt(2, 500), t);
  EXPECT_EQ(q.bytes(), 1500);
  q.Dequeue(t);
  EXPECT_EQ(q.bytes(), 500);
}

TEST(SfqTest, RoundRobinsAcrossFlows) {
  Sfq::Config cfg;
  cfg.limit_packets = 1000;
  Sfq q(cfg);
  TimePoint t;
  // Two flows: flow A enqueues 10, flow B enqueues 10. Dequeue order should
  // alternate (one MTU quantum each).
  for (int i = 0; i < 10; ++i) {
    Packet a = MakePkt(1000);
    a.seq = i;
    q.Enqueue(std::move(a), t);
  }
  for (int i = 0; i < 10; ++i) {
    Packet b = MakePkt(2000);
    b.seq = i;
    q.Enqueue(std::move(b), t);
  }
  std::map<uint16_t, int> got;
  for (int i = 0; i < 10; ++i) {
    auto p = q.Dequeue(t);
    ASSERT_TRUE(p.has_value());
    ++got[p->key.src_port];
  }
  // After 10 dequeues, both flows should have sent ~5 each.
  EXPECT_EQ(got[1000], 5);
  EXPECT_EQ(got[2000], 5);
}

TEST(SfqTest, ShortFlowNotStuckBehindLongFlow) {
  Sfq::Config cfg;
  Sfq q(cfg);
  TimePoint t;
  for (int i = 0; i < 100; ++i) {
    q.Enqueue(MakePkt(1000), t);
  }
  q.Enqueue(MakePkt(2000), t);  // one short-flow packet behind 100 bulk ones
  // The short flow's packet must come out within the first round (~2 pkts).
  bool found = false;
  for (int i = 0; i < 3; ++i) {
    auto p = q.Dequeue(t);
    ASSERT_TRUE(p.has_value());
    if (p->key.src_port == 2000) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SfqTest, DropsFromLongestFlowOnOverflow) {
  Sfq::Config cfg;
  cfg.limit_packets = 20;
  Sfq q(cfg);
  TimePoint t;
  for (int i = 0; i < 18; ++i) {
    q.Enqueue(MakePkt(1000), t);
  }
  q.Enqueue(MakePkt(2000), t);
  q.Enqueue(MakePkt(3000), t);
  // Next enqueue overflows; the victim must come from the fat flow (1000).
  q.Enqueue(MakePkt(2000), t);
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.packets(), 20);
  // Count survivors per flow.
  std::map<uint16_t, int> got;
  while (auto p = q.Dequeue(t)) {
    ++got[p->key.src_port];
  }
  EXPECT_EQ(got[1000], 17);  // one packet of the fat flow dropped
  EXPECT_EQ(got[2000], 2);
  EXPECT_EQ(got[3000], 1);
}

TEST(SfqTest, ByteAndPacketCountsConsistent) {
  Sfq::Config cfg;
  Sfq q(cfg);
  TimePoint t;
  q.Enqueue(MakePkt(1, 700), t);
  q.Enqueue(MakePkt(2, 800), t);
  EXPECT_EQ(q.packets(), 2);
  EXPECT_EQ(q.bytes(), 1500);
  q.Dequeue(t);
  q.Dequeue(t);
  EXPECT_EQ(q.bytes(), 0);
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Dequeue(t), std::nullopt);
}

TEST(DrrTest, FairnessAcrossUnequalBacklogs) {
  Drr::Config cfg;
  Drr q(cfg);
  TimePoint t;
  for (int i = 0; i < 90; ++i) {
    q.Enqueue(MakePkt(1), t);
  }
  for (int i = 0; i < 10; ++i) {
    q.Enqueue(MakePkt(2), t);
  }
  // Dequeue 20: both flows backlogged, so ~10 each.
  std::map<uint16_t, int> got;
  for (int i = 0; i < 20; ++i) {
    auto p = q.Dequeue(t);
    ASSERT_TRUE(p.has_value());
    ++got[p->key.src_port];
  }
  EXPECT_EQ(got[1], 10);
  EXPECT_EQ(got[2], 10);
}

TEST(DrrTest, ReclaimsEmptyFlows) {
  Drr::Config cfg;
  Drr q(cfg);
  TimePoint t;
  for (uint16_t port = 1; port <= 50; ++port) {
    q.Enqueue(MakePkt(port), t);
  }
  while (q.Dequeue(t).has_value()) {
  }
  EXPECT_EQ(q.active_flows(), 0u);
  EXPECT_EQ(q.bytes(), 0);
}

TEST(DrrTest, DropsFromLongestOnOverflow) {
  Drr::Config cfg;
  cfg.limit_bytes = 10 * kMtuBytes;
  Drr q(cfg);
  TimePoint t;
  for (int i = 0; i < 9; ++i) {
    q.Enqueue(MakePkt(1), t);
  }
  q.Enqueue(MakePkt(2), t);
  EXPECT_FALSE(q.Enqueue(MakePkt(2), t));  // overflow; drop from flow 1
  std::map<uint16_t, int> got;
  while (auto p = q.Dequeue(t)) {
    ++got[p->key.src_port];
  }
  EXPECT_EQ(got[1], 8);
  EXPECT_EQ(got[2], 2);
}

TEST(CodelTest, NoDropsBelowTarget) {
  Codel q(1 << 20, CodelParams());
  TimePoint t;
  for (int i = 0; i < 100; ++i) {
    Packet p = MakePkt(1);
    p.queue_enter = t;
    q.Enqueue(std::move(p), t);
    // Dequeue 1 ms later: sojourn far below the 5 ms target.
    auto out = q.Dequeue(t + TimeDelta::Millis(1));
    EXPECT_TRUE(out.has_value());
  }
  EXPECT_EQ(q.drops(), 0u);
}

TEST(CodelTest, DropsWhenSojournPersistsAboveTarget) {
  Codel q(1 << 24, CodelParams());
  TimePoint t0;
  // Fill with packets that will all have ~50 ms sojourn.
  for (int i = 0; i < 500; ++i) {
    Packet p = MakePkt(1);
    p.queue_enter = t0;
    q.Enqueue(std::move(p), t0);
  }
  // Dequeue over 2 simulated seconds with persistent standing delay.
  uint64_t delivered = 0;
  for (int i = 0; i < 500; ++i) {
    TimePoint now = t0 + TimeDelta::Millis(50) + TimeDelta::Millis(4) * i;
    if (q.Dequeue(now).has_value()) {
      ++delivered;
    }
    if (q.Empty()) {
      break;
    }
  }
  EXPECT_GT(q.drops(), 0u);
  EXPECT_GT(delivered, 0u);
}

TEST(FqCodelTest, NewFlowGetsPriority) {
  FqCodel::Config cfg;
  FqCodel q(cfg);
  TimePoint t;
  for (int i = 0; i < 50; ++i) {
    q.Enqueue(MakePkt(1000), t);
  }
  // Cycle the fat flow into the old list.
  auto first = q.Dequeue(t);
  ASSERT_TRUE(first.has_value());
  // A brand-new flow arrives; it should be served before the old flow's
  // remaining backlog.
  q.Enqueue(MakePkt(7777), t);
  auto p = q.Dequeue(t);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->key.src_port, 7777);
}

TEST(FqCodelTest, LimitsTotalPackets) {
  FqCodel::Config cfg;
  cfg.limit_packets = 10;
  FqCodel q(cfg);
  TimePoint t;
  for (int i = 0; i < 15; ++i) {
    q.Enqueue(MakePkt(1), t);
  }
  EXPECT_EQ(q.packets(), 10);
  EXPECT_EQ(q.drops(), 5u);
}

TEST(StrictPrioTest, LowerBandAlwaysFirst) {
  StrictPrio q(2, 1 << 20);
  TimePoint t;
  Packet low = MakePkt(1);
  low.priority = 1;
  Packet high = MakePkt(2);
  high.priority = 0;
  q.Enqueue(std::move(low), t);
  q.Enqueue(std::move(high), t);
  auto p = q.Dequeue(t);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->key.src_port, 2);
}

TEST(StrictPrioTest, CustomClassifier) {
  StrictPrio q(2, 1 << 20, [](const Packet& p) { return p.size_bytes > 1000 ? 1u : 0u; });
  TimePoint t;
  q.Enqueue(MakePkt(1, kMtuBytes), t);  // big -> band 1
  q.Enqueue(MakePkt(2, 100), t);        // small -> band 0
  auto p = q.Dequeue(t);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->key.src_port, 2);
}

TEST(StrictPrioTest, PerBandLimit) {
  StrictPrio q(2, 2 * kMtuBytes);
  TimePoint t;
  EXPECT_TRUE(q.Enqueue(MakePkt(1), t));
  EXPECT_TRUE(q.Enqueue(MakePkt(1), t));
  EXPECT_FALSE(q.Enqueue(MakePkt(1), t));
  EXPECT_EQ(q.drops(), 1u);
}

TEST(TokenBucketTest, RefillsAtConfiguredRate) {
  TimePoint t;
  TokenBucket tb(Rate::Mbps(12), /*burst=*/1500, t);  // 1.5 MB/s
  EXPECT_TRUE(tb.CanSend(1500, t));
  tb.Consume(1500, t);
  EXPECT_FALSE(tb.CanSend(1500, t));
  // 1500 bytes at 1.5 MB/s take 1 ms to accumulate (rounded up a nanosecond).
  EXPECT_NEAR(tb.TimeUntilAvailable(1500, t).ToMillis(), 1.0, 1e-5);
  EXPECT_TRUE(tb.CanSend(1500, t + TimeDelta::Millis(1)));
}

TEST(TokenBucketTest, BurstCapsAccumulation) {
  TimePoint t;
  TokenBucket tb(Rate::Mbps(12), 3000, t);
  // After a long idle period, tokens cap at the burst.
  TimePoint later = t + TimeDelta::Seconds(10);
  EXPECT_TRUE(tb.CanSend(3000, later));
  tb.Consume(3000, later);
  EXPECT_FALSE(tb.CanSend(1, later));
}

TEST(TokenBucketTest, RateChangeDoesNotRefillInstantly) {
  // The paper's TBF patch: updating the rate must not grant a token burst.
  TimePoint t;
  TokenBucket tb(Rate::Mbps(12), 1500, t);
  tb.Consume(1500, t);
  tb.SetRate(Rate::Mbps(96), t);
  EXPECT_FALSE(tb.CanSend(1500, t));
  // But the new rate applies going forward: 1500 B at 12 MB/s = 125 us.
  EXPECT_NEAR(tb.TimeUntilAvailable(1500, t).ToMicros(), 125.0, 1e-2);
}

// One tenant, one bundle: SiteEgress shaping a FIFO qdisc at the bundle's
// rate, with a site aggregate far above it that never binds.
std::unique_ptr<SiteEgress> OneBundleEgress(Simulator* sim, Rate rate,
                                            InlineFunction<void(size_t, Packet)> out) {
  SiteEgress::Config cfg;
  cfg.aggregate_rate = Rate::Gbps(10);
  std::vector<SiteEgress::BundleSpec> bundles(1);
  bundles[0].initial_rate = rate;
  bundles[0].qdisc_factory = [] { return std::make_unique<DropTailFifo>(1 << 24); };
  return std::make_unique<SiteEgress>(
      sim, cfg, std::vector<SiteEgress::TenantSpec>{{"t", 1, 1.0, Rate::Zero()}},
      std::move(bundles), std::move(out), "shaper");
}

TEST(BundleShapingTest, EnforcesRate) {
  Simulator sim;
  int64_t out_bytes = 0;
  auto egress = OneBundleEgress(&sim, Rate::Mbps(12),
                                [&](size_t, Packet p) { out_bytes += p.size_bytes; });
  for (int i = 0; i < 1000; ++i) {
    egress->Enqueue(0, MakePkt(1));
  }
  sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(1));
  // 12 Mbit/s = 1.5 MB/s (plus the initial burst allowance).
  EXPECT_NEAR(static_cast<double>(out_bytes), 1.5e6, 0.05e6);
}

TEST(BundleShapingTest, RateIncreaseTakesEffectImmediately) {
  Simulator sim;
  int64_t out_pkts = 0;
  auto egress =
      OneBundleEgress(&sim, Rate::Kbps(100), [&](size_t, Packet) { ++out_pkts; });
  for (int i = 0; i < 200; ++i) {
    egress->Enqueue(0, MakePkt(1));
  }
  sim.RunUntil(TimePoint::Zero() + TimeDelta::Millis(100));
  int64_t slow_pkts = out_pkts;
  egress->SetBundleRate(0, Rate::Mbps(96));
  sim.RunUntil(TimePoint::Zero() + TimeDelta::Millis(150));
  // At 96 Mbit/s the remaining ~198 packets drain in < 25 ms.
  EXPECT_EQ(out_pkts, 200);
  EXPECT_LT(slow_pkts, 10);
}

TEST(BundleShapingTest, DrainsCompletely) {
  Simulator sim;
  int64_t out_pkts = 0;
  auto egress =
      OneBundleEgress(&sim, Rate::Mbps(96), [&](size_t, Packet) { ++out_pkts; });
  for (int i = 0; i < 50; ++i) {
    egress->Enqueue(0, MakePkt(1));
  }
  sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(1));
  EXPECT_EQ(out_pkts, 50);
  EXPECT_TRUE(egress->bundle_qdisc(0)->Empty());
  EXPECT_EQ(egress->total_backlog_pkts(), 0);
}

// The sampler re-arms a one-shot as the first statement of every tick:
// samples land at exactly k x interval, the delay column uses the rate in
// force at the sample, and destruction cancels the latest re-armed tick
// (cancelling the constructor's long-fired id would leave it pending).
TEST(QdiscSamplerTest, SamplesAtFixedCadenceAndCancelsLatestTickOnTeardown) {
  Simulator sim;
  DropTailFifo q(100 * kMtuBytes);
  const TimeDelta interval = TimeDelta::Millis(10);
  Rate rate = Rate::Mbps(12);
  auto sampler = std::make_unique<QdiscSampler>(&sim, &q, interval,
                                                [&rate]() { return rate; });
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(q.Enqueue(MakePkt(1), sim.now()));
  }
  sim.Schedule(TimeDelta::Millis(15), [&]() {
    ASSERT_TRUE(q.Enqueue(MakePkt(1), sim.now()));
    rate = Rate::Mbps(24);
  });
  sim.RunUntil(TimePoint::Zero() + TimeDelta::Millis(45));

  const std::vector<TimeSeries::Sample>& bytes = sampler->bytes().samples();
  const std::vector<TimeSeries::Sample>& delay = sampler->delay_ms().samples();
  ASSERT_EQ(bytes.size(), 4u);
  ASSERT_EQ(delay.size(), 4u);
  for (size_t k = 0; k < bytes.size(); ++k) {
    const TimePoint at = TimePoint::Zero() + TimeDelta::Millis(10 * static_cast<int64_t>(k + 1));
    EXPECT_EQ(bytes[k].time, at);
    EXPECT_EQ(delay[k].time, at);
    const double b = k == 0 ? 3.0 * kMtuBytes : 4.0 * kMtuBytes;
    const double bps = k == 0 ? Rate::Mbps(12).bps() : Rate::Mbps(24).bps();
    EXPECT_DOUBLE_EQ(bytes[k].value, b);
    EXPECT_DOUBLE_EQ(delay[k].value, b * 8.0 / bps * 1e3);
  }

  EXPECT_EQ(sim.PendingForTest(), 1u);  // the tick at 50 ms
  sampler.reset();
  EXPECT_EQ(sim.PendingForTest(), 0u);
  sim.RunAll();  // nothing left to fire into the destroyed sampler
}

}  // namespace
}  // namespace bundler
