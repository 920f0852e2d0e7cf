// FaultInjector (src/net/fault_injector.h): every stochastic mechanism is
// mirrored against a reference model driving an identically-seeded Rng in the
// injector's documented draw order (Bernoulli: one draw per targeted packet;
// Gilbert-Elliott: loss draw then transition draw; reorder: one hold draw per
// surviving targeted packet while the slot is free), so the tests pin the
// exact RNG contract that makes faulted runs reproducible. Plus: blackout
// window edge semantics, bounded reorder displacement, passive construction,
// and profile-validation death tests.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/net/fault_injector.h"
#include "src/net/node.h"
#include "src/net/packet.h"
#include "src/sim/simulator.h"
#include "src/util/random.h"

namespace bundler {
namespace {

TimePoint At(double s) { return TimePoint::Zero() + TimeDelta::SecondsF(s); }

Packet DataPacket(int64_t seq) {
  FlowKey key;
  key.src = MakeAddress(1, 1);
  key.dst = MakeAddress(2, 1);
  key.protocol = 6;
  return MakeDataPacket(/*flow_id=*/7, key, seq, /*size_bytes=*/1000);
}

Packet CtlPacket(PacketType type, int64_t seq) {
  Packet pkt;
  pkt.type = type;
  pkt.seq = seq;
  pkt.size_bytes = 64;
  return pkt;
}

// Injector into a recording sink. Arrival order and identity (type, seq) are
// what the assertions compare.
struct Harness {
  explicit Harness(const FaultProfileSpec& spec)
      : sink([this](Packet p) { arrivals.emplace_back(p.type, p.seq); }),
        inj(&sim, "t", spec, &sink) {}

  Simulator sim;
  std::vector<std::pair<PacketType, int64_t>> arrivals;
  LambdaHandler sink;
  FaultInjector inj;
};

TEST(FaultInjectorTest, BernoulliLossMatchesReferenceModel) {
  FaultProfileSpec spec;
  spec.loss_prob = 0.3;
  spec.seed = 42;
  Harness h(spec);

  Rng ref(42);
  std::vector<int64_t> expected;
  for (int64_t i = 0; i < 500; ++i) {
    h.inj.HandlePacket(DataPacket(i));
    if (!(ref.NextDouble() < 0.3)) {
      expected.push_back(i);
    }
  }
  ASSERT_EQ(h.arrivals.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(h.arrivals[i].second, expected[i]);
  }
  EXPECT_EQ(h.inj.stats().passed, expected.size());
  EXPECT_EQ(h.inj.stats().drops_random, 500 - expected.size());
  EXPECT_EQ(h.inj.stats().drops_burst, 0u);
}

TEST(FaultInjectorTest, GilbertElliottMatchesReferenceModel) {
  FaultProfileSpec spec;
  spec.ge_p_good_to_bad = 0.05;
  spec.ge_p_bad_to_good = 0.3;
  spec.ge_loss_good = 0.01;
  spec.ge_loss_bad = 0.9;
  spec.seed = 7;
  Harness h(spec);

  // Reference chain: loss draw against the *current* state's probability,
  // then one transition draw — the order the injector documents.
  Rng ref(7);
  bool bad = false;
  std::vector<int64_t> expected;
  uint64_t losses = 0;
  for (int64_t i = 0; i < 2000; ++i) {
    h.inj.HandlePacket(DataPacket(i));
    const bool lost = ref.NextDouble() < (bad ? 0.9 : 0.01);
    if (ref.NextDouble() < (bad ? 0.3 : 0.05)) {
      bad = !bad;
    }
    if (lost) {
      ++losses;
    } else {
      expected.push_back(i);
    }
  }
  ASSERT_GT(losses, 0u);  // the chain must actually visit the bad state
  ASSERT_EQ(h.arrivals.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(h.arrivals[i].second, expected[i]);
  }
  EXPECT_EQ(h.inj.stats().drops_burst, losses);
  EXPECT_EQ(h.inj.stats().drops_random, 0u);
}

// Ctl targeting: data packets neither consume RNG draws nor count in stats,
// so the fault sequence seen by control messages is independent of how much
// data traffic shares the link.
TEST(FaultInjectorTest, CtlTargetingConsumesNoDrawsForData) {
  FaultProfileSpec spec;
  spec.target = FaultTarget::kCtl;
  spec.loss_prob = 0.5;
  spec.seed = 11;
  Harness h(spec);

  Rng ref(11);
  std::vector<std::pair<PacketType, int64_t>> expected;
  for (int64_t i = 0; i < 300; ++i) {
    // Interleave: data, feedback, data, epoch ctl, ...
    h.inj.HandlePacket(DataPacket(i));
    expected.emplace_back(PacketType::kData, i);
    const PacketType ctl =
        i % 2 == 0 ? PacketType::kBundlerFeedback : PacketType::kBundlerEpochCtl;
    h.inj.HandlePacket(CtlPacket(ctl, i));
    if (!(ref.NextDouble() < 0.5)) {
      expected.emplace_back(ctl, i);
    }
  }
  EXPECT_EQ(h.arrivals, expected);
  // Untargeted data is not even counted as "passed": the stats describe the
  // targeted population only.
  EXPECT_EQ(h.inj.stats().passed + h.inj.stats().drops_random, 300u);
}

TEST(FaultInjectorTest, FeedbackOnlyTargetSparesEpochCtl) {
  FaultProfileSpec spec;
  spec.target = FaultTarget::kFeedbackOnly;
  spec.loss_prob = 1.0;
  Harness h(spec);

  h.inj.HandlePacket(CtlPacket(PacketType::kBundlerFeedback, 0));
  h.inj.HandlePacket(CtlPacket(PacketType::kBundlerEpochCtl, 1));
  h.inj.HandlePacket(DataPacket(2));
  ASSERT_EQ(h.arrivals.size(), 2u);
  EXPECT_EQ(h.arrivals[0].first, PacketType::kBundlerEpochCtl);
  EXPECT_EQ(h.arrivals[1].first, PacketType::kData);
  EXPECT_EQ(h.inj.stats().drops_random, 1u);
}

TEST(FaultInjectorTest, BlackoutWindowsDropExactlyInside) {
  FaultProfileSpec spec;
  spec.blackouts = {{TimeDelta::Millis(10), TimeDelta::Millis(20)},
                    {TimeDelta::Millis(30), TimeDelta::Millis(40)}};
  Harness h(spec);

  // Start inclusive, end exclusive: 10 and 15 drop, 20 passes; the cursor
  // then advances to the second window.
  const double send_ms[] = {5, 10, 15, 20, 25, 30, 39, 40, 45};
  for (size_t i = 0; i < std::size(send_ms); ++i) {
    h.sim.ScheduleAt(At(send_ms[i] / 1000.0), [&h, i]() {
      h.inj.HandlePacket(DataPacket(static_cast<int64_t>(i)));
    });
  }
  h.sim.RunAll();
  std::vector<int64_t> got;
  for (const auto& [type, seq] : h.arrivals) {
    got.push_back(seq);
  }
  EXPECT_EQ(got, (std::vector<int64_t>{0, 3, 4, 7, 8}));
  EXPECT_EQ(h.inj.stats().drops_blackout, 4u);
  EXPECT_EQ(h.inj.stats().passed, 5u);
}

TEST(FaultInjectorTest, ReorderDisplacementBoundedByDepth) {
  FaultProfileSpec spec;
  spec.reorder_prob = 1.0;  // every eligible packet is held
  spec.reorder_depth = 3;
  Harness h(spec);

  for (int64_t i = 0; i < 8; ++i) {
    h.inj.HandlePacket(DataPacket(i));
  }
  // Packet 0 is held; 1..3 overtake it (displacement == depth), which
  // releases it. Packet 4 is then held and 5..7 repeat the pattern.
  std::vector<int64_t> got;
  for (const auto& [type, seq] : h.arrivals) {
    got.push_back(seq);
  }
  EXPECT_EQ(got, (std::vector<int64_t>{1, 2, 3, 0, 5, 6, 7, 4}));
  EXPECT_EQ(h.inj.stats().held, 2u);
  EXPECT_EQ(h.inj.stats().released_depth, 2u);
  EXPECT_EQ(h.inj.stats().released_flush, 0u);
  EXPECT_FALSE(h.inj.holding());
}

TEST(FaultInjectorTest, ReorderFlushReleasesWhenTrafficStops) {
  FaultProfileSpec spec;
  spec.reorder_prob = 1.0;
  spec.reorder_depth = 8;
  spec.reorder_flush = TimeDelta::Millis(25);
  Harness h(spec);

  h.inj.HandlePacket(DataPacket(0));
  EXPECT_TRUE(h.inj.holding());
  EXPECT_TRUE(h.arrivals.empty());
  h.sim.RunAll();  // only the flush timer is pending
  ASSERT_EQ(h.arrivals.size(), 1u);
  EXPECT_EQ(h.arrivals[0].second, 0);
  EXPECT_EQ(h.sim.now(), At(0.025));
  EXPECT_EQ(h.inj.stats().released_flush, 1u);
  EXPECT_FALSE(h.inj.holding());
}

// Construction schedules nothing: declaring fault profiles must not perturb
// event-queue seeding of an otherwise identical run.
TEST(FaultInjectorTest, ConstructionIsPassive) {
  FaultProfileSpec spec;
  spec.loss_prob = 0.5;
  spec.reorder_prob = 0.5;
  spec.reorder_depth = 4;
  spec.blackouts = {{TimeDelta::Millis(1), TimeDelta::Millis(2)}};
  Harness h(spec);
  h.sim.RunAll();
  EXPECT_EQ(h.sim.events_dispatched(), 0u);
}

TEST(FaultProfileDeathTest, InvalidProfilesDie) {
  FaultProfileSpec spec;
  EXPECT_DEATH(ValidateFaultProfile(spec, "t"), "no mechanism");

  spec.loss_prob = 1.5;
  EXPECT_DEATH(ValidateFaultProfile(spec, "t"), "loss_prob");

  spec.loss_prob = 0.5;
  spec.ge_p_good_to_bad = 0.5;
  spec.ge_p_bad_to_good = 0.5;
  EXPECT_DEATH(ValidateFaultProfile(spec, "t"), "mutually");

  spec.loss_prob = 0.0;
  spec.ge_p_bad_to_good = 0.0;
  EXPECT_DEATH(ValidateFaultProfile(spec, "t"), "transition");

  spec.ge_p_good_to_bad = 0.0;
  spec.blackouts = {{TimeDelta::Millis(5), TimeDelta::Millis(5)}};
  EXPECT_DEATH(ValidateFaultProfile(spec, "t"), "start < end");

  spec.blackouts = {{TimeDelta::Millis(5), TimeDelta::Millis(10)},
                    {TimeDelta::Millis(8), TimeDelta::Millis(12)}};
  EXPECT_DEATH(ValidateFaultProfile(spec, "t"), "non-overlapping");

  spec.blackouts.clear();
  spec.reorder_prob = 0.5;
  spec.reorder_depth = 99;
  EXPECT_DEATH(ValidateFaultProfile(spec, "t"), "reorder_depth");
}

}  // namespace
}  // namespace bundler
