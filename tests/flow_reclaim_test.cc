// FlowTable reclamation tests (src/transport/endpoint.h): deferred destroy,
// free-list recycling and swap-remove header fixup at the unit level, misuse
// death tests, the host's stateless TIME_WAIT that lets a receiver be freed
// the moment it completes, a TCP integration run over the fat-tree fabric
// where a second wave of flows is carved entirely from the first wave's
// recycled blocks, and a bounded-memory regression run of the paper's §7.1
// web workload.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/app/workload.h"
#include "src/metrics/fct.h"
#include "src/net/link.h"
#include "src/qdisc/fifo.h"
#include "src/sim/simulator.h"
#include "src/topo/fat_tree.h"
#include "src/topo/net_builder.h"
#include "src/topo/scenario.h"
#include "src/transport/endpoint.h"
#include "src/transport/tcp_flow.h"

namespace bundler {
namespace {

struct Tracked {
  explicit Tracked(int* live_counter) : live(live_counter) { ++*live_counter; }
  ~Tracked() { --*live; }
  int* live;
  char payload[40] = {};
};

TEST(FlowReclaimTest, RetireDefersDestroyAndRecyclesThroughTheFreeList) {
  int live = 0;
  {
    FlowTable table;
    Tracked* a = table.Emplace<Tracked>(&live);
    Tracked* b = table.Emplace<Tracked>(&live);
    Tracked* c = table.Emplace<Tracked>(&live);
    EXPECT_EQ(live, 3);
    EXPECT_EQ(table.size(), 3u);
    EXPECT_EQ(table.arena_blocks(), 1u);

    // A retiree survives its own Retire call (its handler is still on the
    // stack) and dies at the next Retire or Emplace.
    table.Retire(b);
    EXPECT_EQ(live, 3);
    EXPECT_EQ(table.size(), 2u);
    // Destroying b swaps the last entry (c) into b's owned_ slot; its header
    // must be re-pointed, or destroying c next would miss.
    table.Retire(c);
    EXPECT_EQ(live, 2);
    table.Retire(a);
    EXPECT_EQ(live, 1);
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.releases(), 3u);
    EXPECT_EQ(table.reuses(), 0u);

    // Emplace destroys the pending retiree first, so new same-class objects
    // come off the free list (LIFO), not the arena.
    Tracked* d = table.Emplace<Tracked>(&live);
    EXPECT_EQ(live, 1);
    Tracked* e = table.Emplace<Tracked>(&live);
    EXPECT_EQ(d, a);
    EXPECT_EQ(e, c);
    EXPECT_EQ(table.reuses(), 2u);
    EXPECT_EQ(table.arena_blocks(), 1u);
    table.Retire(d);
    table.Retire(e);
    EXPECT_EQ(live, 1);
  }
  EXPECT_EQ(live, 0) << "the table destroys a still-pending retiree";
}

TEST(FlowReclaimTest, SizeClassesKeepIndependentFreeLists) {
  struct Big {
    explicit Big(int* live_counter) : live(live_counter) { ++*live_counter; }
    ~Big() { --*live; }
    int* live;
    char payload[200] = {};
  };
  FlowTable table;
  int live = 0;
  Tracked* small = table.Emplace<Tracked>(&live);
  Big* big = table.Emplace<Big>(&live);
  table.Retire(small);
  table.Retire(big);
  // Each class reuses its own freed block; a 200-byte object must never land
  // in a 64-byte slot.
  Big* big2 = table.Emplace<Big>(&live);
  Tracked* small2 = table.Emplace<Tracked>(&live);
  EXPECT_EQ(static_cast<void*>(big2), static_cast<void*>(big));
  EXPECT_EQ(static_cast<void*>(small2), static_cast<void*>(small));
  EXPECT_EQ(table.reuses(), 2u);
  EXPECT_EQ(live, 2);
}

TEST(FlowReclaimTest, UnretiredObjectsLiveUntilTableDestruction) {
  int live = 0;
  {
    FlowTable table;
    (void)table.Emplace<Tracked>(&live);
    (void)table.Emplace<Tracked>(&live);
    EXPECT_EQ(live, 2);
  }
  EXPECT_EQ(live, 0);
}

TEST(FlowReclaimDeathTest, RetireOfForeignPointerDies) {
  FlowTable table;
  uint64_t buf[8] = {};  // leading zeros where the magic header would sit
  EXPECT_DEATH(table.Retire(&buf[2]), "does not own");
}

TEST(FlowReclaimDeathTest, DoubleRetireDies) {
  FlowTable table;
  int live = 0;
  Tracked* t = table.Emplace<Tracked>(&live);
  Tracked* u = table.Emplace<Tracked>(&live);
  table.Retire(t);
  EXPECT_DEATH(table.Retire(t), "retired_");
  table.Retire(u);  // destroys t
  EXPECT_DEATH(table.Retire(t), "does not own");
}

// Two hosts over symmetric 48 Mbit/s links (20 ms RTT). A tap in front of
// each host records a copy of every packet delivered to it; `drop_to_a` may
// discard packets headed for `a` (the ACK direction of an a->b flow).
struct TappedNet {
  Simulator sim;
  FlowTable flows;
  std::unique_ptr<Host> a;
  std::unique_ptr<Host> b;
  std::vector<Packet> to_a;
  std::vector<Packet> to_b;
  std::function<bool(const Packet&)> drop_to_a;
  std::unique_ptr<LambdaHandler> tap_a;
  std::unique_ptr<LambdaHandler> tap_b;
  std::unique_ptr<Link> ab;
  std::unique_ptr<Link> ba;

  TappedNet() {
    a = std::make_unique<Host>(&sim, MakeAddress(1, 1), nullptr);
    b = std::make_unique<Host>(&sim, MakeAddress(2, 1), nullptr);
    tap_a = std::make_unique<LambdaHandler>([this](Packet p) {
      if (drop_to_a && drop_to_a(p)) {
        return;
      }
      to_a.push_back(p.Clone());
      a->HandlePacket(std::move(p));
    });
    tap_b = std::make_unique<LambdaHandler>([this](Packet p) {
      to_b.push_back(p.Clone());
      b->HandlePacket(std::move(p));
    });
    const Rate rate = Rate::Mbps(48);
    const TimeDelta delay = TimeDelta::Millis(10);
    ab = std::make_unique<Link>(&sim, "ab", rate, delay,
                                std::make_unique<DropTailFifo>(1 << 21), tap_b.get());
    ba = std::make_unique<Link>(&sim, "ba", rate, delay,
                                std::make_unique<DropTailFifo>(1 << 21), tap_a.get());
    a->set_egress(ab.get());
    b->set_egress(ba.get());
  }

  void RunUntilSeconds(double s) { sim.RunUntil(TimePoint::Zero() + TimeDelta::SecondsF(s)); }
  uint64_t Counter(const char* name) { return *sim.counters().Counter(name); }
};

// Every field but the per-transmission IP ID.
void ExpectSameAckFields(const Packet& got, const Packet& want) {
  EXPECT_EQ(got.flow_id, want.flow_id);
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.size_bytes, want.size_bytes);
  EXPECT_EQ(got.key, want.key);
  EXPECT_EQ(got.seq, want.seq);
  EXPECT_EQ(got.flow_total_pkts, want.flow_total_pkts);
  EXPECT_EQ(got.retransmit, want.retransmit);
  EXPECT_EQ(got.tx_time, want.tx_time);
  EXPECT_EQ(got.delivered_at_tx, want.delivered_at_tx);
  EXPECT_EQ(got.acked_data_seq, want.acked_data_seq);
  EXPECT_EQ(got.echo_tx_time, want.echo_tx_time);
  EXPECT_EQ(got.echo_delivered_at_tx, want.echo_delivered_at_tx);
  EXPECT_EQ(got.echo_retransmit, want.echo_retransmit);
  EXPECT_EQ(got.boundary_hash, want.boundary_hash);
  EXPECT_EQ(got.fb_bytes_received, want.fb_bytes_received);
  EXPECT_EQ(got.fb_seq, want.fb_seq);
  EXPECT_EQ(got.epoch_size_pkts, want.epoch_size_pkts);
  EXPECT_EQ(got.request_id, want.request_id);
  EXPECT_EQ(got.priority, want.priority);
}

TEST(TimeWaitTest, DuplicateSegmentAfterReceiverFreedGetsTheReceiversFinalAck) {
  TappedNet net;
  TcpFlowParams params;
  params.size_bytes = 30'000;  // 21 segments
  params.request_id = 77;
  TimePoint done;
  StartTcpFlow(&net.flows, net.a.get(), net.b.get(), params,
               [&](TimePoint t) { done = t; });
  net.RunUntilSeconds(2);
  ASSERT_GT(done.nanos(), 0);
  EXPECT_EQ(net.flows.size(), 0u) << "sender and receiver retire at completion";
  EXPECT_EQ(net.flows.releases(), 2u);
  EXPECT_EQ(net.b->unclaimed_packets(), 0u);

  // Lossless: the last segment delivered completed the receiver, and the
  // last packet back to `a` is the ACK the live receiver sent for it.
  ASSERT_FALSE(net.to_b.empty());
  ASSERT_FALSE(net.to_a.empty());
  const Packet& last_data = net.to_b.back();
  const Packet& live_ack = net.to_a.back();
  ASSERT_EQ(last_data.type, PacketType::kData);
  ASSERT_EQ(live_ack.type, PacketType::kAck);
  ASSERT_EQ(live_ack.seq, last_data.flow_total_pkts);
  const Packet want = live_ack.Clone();
  const size_t acks_before = net.to_a.size();

  // A late duplicate of that segment reaches a host that no longer knows the
  // flow.
  net.b->HandlePacket(last_data.Clone());
  net.RunUntilSeconds(3);
  EXPECT_EQ(net.b->unclaimed_packets(), 1u);
  ASSERT_EQ(net.to_a.size(), acks_before + 1);
  const Packet& got = net.to_a.back();
  ExpectSameAckFields(got, want);
  EXPECT_EQ(got.ip_id, static_cast<uint16_t>(want.ip_id + 1))
      << "stamped by the host's IP ID counter like any transmission";
  // The retired sender ignores it: nothing more goes back to `b`.
  EXPECT_EQ(net.a->unclaimed_packets(), 1u);
}

TEST(TimeWaitTest, RetriedRequestToRetiredRequestResponseGetsNoReply) {
  TappedNet net;
  FctRecorder fct;
  // Server `a`, client `b`: the request travels b->a, the response a->b.
  IssueSingleRequest(&net.sim, &net.flows, net.a.get(), net.b.get(), 30'000,
                     HostCcType::kCubic, &fct);
  net.RunUntilSeconds(2);
  ASSERT_EQ(fct.completed(), 1u);
  EXPECT_EQ(net.flows.size(), 0u);
  EXPECT_EQ(net.flows.releases(), 3u) << "request glue, sender, receiver";

  ASSERT_FALSE(net.to_a.empty());
  const Packet& request = net.to_a.front();
  ASSERT_EQ(request.type, PacketType::kData);
  ASSERT_EQ(request.flow_total_pkts, 0);
  const size_t to_b_before = net.to_b.size();
  const uint64_t unclaimed_before = net.a->unclaimed_packets();
  net.a->HandlePacket(request.Clone());
  net.RunUntilSeconds(3);
  EXPECT_EQ(net.a->unclaimed_packets(), unclaimed_before + 1);
  EXPECT_EQ(net.to_b.size(), to_b_before) << "a retried request must not be answered";
}

TEST(TimeWaitTest, SenderWhoseFinalAcksAreDroppedStillCompletesAndRetires) {
  TappedNet net;
  TcpFlowParams params;
  params.size_bytes = 30'000;
  const int64_t total = (params.size_bytes + kMssBytes - 1) / kMssBytes;
  int dropped = 0;
  net.drop_to_a = [&](const Packet& p) {
    if (p.type == PacketType::kAck && p.seq == total && dropped < 3) {
      ++dropped;
      return true;
    }
    return false;
  };
  TimePoint done;
  StartTcpFlow(&net.flows, net.a.get(), net.b.get(), params,
               [&](TimePoint t) { done = t; });
  net.RunUntilSeconds(10);
  ASSERT_GT(done.nanos(), 0);
  EXPECT_EQ(dropped, 3);
  // The receiver retired on the first final ACK; the tail retransmissions
  // that followed were answered by the host's stateless TIME_WAIT until one
  // ACK got through and the sender retired too.
  EXPECT_GE(net.b->unclaimed_packets(), 2u);
  EXPECT_EQ(net.flows.size(), 0u);
  EXPECT_EQ(net.flows.releases(), 2u);
  const uint64_t retx = net.Counter("tcp.retransmits");
  EXPECT_GE(retx, 2u);
  net.RunUntilSeconds(60);
  EXPECT_EQ(net.Counter("tcp.retransmits"), retx) << "no sender keeps retransmitting";
}

// Integration: completed TCP flows retire at completion, and a second wave
// created after the first wave's blocks return is carved entirely from the
// free lists — steady-state churn does not grow the arena.
TEST(FlowReclaimTest, CompletedTcpFlowsRetireAndNewFlowsReuse) {
  FatTreeConfig cfg;
  FatTreeGraph g;
  NetBuilder b = FatTreeBuilder(cfg, &g);
  Simulator sim;
  std::unique_ptr<Net> net = b.Build(&sim);

  auto start_wave = [&](TimePoint base) {
    int n = 0;
    for (int l = 1; l < cfg.num_leaves; ++l) {
      for (int h = 0; h < cfg.hosts_per_leaf; ++h) {
        Host* src = net->host(
            g.hosts[static_cast<size_t>(l)][static_cast<size_t>(h)]);
        Host* dst = net->host(g.hosts[0][static_cast<size_t>(h)]);
        const TimePoint start = base + TimeDelta::Micros(50 * n);
        ++n;
        TcpFlowParams params;
        params.size_bytes = 64 * 1024;
        params.request_start = start;
        TcpSender* sender =
            CreateTcpFlow(net->flows(), src, dst, params, nullptr);
        sim.ScheduleAt(start, [sender]() { sender->Start(); });
      }
    }
    return n;
  };

  const int first = start_wave(TimePoint::Zero() + TimeDelta::Millis(1));
  sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(3));
  // First wave fully complete: every sender and receiver retired.
  EXPECT_EQ(net->flows()->releases(), static_cast<uint64_t>(2 * first));
  EXPECT_EQ(net->flows()->size(), 0u);
  const size_t warm_blocks = net->flows()->arena_blocks();

  const int second = start_wave(sim.now() + TimeDelta::Millis(1));
  sim.RunUntil(TimePoint::Zero() + TimeDelta::Seconds(8));
  EXPECT_EQ(net->flows()->releases(), static_cast<uint64_t>(2 * (first + second)));
  EXPECT_EQ(net->flows()->size(), 0u);
  // The entire second wave was carved from recycled blocks.
  EXPECT_EQ(net->flows()->reuses(), static_cast<uint64_t>(2 * second));
  EXPECT_EQ(net->flows()->arena_blocks(), warm_blocks);
}

// Regression: the paper's §7.1 open-loop web workload (84 Mbit/s of Poisson
// requests over the 96 Mbit/s bundled dumbbell), shortened to 15 s. The flow
// table must track the handful of in-flight requests, not every request ever
// issued, and the arena must stop growing once the working set is warm.
TEST(FlowReclaimTest, PaperWebWorkloadKeepsTheFlowTableBounded) {
  ExperimentConfig cfg = PaperExperimentDefaults(/*bundler_on=*/true);
  cfg.duration = TimeDelta::Seconds(15);
  cfg.warmup = TimeDelta::Seconds(3);
  Experiment exp(cfg);
  FlowTable* flows = exp.net()->flows();

  exp.RunUntil(TimeDelta::Seconds(5));
  const size_t warm_blocks = flows->arena_blocks();
  exp.Run();

  const FctRecorder* fct = exp.fct();
  ASSERT_GT(fct->completed(), 2000u);
  // Each in-flight request holds its request glue or its sender+receiver;
  // a completed one may briefly hold its sender until the final ACK lands.
  const size_t active = fct->total() - fct->completed();
  EXPECT_LE(flows->size(), 3 * active + 16)
      << "issued=" << fct->total() << " completed=" << fct->completed();
  EXPECT_LT(flows->size(), fct->total() / 10);
  EXPECT_EQ(flows->arena_blocks(), warm_blocks);
  EXPECT_GT(flows->reuses(), 2 * fct->completed());
}

}  // namespace
}  // namespace bundler
