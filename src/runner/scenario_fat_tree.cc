// fat_tree_incast: staggered TCP incast waves across a leaf/spine fabric,
// run on one Simulator.
//
// Workload: every host on leaves 1..L-1 fires size-fixed flows at leaf 0's
// hosts (round-robin) in periodic waves with seeded per-flow start jitter —
// a classic incast onto leaf 0's downlinks. Each source's flow schedule is
// drawn up front into an EventStream, which keeps one pending start per source
// and creates each flow at its start time. Completed senders and receivers
// retire into the FlowTable (reported as flow.releases) and their blocks are
// recycled.
#include <memory>
#include <string>
#include <vector>

#include "src/runner/builtin_scenarios.h"
#include "src/runner/trial_obs.h"
#include "src/sim/event_stream.h"
#include "src/topo/fat_tree.h"
#include "src/transport/tcp_flow.h"
#include "src/util/stats.h"

namespace bundler {
namespace runner {
namespace {

FatTreeConfig IncastFabric() {
  return FatTreeConfig{};  // 4 leaves x 2 hosts over 2 spines (fat_tree.h)
}

constexpr int kWaves = 30;
constexpr auto kWavePeriod = TimeDelta::Millis(50);
constexpr int64_t kFlowBytes = 256 * 1024;
constexpr auto kRunUntil = TimeDelta::Seconds(5);

TrialResult RunTrial(const TrialPoint& point) {
  const FatTreeConfig cfg = IncastFabric();
  FatTreeGraph g;
  NetBuilder b = FatTreeBuilder(cfg, &g);

  Simulator sim;
  std::unique_ptr<Net> net = b.Build(&sim);
  BeginTrialObs(&sim);

  // Seeded start jitter (splitmix-style): spreads each wave's flows over a
  // couple of milliseconds so the incast is bursty but not lockstep.
  uint64_t rng = point.seed * 0x9E3779B97F4A7C15ULL + 0xBF58476D1CE4E5B9ULL;
  auto jitter = [&rng]() {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return TimeDelta::Micros(static_cast<int64_t>((rng >> 33) % 2000));
  };

  std::vector<double> fct_ms;
  FlowTable* flows = net->flows();
  // One start schedule per source host; an entry names the flow's receiver.
  std::vector<std::unique_ptr<EventStream<Host*>>> sources;
  for (int l = 1; l < cfg.num_leaves; ++l) {
    for (int h = 0; h < cfg.hosts_per_leaf; ++h) {
      Host* src = net->host(g.hosts[static_cast<size_t>(l)][static_cast<size_t>(h)]);
      sources.push_back(std::make_unique<EventStream<Host*>>(
          &sim, [flows, src, &fct_ms](Host* const& dst) {
            const TimePoint start = src->sim()->now();
            TcpFlowParams params;
            params.size_bytes = kFlowBytes;
            params.request_start = start;
            CreateTcpFlow(flows, src, dst, params, [&fct_ms, start](TimePoint end) {
              fct_ms.push_back((end - start).ToMillis());
            })->Start();
          }));
    }
  }
  int rr = 0;
  for (int w = 0; w < kWaves; ++w) {
    const TimePoint base = TimePoint::Zero() + kWavePeriod * w + TimeDelta::Millis(5);
    for (const std::unique_ptr<EventStream<Host*>>& source : sources) {
      Host* dst = net->host(g.hosts[0][static_cast<size_t>(rr++ % cfg.hosts_per_leaf)]);
      source->Add(base + jitter(), dst);
    }
  }
  const size_t flows_created = static_cast<size_t>(rr);

  sim.RunUntil(TimePoint::Zero() + kRunUntil);

  TrialResult r;
  QuantileEstimator q;
  for (double v : fct_ms) {
    q.Add(v);
  }
  r.samples["fct_ms"] = fct_ms;
  r.scalars["fct_ms_p50"] = q.empty() ? 0.0 : q.Median();
  r.scalars["fct_ms_p99"] = q.empty() ? 0.0 : q.Quantile(0.99);
  r.scalars["flows_completed"] = static_cast<double>(fct_ms.size());
  r.scalars["flows_created"] = static_cast<double>(flows_created);
  r.scalars["flow.releases"] = static_cast<double>(net->flows()->releases());
  EndTrialObs(&sim, point, &r);
  return r;
}

}  // namespace

void RegisterFatTreeIncast(ScenarioRegistry* registry) {
  ScenarioSpec spec;
  spec.name = "fat_tree_incast";
  spec.summary =
      "Staggered TCP incast onto leaf 0 of a 4-leaf/2-spine fabric: 30 waves "
      "of 256 KB flows from 6 hosts, every flow run to completion";
  spec.variants = {"default"};
  spec.default_trials = 3;
  registry->Register(std::move(spec), RunTrial, []() {
    return BuildAndRenderDot(FatTreeBuilder(IncastFabric()), "fat_tree_incast");
  });
}

}  // namespace runner
}  // namespace bundler
