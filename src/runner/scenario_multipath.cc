// Figure 7 and the §7.6 multipath-threshold study as registered scenarios
// over one trial function. Backlogged Cubic flows are spread by ECMP over
// `paths` load-balanced bottleneck paths whose one-way delays grow by `rtt_ms`
// per path index, so the paths are strongly RTT-imbalanced (as in the
// paper's emulation). Bundler cannot see the paths, but epoch feedback
// arrives out of order when they differ, and the sendbox's out-of-order
// fraction is the multipath signal it acts on. Detection is disabled so the
// raw heuristic is measured for the whole run.
//
// Reported per trial: `ooo_frac`, the sendbox's out-of-order reading averaged
// once a second over the second half of the run, and the 5th/95th percentile
// of the RTTs Bundler observed (the spread across paths Fig. 7 plots). The
// paper reports a maximum single-path reading of 0.4% and a minimum
// multipath reading of 20%, so a 5% threshold separates them.
// `multipath_threshold` sweeps bandwidth x RTT x path count;
// `fig07_multipath_observe` is its 96 Mbit/s / 40 ms / 4-path point.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/app/workload.h"
#include "src/runner/builtin_scenarios.h"
#include "src/runner/trial_obs.h"
#include "src/topo/dumbbell.h"
#include "src/util/check.h"
#include "src/util/stats.h"

namespace bundler {
namespace runner {
namespace {

constexpr double kDurationSec = 30;

DumbbellConfig MultipathConfig(double bw_mbps, double rtt_ms, int paths) {
  DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::Mbps(bw_mbps);
  cfg.rtt = TimeDelta::MillisF(rtt_ms);
  cfg.num_paths = paths;
  cfg.path_delay_spread = TimeDelta::MillisF(rtt_ms);
  cfg.sendbox.multipath_detection = false;
  return cfg;
}

TrialResult RunTrial(const TrialPoint& point) {
  BUNDLER_CHECK_MSG(point.variant == "bundler", "unknown multipath variant '%s'",
                    point.variant.c_str());
  int paths = static_cast<int>(point.Param("paths"));

  Simulator sim;
  BeginTrialObs(&sim);
  Dumbbell net(&sim, MultipathConfig(point.Param("bw_mbps"), point.Param("rtt_ms"), paths));
  StartBulkFlows(&sim, net.flows(), net.server(), net.client(), std::max(8, 4 * paths),
                 HostCcType::kCubic, TimePoint::Zero());

  MeasurementEngine& meas = net.net()->bundle_controller(0)->measurement();
  QuantileEstimator rtt_ms;
  meas.SetSampleCallback([&](const EpochSample& s) { rtt_ms.Add(s.rtt.ToMillis()); });

  double ooo_sum = 0;
  int readings = 0;
  for (double t = kDurationSec / 2; t <= kDurationSec; t += 1.0) {
    sim.RunUntil(TimePoint::Zero() + TimeDelta::SecondsF(t));
    ooo_sum += meas.OutOfOrderFraction(sim.now());
    ++readings;
  }

  TrialResult r;
  r.scalars["ooo_frac"] = ooo_sum / readings;
  r.scalars["rtt_p05_ms"] = rtt_ms.empty() ? 0.0 : rtt_ms.Quantile(0.05);
  r.scalars["rtt_p95_ms"] = rtt_ms.empty() ? 0.0 : rtt_ms.Quantile(0.95);
  r.scalars["epoch_samples"] = static_cast<double>(rtt_ms.count());
  EndTrialObs(&sim, point, &r);
  return r;
}

void RegisterMultipath(ScenarioRegistry* registry, std::string name, std::string summary,
                       std::vector<SweepAxis> axes) {
  ScenarioSpec spec;
  spec.name = name;
  spec.summary = std::move(summary);
  spec.variants = {"bundler"};
  spec.axes = std::move(axes);
  // Bulk flows start together and draw no randomness: every seed gives the
  // same trial.
  spec.default_trials = 1;
  registry->Register(std::move(spec), RunTrial,
                     DumbbellTopology(MultipathConfig(96, 40, 4), name));
}

}  // namespace

void RegisterFig07MultipathObserve(ScenarioRegistry* registry) {
  RegisterMultipath(registry, "fig07_multipath_observe",
                    "Fig 7: RTT-imbalanced ECMP paths show up as out-of-order epoch "
                    "feedback at the sendbox (96 Mbit/s, 40 ms, 4 paths)",
                    {{"bw_mbps", {96}}, {"rtt_ms", {40}}, {"paths", {4}}});
}

void RegisterMultipathThreshold(ScenarioRegistry* registry) {
  RegisterMultipath(registry, "multipath_threshold",
                    "§7.6: out-of-order fraction across bandwidth x RTT x path count "
                    "(paper: single path <= 0.4%, multipath >= 20%, 5% threshold)",
                    {{"bw_mbps", {24, 96}}, {"rtt_ms", {20, 100, 300}},
                     {"paths", {1, 2, 4, 8, 32}}});
}

}  // namespace runner
}  // namespace bundler
