// Figure 9 as a registered scenario: FCT slowdown distributions under the
// §7.1 workload for four configurations — Status Quo (no Bundler),
// Bundler+SFQ, Bundler+FIFO, and In-Network fair queueing (DRR at the
// bottleneck). Slowdown samples are reported per request-size bucket and
// pooled across seeds by the aggregator, mirroring how the paper pools runs.
#include "src/metrics/fct.h"
#include "src/runner/builtin_scenarios.h"
#include "src/runner/trial_obs.h"
#include "src/runner/ideal_fct.h"
#include "src/topo/scenario.h"
#include "src/util/check.h"

namespace bundler {
namespace runner {
namespace {

struct Fig09Variant {
  bool bundler;
  bool in_network_fq;
  SchedulerType sched;
};

Fig09Variant VariantConfig(const std::string& name) {
  if (name == "status_quo") {
    return {false, false, SchedulerType::kSfq};
  }
  if (name == "bundler_sfq") {
    return {true, false, SchedulerType::kSfq};
  }
  if (name == "bundler_fifo") {
    return {true, false, SchedulerType::kFifo};
  }
  if (name == "in_network") {
    return {false, true, SchedulerType::kSfq};
  }
  BUNDLER_CHECK_MSG(false, "unknown fig09 variant '%s'", name.c_str());
  return {};
}

TrialResult RunTrial(const TrialPoint& point) {
  Fig09Variant var = VariantConfig(point.variant);
  ExperimentConfig cfg = PaperExperimentDefaults(var.bundler, point.seed);
  cfg.net.in_network_fq = var.in_network_fq;
  cfg.net.sendbox.scheduler = var.sched;
  Experiment e(cfg);
  BeginTrialObs(e.sim());
  e.Run();

  IdealFctFn ideal_fn = SharedIdealFctFn(cfg.net.bottleneck_rate, cfg.net.rtt, cfg.host_cc);
  TimePoint warmup_end = TimePoint::Zero() + cfg.warmup;

  const std::pair<const char*, RequestFilter> buckets[] = {
      {"all", RequestFilter()},
      {"small", RequestFilter::SmallFlows()},
      {"medium", RequestFilter::MediumFlows()},
      {"large", RequestFilter::LargeFlows()},
  };

  TrialResult r;
  for (auto [name, filter] : buckets) {
    filter.min_start = warmup_end;
    QuantileEstimator q = e.fct()->Slowdowns(ideal_fn, filter);
    r.samples[std::string("slowdown_") + name] = q.samples();
  }
  QuantileEstimator all = e.fct()->Slowdowns(ideal_fn, e.MeasuredRequests());
  r.scalars["median_slowdown_all"] = all.empty() ? 0.0 : all.Median();
  r.scalars["p99_slowdown_all"] = all.empty() ? 0.0 : all.Quantile(0.99);
  r.scalars["requests_completed"] = static_cast<double>(e.fct()->completed());
  EndTrialObs(e.sim(), point, &r);
  return r;
}

}  // namespace

void RegisterFig09Fct(ScenarioRegistry* registry) {
  ScenarioSpec spec;
  spec.name = "fig09_fct";
  spec.summary =
      "Fig 9: FCT slowdown by size bucket for StatusQuo / Bundler+SFQ / "
      "Bundler+FIFO / In-Network under the paper's 7.1 workload";
  spec.variants = {"status_quo", "bundler_sfq", "bundler_fifo", "in_network"};
  spec.default_trials = 3;
  registry->Register(std::move(spec), RunTrial,
                     DumbbellTopology(PaperExperimentDefaults(true, 1).net, "fig09_fct"));
}

}  // namespace runner
}  // namespace bundler
