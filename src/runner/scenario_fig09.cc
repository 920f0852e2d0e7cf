// Figure 9 as a registered scenario: FCT slowdown distributions under the
// §7.1 workload for four configurations — Status Quo (no Bundler),
// Bundler+SFQ, Bundler+FIFO, and In-Network fair queueing (DRR at the
// bottleneck). Slowdown samples are reported per request-size bucket and
// pooled across seeds by the aggregator, mirroring how the paper pools runs.
//
// The same trial backs two more specs that vary one knob of that workload:
//  - fig14_sendbox_cc: the sendbox's rate controller (Copa, Nimbus
//    BasicDelay, BBR) under SFQ. The paper reports BasicDelay close to Copa
//    and BBR slightly worse than the status quo, because BBR keeps a larger
//    in-network queue that stacks with the sendbox queue.
//  - sec74_endhost_cc: the endhosts' congestion control (Cubic, Reno, BBR),
//    each with and without Bundler. The paper reports a 58% lower median FCT
//    with BBR endhosts. Slowdowns divide by the ideal FCT of each variant's
//    own endhost CC.
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
  const char* name;
  bool bundler;
  bool in_network_fq;
  SchedulerType sched;
  BundleCcType bundle_cc;
  HostCcType host_cc;
};

constexpr SchedulerType kSfq = SchedulerType::kSfq;
constexpr BundleCcType kCopa = BundleCcType::kCopa;
constexpr HostCcType kCubic = HostCcType::kCubic;

// Variant names are unique across the three specs that share RunTrial.
constexpr Fig09Variant kVariants[] = {
    // fig09_fct
    {"status_quo", false, false, kSfq, kCopa, kCubic},
    {"bundler_sfq", true, false, kSfq, kCopa, kCubic},
    {"bundler_fifo", true, false, SchedulerType::kFifo, kCopa, kCubic},
    {"in_network", false, true, kSfq, kCopa, kCubic},
    // fig14_sendbox_cc (plus status_quo)
    {"bundler_copa", true, false, kSfq, kCopa, kCubic},
    {"bundler_basic_delay", true, false, kSfq, BundleCcType::kBasicDelay, kCubic},
    {"bundler_bbr", true, false, kSfq, BundleCcType::kBbr, kCubic},
    // sec74_endhost_cc
    {"cubic_status_quo", false, false, kSfq, kCopa, kCubic},
    {"cubic_bundler", true, false, kSfq, kCopa, kCubic},
    {"reno_status_quo", false, false, kSfq, kCopa, HostCcType::kNewReno},
    {"reno_bundler", true, false, kSfq, kCopa, HostCcType::kNewReno},
    {"bbr_status_quo", false, false, kSfq, kCopa, HostCcType::kBbr},
    {"bbr_bundler", true, false, kSfq, kCopa, HostCcType::kBbr},
};

const Fig09Variant& VariantConfig(const std::string& name) {
  for (const Fig09Variant& v : kVariants) {
    if (name == v.name) {
      return v;
    }
  }
  BUNDLER_CHECK_MSG(false, "unknown fig09 variant '%s'", name.c_str());
  return kVariants[0];
}

TrialResult RunTrial(const TrialPoint& point) {
  const Fig09Variant& var = VariantConfig(point.variant);
  ExperimentConfig cfg = PaperExperimentDefaults(var.bundler, point.seed);
  cfg.net.in_network_fq = var.in_network_fq;
  cfg.net.sendbox.scheduler = var.sched;
  cfg.net.sendbox.cc = var.bundle_cc;
  cfg.host_cc = var.host_cc;
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

void RegisterPaperWorkload(ScenarioRegistry* registry, std::string name,
                           std::string summary, std::vector<std::string> variants,
                           int trials) {
  ScenarioSpec spec;
  spec.name = name;
  spec.summary = std::move(summary);
  spec.variants = std::move(variants);
  spec.default_trials = trials;
  registry->Register(std::move(spec), RunTrial,
                     DumbbellTopology(PaperExperimentDefaults(true, 1).net, name));
}

}  // namespace

void RegisterFig09Fct(ScenarioRegistry* registry) {
  RegisterPaperWorkload(registry, "fig09_fct",
                        "Fig 9: FCT slowdown by size bucket for StatusQuo / Bundler+SFQ / "
                        "Bundler+FIFO / In-Network under the paper's 7.1 workload",
                        {"status_quo", "bundler_sfq", "bundler_fifo", "in_network"}, 3);
}

void RegisterFig14SendboxCc(ScenarioRegistry* registry) {
  RegisterPaperWorkload(registry, "fig14_sendbox_cc",
                        "Fig 14: sendbox rate controller under SFQ (paper: BasicDelay ~ "
                        "Copa, both beat StatusQuo; BBR slightly worse than StatusQuo)",
                        {"status_quo", "bundler_copa", "bundler_basic_delay", "bundler_bbr"},
                        2);
}

void RegisterSec74EndhostCc(ScenarioRegistry* registry) {
  RegisterPaperWorkload(registry, "sec74_endhost_cc",
                        "§7.4: Bundler with Cubic / Reno / BBR endhosts (paper: 58% lower "
                        "median FCT than StatusQuo with BBR)",
                        {"cubic_status_quo", "cubic_bundler", "reno_status_quo",
                         "reno_bundler", "bbr_status_quo", "bbr_bundler"},
                        1);
}

}  // namespace runner
}  // namespace bundler
