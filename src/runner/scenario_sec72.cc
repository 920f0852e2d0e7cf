// §7.2 "Using Bundler for other policies" as a registered scenario: the two
// short studies the paper quotes as one-line results, each with and without
// Bundler on the 96 Mbit/s, 50 ms dumbbell.
//  - pingpong_*: a closed-loop UDP ping-pong pair rides inside the bundle
//    next to the §7.1 web load (84 Mbit/s); its request-response RTT is the
//    end-to-end latency. The Bundler arm runs FQ-CoDel at the sendbox. The
//    paper reports 97% lower median and 89% lower p99 RTT than the status
//    quo.
//  - prio_*: two 30 Mbit/s web workloads in one bundle plus two backlogged
//    bulk flows (the §1 motif: deprioritize backup traffic); the Bundler arm
//    strictly prioritizes class 0 at the sendbox. The paper reports a 65%
//    lower median FCT for the higher-priority class.
#include <string>
#include <utility>

#include "src/app/workload.h"
#include "src/metrics/fct.h"
#include "src/runner/builtin_scenarios.h"
#include "src/runner/ideal_fct.h"
#include "src/runner/trial_obs.h"
#include "src/topo/dumbbell.h"
#include "src/transport/udp_pingpong.h"
#include "src/util/check.h"

namespace bundler {
namespace runner {
namespace {

constexpr auto kDuration = TimeDelta::Seconds(60);
constexpr auto kWarmup = TimeDelta::Seconds(10);

struct Sec72Variant {
  const char* name;
  bool pingpong;  // else the strict-priority study
  bool bundler;
};

constexpr Sec72Variant kVariants[] = {
    {"pingpong_status_quo", true, false},
    {"pingpong_bundler_fq_codel", true, true},
    {"prio_status_quo", false, false},
    {"prio_bundler", false, true},
};

const Sec72Variant& VariantConfig(const std::string& name) {
  for (const Sec72Variant& v : kVariants) {
    if (name == v.name) {
      return v;
    }
  }
  BUNDLER_CHECK_MSG(false, "unknown sec72 variant '%s'", name.c_str());
  return kVariants[0];
}

DumbbellConfig Sec72Config(const Sec72Variant& var) {
  DumbbellConfig cfg;
  cfg.bottleneck_rate = Rate::Mbps(96);
  cfg.rtt = TimeDelta::Millis(50);
  cfg.bundler_enabled = var.bundler;
  cfg.sendbox.scheduler = var.pingpong ? SchedulerType::kFqCodel : SchedulerType::kPrio;
  return cfg;
}

TrialResult RunPingPong(const TrialPoint& point, const Sec72Variant& var) {
  Simulator sim;
  BeginTrialObs(&sim);
  Dumbbell net(&sim, Sec72Config(var));
  SizeCdf cdf = SizeCdf::InternetCoreRouter();
  FctRecorder fct;
  WebWorkloadConfig wl;
  wl.offered_load = Rate::Mbps(84);
  PoissonWebWorkload web(&sim, net.flows(), net.server(), net.client(), &cdf, wl,
                         point.seed, &fct);
  UdpPingPongClient* ping = StartUdpPingPong(net.flows(), net.client(), net.server());
  ping->SetRecordingWindow(TimePoint::Zero() + kWarmup, TimePoint::Zero() + kDuration);
  sim.RunUntil(TimePoint::Zero() + kDuration);

  TrialResult r;
  const QuantileEstimator& rtt = ping->rtt_ms();
  r.samples["rtt_ms"] = rtt.samples();
  r.scalars["rtt_ms_p50"] = rtt.empty() ? 0.0 : rtt.Median();
  r.scalars["rtt_ms_p99"] = rtt.empty() ? 0.0 : rtt.Quantile(0.99);
  EndTrialObs(&sim, point, &r);
  return r;
}

TrialResult RunPriority(const TrialPoint& point, const Sec72Variant& var) {
  Simulator sim;
  BeginTrialObs(&sim);
  Dumbbell net(&sim, Sec72Config(var));
  SizeCdf cdf = SizeCdf::InternetCoreRouter();
  FctRecorder high_fct;
  FctRecorder low_fct;
  WebWorkloadConfig high_wl;
  high_wl.offered_load = Rate::Mbps(30);
  high_wl.priority = 0;
  WebWorkloadConfig low_wl = high_wl;
  low_wl.priority = 1;
  PoissonWebWorkload high(&sim, net.flows(), net.server(), net.client(), &cdf, high_wl,
                          point.seed, &high_fct);
  PoissonWebWorkload low(&sim, net.flows(), net.server(), net.client(), &cdf, low_wl,
                         point.seed + 77, &low_fct);
  // Low-priority backlogged bulk flows keep the bundle saturated, which is
  // exactly when strict priority matters.
  TcpFlowParams bulk;
  bulk.size_bytes = -1;
  bulk.cc = HostCcType::kCubic;
  bulk.priority = 2;
  StartTcpFlow(net.flows(), net.server(), net.client(), bulk, nullptr);
  StartTcpFlow(net.flows(), net.server(), net.client(), bulk, nullptr);
  sim.RunUntil(TimePoint::Zero() + kDuration);

  IdealFctFn ideal =
      SharedIdealFctFn(Rate::Mbps(96), TimeDelta::Millis(50), HostCcType::kCubic);
  RequestFilter measured;
  measured.min_start = TimePoint::Zero() + kWarmup;
  TrialResult r;
  for (auto [key, fct] : {std::pair{"high", &high_fct}, std::pair{"low", &low_fct}}) {
    QuantileEstimator q = fct->Slowdowns(ideal, measured);
    r.samples[std::string("slowdown_") + key] = q.samples();
    r.scalars[std::string("median_slowdown_") + key] = q.empty() ? 0.0 : q.Median();
  }
  EndTrialObs(&sim, point, &r);
  return r;
}

TrialResult RunTrial(const TrialPoint& point) {
  const Sec72Variant& var = VariantConfig(point.variant);
  return var.pingpong ? RunPingPong(point, var) : RunPriority(point, var);
}

}  // namespace

void RegisterSec72OtherPolicies(ScenarioRegistry* registry) {
  ScenarioSpec spec;
  spec.name = "sec72_other_policies";
  spec.summary =
      "§7.2: FQ-CoDel at the sendbox cuts ping-pong RTT (paper: 97% median, 89% "
      "p99) and strict priority cuts the high class's median FCT (paper: 65%)";
  spec.variants.clear();
  for (const Sec72Variant& v : kVariants) {
    spec.variants.push_back(v.name);
  }
  spec.default_trials = 1;
  registry->Register(std::move(spec), RunTrial,
                     DumbbellTopology(Sec72Config(kVariants[1]), "sec72_other_policies"));
}

}  // namespace runner
}  // namespace bundler
