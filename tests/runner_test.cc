// Unit tests for the experiment orchestration subsystem (src/runner): spec
// expansion (sweep grid x seeds), thread-count-independent execution and
// serialization, aggregation math (percentiles / confidence intervals), and
// the built-in scenario registry.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "src/runner/builtin_scenarios.h"
#include "src/runner/result_sink.h"
#include "src/runner/scenario.h"
#include "src/runner/trial_runner.h"
#include "src/topo/scenario.h"

namespace bundler {
namespace runner {
namespace {

ScenarioSpec TwoAxisSpec() {
  ScenarioSpec spec;
  spec.name = "test_two_axis";
  spec.variants = {"x", "y"};
  spec.axes = {{"a", {1, 2}}, {"b", {10, 20, 30}}};
  spec.default_trials = 2;
  spec.seed_base = 5;
  return spec;
}

TEST(ExpandTrialsTest, CountsAndOrdering) {
  ScenarioSpec spec = TwoAxisSpec();
  std::vector<TrialPoint> plan = ExpandTrials(spec, 0);
  // 2 variants x (2 x 3) grid x 2 seeds.
  ASSERT_EQ(plan.size(), 24u);

  for (size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].trial_index, static_cast<int>(i));
  }
  // Variants outermost.
  EXPECT_EQ(plan.front().variant, "x");
  EXPECT_EQ(plan[11].variant, "x");
  EXPECT_EQ(plan[12].variant, "y");
  EXPECT_EQ(plan.back().variant, "y");
  // Seeds innermost: consecutive slots differ only in seed.
  EXPECT_EQ(plan[0].seed, 5u);
  EXPECT_EQ(plan[1].seed, 6u);
  EXPECT_EQ(plan[0].params, plan[1].params);
  // First axis outermost, second axis next: cells iterate b fastest.
  EXPECT_DOUBLE_EQ(plan[0].Param("a"), 1);
  EXPECT_DOUBLE_EQ(plan[0].Param("b"), 10);
  EXPECT_DOUBLE_EQ(plan[2].Param("b"), 20);
  EXPECT_DOUBLE_EQ(plan[4].Param("b"), 30);
  EXPECT_DOUBLE_EQ(plan[6].Param("a"), 2);
  EXPECT_DOUBLE_EQ(plan[6].Param("b"), 10);
}

TEST(ExpandTrialsTest, TrialOverrideAndNoAxes) {
  ScenarioSpec spec;
  spec.name = "test_plain";
  spec.default_trials = 3;
  std::vector<TrialPoint> plan = ExpandTrials(spec, 5);
  ASSERT_EQ(plan.size(), 5u);
  EXPECT_TRUE(plan[0].params.empty());
  EXPECT_EQ(plan[4].seed, 5u);
  EXPECT_EQ(plan[0].variant, "default");
}

// Deterministic synthetic trial: metrics are pure functions of the point.
TrialResult SyntheticTrial(const TrialPoint& p) {
  double base = p.Param("a") * 100 + static_cast<double>(p.seed);
  if (p.variant == "y") {
    base += 1000;
  }
  TrialResult r;
  r.scalars["base"] = base;
  std::vector<double> samples;
  for (int i = 0; i < 50; ++i) {
    samples.push_back(base + i);
  }
  r.samples["dist"] = samples;
  return r;
}

ScenarioSpec SyntheticSpec() {
  ScenarioSpec spec;
  spec.name = "test_synth";
  spec.variants = {"x", "y"};
  spec.axes = {{"a", {1, 2, 3}}};
  spec.default_trials = 4;
  return spec;
}

TEST(TrialRunnerTest, ResultsOrderedLikePlanRegardlessOfThreads) {
  Scenario scenario{SyntheticSpec(), SyntheticTrial};
  std::vector<TrialPoint> plan = ExpandTrials(scenario.spec, 0);
  for (int threads : {1, 4, 7}) {
    RunnerOptions options;
    options.threads = threads;
    TrialRunner runner(options);
    std::vector<TrialResult> results = runner.Run(scenario, plan);
    ASSERT_EQ(results.size(), plan.size());
    for (size_t i = 0; i < plan.size(); ++i) {
      EXPECT_EQ(results[i].scalars.at("base"),
                SyntheticTrial(plan[i]).scalars.at("base"))
          << "threads=" << threads << " trial=" << i;
    }
  }
}

TEST(TrialRunnerTest, JsonAndCsvByteIdenticalAcrossThreadCounts) {
  Scenario scenario{SyntheticSpec(), SyntheticTrial};
  std::vector<TrialPoint> plan = ExpandTrials(scenario.spec, 0);

  auto render = [&](int threads) {
    RunnerOptions options;
    options.threads = threads;
    TrialRunner runner(options);
    ScenarioSummary summary =
        Aggregate(scenario.spec, plan, runner.Run(scenario, plan));
    return std::pair{ToJson(summary), ToCsv(summary)};
  };
  auto [json1, csv1] = render(1);
  for (int threads : {2, 4, 7}) {
    auto [json_n, csv_n] = render(threads);
    EXPECT_EQ(json1, json_n) << "threads=" << threads;
    EXPECT_EQ(csv1, csv_n) << "threads=" << threads;
  }
  EXPECT_NE(json1.find("\"scenario\": \"test_synth\""), std::string::npos);
}

// End-to-end determinism through the real simulator: a small two-variant
// dumbbell experiment must serialize identically no matter the thread count.
TrialResult TinyExperimentTrial(const TrialPoint& p) {
  ExperimentConfig cfg = PaperExperimentDefaults(p.variant == "bundler", p.seed);
  cfg.bundle_web_load = {Rate::Mbps(30)};
  cfg.duration = TimeDelta::Seconds(3);
  cfg.warmup = TimeDelta::Seconds(1);
  Experiment e(cfg);
  e.Run();
  TrialResult r;
  r.scalars["completed"] = static_cast<double>(e.fct()->completed());
  r.samples["fct_s"] = e.fct()->Fcts(e.MeasuredRequests()).samples();
  return r;
}

TEST(TrialRunnerTest, RealSimulationDeterministicAcrossThreadCounts) {
  ScenarioSpec spec;
  spec.name = "test_tiny_experiment";
  spec.variants = {"status_quo", "bundler"};
  spec.default_trials = 2;
  Scenario scenario{spec, TinyExperimentTrial};
  std::vector<TrialPoint> plan = ExpandTrials(spec, 0);

  auto render = [&](int threads) {
    RunnerOptions options;
    options.threads = threads;
    TrialRunner runner(options);
    return ToJson(Aggregate(spec, plan, runner.Run(scenario, plan)));
  };
  std::string json1 = render(1);
  std::string json4 = render(4);
  EXPECT_EQ(json1, json4);
  // Sanity: the experiment actually completed requests.
  EXPECT_EQ(json1.find("\"completed\": {\"n\": 2, \"mean\": 0"), std::string::npos);
}

TEST(AggregateTest, ScalarStatsAcrossSeeds) {
  ScenarioSpec spec;
  spec.name = "test_agg";
  spec.default_trials = 4;
  std::vector<TrialPoint> plan = ExpandTrials(spec, 0);
  std::vector<TrialResult> results(4);
  const double values[4] = {1, 2, 3, 10};
  for (int i = 0; i < 4; ++i) {
    results[static_cast<size_t>(i)].scalars["m"] = values[i];
  }
  ScenarioSummary summary = Aggregate(spec, plan, results);
  ASSERT_EQ(summary.cells.size(), 1u);
  const ScalarStat& s = summary.cells[0].scalars.at("m");
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  // Sample stddev of {1,2,3,10} = sqrt(50/3); CI = 1.96 * s / sqrt(4).
  double stddev = std::sqrt(50.0 / 3.0);
  EXPECT_NEAR(s.stddev, stddev, 1e-12);
  EXPECT_NEAR(s.ci95_half, 1.96 * stddev / 2.0, 1e-12);
}

TEST(AggregateTest, SamplePoolingAndPercentiles) {
  ScenarioSpec spec;
  spec.name = "test_pool";
  spec.default_trials = 2;
  std::vector<TrialPoint> plan = ExpandTrials(spec, 0);
  std::vector<TrialResult> results(2);
  // Pooled: 1..100. Quantile(q) interpolates position q * (n - 1).
  for (int i = 1; i <= 100; ++i) {
    results[i % 2].samples["d"].push_back(i);
  }
  ScenarioSummary summary = Aggregate(spec, plan, results);
  ASSERT_EQ(summary.cells.size(), 1u);
  const SampleStat& s = summary.cells[0].samples.at("d");
  EXPECT_EQ(s.n, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.median, 50.5);
  EXPECT_DOUBLE_EQ(s.p25, 25.75);
  EXPECT_DOUBLE_EQ(s.p75, 75.25);
  EXPECT_DOUBLE_EQ(s.p95, 95.05);
  EXPECT_DOUBLE_EQ(s.p99, 99.01);
}

TEST(AggregateTest, CellsFollowPlanOrder) {
  ScenarioSpec spec = TwoAxisSpec();
  std::vector<TrialPoint> plan = ExpandTrials(spec, 0);
  std::vector<TrialResult> results(plan.size());
  for (size_t i = 0; i < plan.size(); ++i) {
    results[i].scalars["idx"] = static_cast<double>(i);
  }
  ScenarioSummary summary = Aggregate(spec, plan, results);
  // 2 variants x 6 grid cells.
  ASSERT_EQ(summary.cells.size(), 12u);
  EXPECT_EQ(summary.trials, 2);
  for (const CellSummary& cell : summary.cells) {
    EXPECT_EQ(cell.trials, 2u);
  }
  // Last cell of the plan: trials 22 and 23.
  const CellSummary& last = summary.cells.back();
  EXPECT_EQ(last.variant, "y");
  EXPECT_EQ(last.params, (std::vector<std::pair<std::string, double>>{{"a", 2}, {"b", 30}}));
  EXPECT_DOUBLE_EQ(last.scalars.at("idx").mean, 22.5);
}

TEST(ResultSinkTest, JsonHandlesNonFiniteAndEmpty) {
  ScenarioSpec spec;
  spec.name = "test_nonfinite";
  spec.default_trials = 1;
  std::vector<TrialPoint> plan = ExpandTrials(spec, 0);
  std::vector<TrialResult> results(1);
  results[0].scalars["bad"] = std::nan("");
  ScenarioSummary summary = Aggregate(spec, plan, results);
  std::string json = ToJson(summary);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_NE(json.find("\"mean\": null"), std::string::npos);

  ScenarioSummary empty;
  empty.scenario = "empty";
  EXPECT_NE(ToJson(empty).find("\"cells\": []"), std::string::npos);
}

TEST(ResultSinkTest, PeakRssOnlyInRuntimeMetadata) {
  ScenarioSummary summary;
  summary.scenario = "rss";
  // No runtime metadata: the outputs stay a pure function of the results.
  EXPECT_EQ(ToJson(summary).find("peak_rss_mb"), std::string::npos);
  EXPECT_EQ(ToCsv(summary).find("peak_rss_mb"), std::string::npos);

  summary.wall_seconds = 2;
  summary.events_dispatched = 1000;
  summary.events_per_sec = 500;
  summary.peak_rss_mb = 37.5;
  // It rides only on the one runtime line that cross-run comparisons strip.
  const std::string json = ToJson(summary);
  const std::string csv = ToCsv(summary);
  EXPECT_NE(json.find("\n  \"runtime\": {\"wall_seconds\": 2, \"events_dispatched\": 1000, "
                      "\"events_per_sec\": 500, \"peak_rss_mb\": 37.5},\n"),
            std::string::npos)
      << json;
  EXPECT_NE(csv.find("\n# runtime wall_seconds=2 events_dispatched=1000 events_per_sec=500 "
                     "peak_rss_mb=37.5\n"),
            std::string::npos)
      << csv;
  EXPECT_EQ(json.find("peak_rss_mb"), json.rfind("peak_rss_mb"));
  EXPECT_EQ(csv.find("peak_rss_mb"), csv.rfind("peak_rss_mb"));
}

TEST(RegistryTest, BuiltinScenariosRegisteredAndListed) {
  RegisterBuiltinScenarios();
  RegisterBuiltinScenarios();  // idempotent
  ScenarioRegistry& registry = ScenarioRegistry::Global();
  ASSERT_NE(registry.Find("fig09_fct"), nullptr);
  ASSERT_NE(registry.Find("fig10_cross_traffic"), nullptr);
  ASSERT_NE(registry.Find("fig13_competing_bundles"), nullptr);
  EXPECT_EQ(registry.Find("no_such_scenario"), nullptr);

  const Scenario* fig13 = registry.Find("fig13_competing_bundles");
  ASSERT_EQ(fig13->spec.axes.size(), 1u);
  EXPECT_EQ(fig13->spec.axes[0].name, "load0_mbps");

  std::vector<const Scenario*> all = registry.List();
  ASSERT_GE(all.size(), 3u);
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1]->spec.name, all[i]->spec.name);
  }
}

TEST(RegistryTest, SweepScenariosRegisteredWithAxes) {
  RegisterBuiltinScenarios();
  ScenarioRegistry& registry = ScenarioRegistry::Global();

  const Scenario* fig11 = registry.Find("fig11_web_cross_sweep");
  ASSERT_NE(fig11, nullptr);
  ASSERT_EQ(fig11->spec.axes.size(), 1u);
  EXPECT_EQ(fig11->spec.axes[0].name, "cross_mbps");
  EXPECT_EQ(fig11->spec.axes[0].values.size(), 7u);
  EXPECT_EQ(fig11->spec.variants.size(), 3u);

  const Scenario* fig12 = registry.Find("fig12_elastic_cross_sweep");
  ASSERT_NE(fig12, nullptr);
  ASSERT_EQ(fig12->spec.axes.size(), 1u);
  EXPECT_EQ(fig12->spec.axes[0].name, "competing_flows");
  EXPECT_EQ(fig12->spec.axes[0].values,
            (std::vector<double>{10, 30, 50}));
}

// Every paper figure runs through the registry; these are the ones that used
// to be standalone programs.
TEST(RegistryTest, PortedFigureScenariosRegisteredWithVariantsAndAxes) {
  RegisterBuiltinScenarios();
  ScenarioRegistry& registry = ScenarioRegistry::Global();
  using Axes = std::vector<std::pair<std::string, std::vector<double>>>;
  auto axes_of = [](const Scenario* s) {
    Axes axes;
    for (const SweepAxis& a : s->spec.axes) {
      axes.emplace_back(a.name, a.values);
    }
    return axes;
  };
  struct Expected {
    const char* name;
    std::vector<std::string> variants;
    Axes axes;
  };
  const Expected expected[] = {
      {"fig05_rate_estimate",
       {"bundler"},
       {{"delay_ms", {20, 50, 100}}, {"rate_mbps", {24, 48, 96}}}},
      {"fig07_multipath_observe",
       {"bundler"},
       {{"bw_mbps", {96}}, {"rtt_ms", {40}}, {"paths", {4}}}},
      {"multipath_threshold",
       {"bundler"},
       {{"bw_mbps", {24, 96}}, {"rtt_ms", {20, 100, 300}}, {"paths", {1, 2, 4, 8, 32}}}},
      {"fig14_sendbox_cc",
       {"status_quo", "bundler_copa", "bundler_basic_delay", "bundler_bbr"},
       {}},
      {"sec74_endhost_cc",
       {"cubic_status_quo", "cubic_bundler", "reno_status_quo", "reno_bundler",
        "bbr_status_quo", "bbr_bundler"},
       {}},
      {"sec72_other_policies",
       {"pingpong_status_quo", "pingpong_bundler_fq_codel", "prio_status_quo",
        "prio_bundler"},
       {}},
  };
  for (const Expected& e : expected) {
    const Scenario* s = registry.Find(e.name);
    ASSERT_NE(s, nullptr) << e.name;
    EXPECT_EQ(s->spec.variants, e.variants) << e.name;
    EXPECT_EQ(axes_of(s), e.axes) << e.name;
    EXPECT_NE(s->topology, nullptr) << e.name;
  }
}

// Full-figure regression: the fig09 scenario at seed 1 must serialize to the
// same bytes whether its trials run serially or on four workers. This is the
// event engine's determinism contract end to end — FIFO tiebreaks, pooled
// event slots, and reschedule ordering all feed into these bytes.
TEST(BuiltinScenarioTest, Fig09JsonByteIdenticalAcrossThreadCounts) {
  RegisterBuiltinScenarios();
  const Scenario* scenario = ScenarioRegistry::Global().Find("fig09_fct");
  ASSERT_NE(scenario, nullptr);
  // One seeded trial per variant (seed_base = 1 -> --seed 1).
  std::vector<TrialPoint> plan = ExpandTrials(scenario->spec, /*trials=*/1);

  RunnerOptions serial;
  serial.threads = 1;
  RunnerOptions parallel;
  parallel.threads = 4;
  std::vector<TrialResult> r1 = TrialRunner(serial).Run(*scenario, plan);
  std::vector<TrialResult> r4 = TrialRunner(parallel).Run(*scenario, plan);

  std::string json1 = ToJson(Aggregate(scenario->spec, plan, r1));
  std::string json4 = ToJson(Aggregate(scenario->spec, plan, r4));
  EXPECT_EQ(json1, json4);
  std::string csv1 = ToCsv(Aggregate(scenario->spec, plan, r1));
  std::string csv4 = ToCsv(Aggregate(scenario->spec, plan, r4));
  EXPECT_EQ(csv1, csv4);
}

// Every registered trial body must bracket its run with BeginTrialObs /
// EndTrialObs: the end-of-trial dump is what puts simulator and counter
// scalars (and captured traces) into the results.
TEST(BuiltinScenarioTest, FeedbackBlackoutTrialCarriesObsScalars) {
  RegisterBuiltinScenarios();
  const Scenario* scenario = ScenarioRegistry::Global().Find("feedback_blackout");
  ASSERT_NE(scenario, nullptr);
  for (const TrialPoint& point : ExpandTrials(scenario->spec, /*trials=*/1)) {
    if (point.variant != "bundler_watchdog") {
      continue;
    }
    TrialResult r = scenario->run(point);
    EXPECT_EQ(r.scalars.count("sim.events_dispatched"), 1u);
    EXPECT_EQ(r.scalars.count("ctr.sendbox.s10-s100.rate_updates"), 1u);
    return;
  }
  FAIL() << "feedback_blackout has no bundler_watchdog variant";
}

// Fig. 7's point: RTT-imbalanced paths show up as out-of-order feedback well
// above the 5% multipath threshold, and the observed RTTs span the paths.
TEST(BuiltinScenarioTest, Fig07TrialSeesMultipath) {
  RegisterBuiltinScenarios();
  const Scenario* scenario = ScenarioRegistry::Global().Find("fig07_multipath_observe");
  ASSERT_NE(scenario, nullptr);
  std::vector<TrialPoint> plan = ExpandTrials(scenario->spec, /*trials=*/1);
  ASSERT_EQ(plan.size(), 1u);
  TrialResult r = scenario->run(plan[0]);
  EXPECT_GT(r.scalars.at("ooo_frac"), 0.05);
  EXPECT_GE(r.scalars.at("rtt_p05_ms"), 40.0);
  EXPECT_GT(r.scalars.at("rtt_p95_ms"), 2 * r.scalars.at("rtt_p05_ms"));
}

// fat_tree_incast runs on one Simulator: every incast flow completes, both
// halves of every completed flow (sender and receiver) retire into the
// FlowTable, and the trial reports no shard count or shard-channel counters.
TEST(BuiltinScenarioTest, FatTreeIncastRunsOnOneSimulator) {
  RegisterBuiltinScenarios();
  const Scenario* scenario = ScenarioRegistry::Global().Find("fat_tree_incast");
  ASSERT_NE(scenario, nullptr);
  std::vector<TrialPoint> plan = ExpandTrials(scenario->spec, /*trials=*/1);
  ASSERT_EQ(plan.size(), 1u);
  ASSERT_EQ(plan[0].seed, 1u);
  TrialResult r = scenario->run(plan[0]);

  EXPECT_EQ(r.scalars.at("flows_created"), 180.0);
  EXPECT_EQ(r.scalars.at("flows_completed"), r.scalars.at("flows_created"));
  EXPECT_EQ(r.scalars.at("flow.releases"), 2 * r.scalars.at("flows_created"));
  EXPECT_EQ(r.scalars.at("sim.events_dispatched"), 393300.0);
  EXPECT_EQ(r.scalars.count("shards"), 0u);
  for (const auto& [key, value] : r.scalars) {
    EXPECT_NE(key.rfind("ctr.shard.", 0), 0u) << key;
  }
  // Flows are created at their start time from one ticketed schedule per
  // source: the heap holds a start per source, not every future flow (606
  // pending events when all 180 were created up front).
  EXPECT_LT(r.scalars.at("sim.queue_max_heap"), 100.0);
}

// cdn_edge_flash_crowd draws every bundle's request schedule up front but
// creates each flow at its start time, keeping one pending arrival per bundle:
// the same 14,980 flows as when all of them (and a start event each) were
// built at setup, with the event heap bounded by the in-flight work (it
// peaked at 15,246 pending events then).
TEST(BuiltinScenarioTest, CdnEdgeCreatesFlowsAtTheirStartTime) {
  RegisterBuiltinScenarios();
  const Scenario* scenario = ScenarioRegistry::Global().Find("cdn_edge_flash_crowd");
  ASSERT_NE(scenario, nullptr);
  std::vector<TrialPoint> plan = ExpandTrials(scenario->spec, /*trials=*/1);
  ASSERT_EQ(plan.size(), 2u);
  for (const TrialPoint& point : plan) {
    ASSERT_EQ(point.seed, 1u);
    TrialResult r = scenario->run(point);
    EXPECT_EQ(r.scalars.at("flows_created"), 14980.0) << point.variant;
    EXPECT_LT(r.scalars.at("sim.queue_max_heap"), 4000.0) << point.variant;
  }
}

}  // namespace
}  // namespace runner
}  // namespace bundler
