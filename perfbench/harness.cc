// perfbench_harness: runs one benchmark workload through the public runner
// API and writes raw measurements as JSON for run.py to reduce.
//
//   perfbench_harness --workload web_fct --seed 7 --seconds 30 --trace 0
//                     --threads 4 --out results.json
//
// --trace 0 measures the end-to-end numbers: set-up (scenario registration
// plus the scenario's topology provider, which builds the graph), then whole
// trial plans repeated until --seconds have passed, each TrialFn call timed
// from a wrapper. --trace 1 alternates untraced and traced plans (flight
// recorder armed for every category) and then replays single layers through
// their public calls in isolation. Spans are recorded from this file only,
// around every call into a layer, kept in memory and written with the result.
//
// Simulated inputs are the scenario's registered seeds; --seed only permutes
// the order in which trials execute, which the runner's determinism contract
// says must not change a byte of the simulated output (run.py checks it).
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/bundler/nimbus_detector.h"
#include "src/bundler/site_egress.h"
#include "src/obs/trace.h"
#include "src/qdisc/drr.h"
#include "src/qdisc/fifo.h"
#include "src/qdisc/sfq.h"
#include "src/runner/builtin_scenarios.h"
#include "src/runner/result_sink.h"
#include "src/runner/scenario.h"
#include "src/runner/trial_obs.h"
#include "src/runner/trial_runner.h"
#include "src/sim/simulator.h"
#include "src/topo/scenario.h"
#include "src/util/fnv.h"

// Per-thread heap allocation counter: a trial runs on one worker thread, so
// the wrapper's before/after difference is that trial's allocations.
static thread_local uint64_t t_heap_allocs = 0;

__attribute__((noinline)) void* operator new(std::size_t size) {
  ++t_heap_allocs;
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
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using runner::Scenario;
using runner::ScenarioRegistry;
using runner::TrialPoint;
using runner::TrialResult;

const Clock::time_point kEpoch = Clock::now();

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
int64_t SinceEpochNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - kEpoch).count();
}

struct Workload {
  const char* name;
  const char* scenario;
  void (*register_fn)(ScenarioRegistry*);
  bool pooled;  // runs on min(nproc, 4) runner threads; otherwise one
  TimeDelta (*trial_length)();  // simulated length of one trial
};

TimeDelta PaperTrialLength() { return PaperExperimentDefaults(true).duration; }
// cdn_edge_flash_crowd runs to a fixed 6.5 s (kRunUntil in its source).
TimeDelta CdnTrialLength() { return TimeDelta::Millis(6500); }

constexpr Workload kWorkloads[] = {
    {"web_fct", "fig09_fct", runner::RegisterFig09Fct, false, PaperTrialLength},
    {"cdn_edge", "cdn_edge_flash_crowd", runner::RegisterCdnEdgeFlashCrowd, false,
     CdnTrialLength},
    {"cross_sweep", "fig11_web_cross_sweep", runner::RegisterFig11WebCrossSweep, true,
     PaperTrialLength},
};

// ---- spans ---------------------------------------------------------------

struct Span {
  std::string name;
  std::string label;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
};

// Trial spans close on worker threads, so the log is shared.
class SpanLog {
 public:
  int Begin(std::string name, std::string label, int parent) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{std::move(name), std::move(label), SinceEpochNs(Clock::now()), 0,
                          parent});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int id) {
    const int64_t now = SinceEpochNs(Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = now;
  }
  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

SpanLog g_spans;

class ScopedSpan {
 public:
  ScopedSpan(std::string name, int parent, std::string label = "")
      : id_(g_spans.Begin(std::move(name), std::move(label), parent)) {}
  ~ScopedSpan() { g_spans.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  int id_;
};

// ---- JSON output ---------------------------------------------------------

class JsonOut {
 public:
  void Key(const char* k) {
    Sep();
    out_ += "\"";
    out_ += k;
    out_ += "\":";
    fresh_ = true;
  }
  void Num(double v) {
    Sep();
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    out_ += buf;
  }
  void Str(const std::string& v) {
    Sep();
    out_ += "\"" + v + "\"";  // callers pass identifiers, never quotes
  }
  void Open(char c) {
    Sep();
    out_ += c;
    fresh_ = true;
  }
  void Close(char c) {
    out_ += c;
    fresh_ = false;
  }
  const std::string& str() const { return out_; }

 private:
  void Sep() {
    if (!fresh_) {
      out_ += ",";
    }
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

// ---- plan execution ------------------------------------------------------

struct TrialTiming {
  double seconds = 0;
  uint64_t allocs = 0;
};

struct Rep {
  int threads = 1;
  const char* role = "measure";  // "measure", "traced" or "check"
  double wall_s = 0;
  double aggregate_s = 0;
  uint64_t digest = 0;              // whole-plan summary; 0 for a partial plan
  std::vector<uint64_t> trial_digests;  // indexed by trial_index; 0 = not run
  std::vector<TrialTiming> trials;  // indexed by trial_index
  uint64_t trace_records = 0;       // kept + evicted, traced reps only
  size_t heap_max = 0;              // max sim.queue_max_heap over trials
  double peak_rss_mb = 0;           // resident high-water mark during the rep
  std::string summary_json;         // first rep only
};

std::string TrialLabel(const TrialPoint& p) { return runner::TrialSignature(p); }

// Sums "records" and "dropped" over every captured trace_end line.
uint64_t CountTraceRecords() {
  uint64_t total = 0;
  for (const auto& [sig, text] : runner::TakeCapturedTraces()) {
    (void)sig;
    size_t pos = 0;
    while ((pos = text.find("{\"type\":\"trace_end\"", pos)) != std::string::npos) {
      unsigned long long records = 0, dropped = 0;
      if (std::sscanf(text.c_str() + pos,
                      "{\"type\":\"trace_end\",\"records\":%llu,\"dropped\":%llu}", &records,
                      &dropped) == 2) {
        total += records + dropped;
      }
      ++pos;
    }
  }
  return total;
}

constexpr size_t kTraceRing = 4096;  // records per trial; the rest are counted

Rep RunRep(const Scenario& scenario, const std::vector<TrialPoint>& canonical,
           const std::vector<TrialPoint>& order, int threads, const char* role,
           bool keep_summary) {
  const bool traced = std::strcmp(role, "traced") == 0;
  Rep rep;
  rep.threads = threads;
  rep.role = role;
  rep.trials.resize(canonical.size());
  if (traced) {
    runner::ArmTrace(obs::kAllCats, kTraceRing, runner::TraceFormat::kJsonl);
  }

  ScopedSpan plan_span(traced ? "plan_traced" : "plan", -1,
                       "threads=" + std::to_string(threads));
  const int plan_id = plan_span.id();
  Scenario wrapped = scenario;
  wrapped.run = [&scenario, &rep, plan_id](const TrialPoint& p) {
    ScopedSpan span("trial_fn", plan_id, TrialLabel(p));
    const uint64_t allocs_before = t_heap_allocs;
    const Clock::time_point t0 = Clock::now();
    TrialResult r = scenario.run(p);
    const Clock::time_point t1 = Clock::now();
    // Each plan slot is written by exactly one worker.
    rep.trials[static_cast<size_t>(p.trial_index)] =
        TrialTiming{Seconds(t0, t1), t_heap_allocs - allocs_before};
    return r;
  };

  runner::RunnerOptions options;
  options.threads = threads;
  options.trials = 1;
  runner::TrialRunner trial_runner(options);
  const Clock::time_point w0 = Clock::now();
  std::vector<TrialResult> results = trial_runner.Run(wrapped, order);
  const Clock::time_point w1 = Clock::now();
  rep.wall_s = Seconds(w0, w1);

  // Per-trial digests let a partial plan (the single-thread check) be
  // compared with full ones; each is the ToJson of a one-trial summary.
  rep.trial_digests.assign(canonical.size(), 0);
  for (size_t i = 0; i < order.size(); ++i) {
    const std::string one = runner::ToJson(runner::Aggregate(scenario.spec, {order[i]}, {results[i]}));
    rep.trial_digests[static_cast<size_t>(order[i].trial_index)] =
        Fnv1a64(reinterpret_cast<const uint8_t*>(one.data()), one.size());
    auto it = results[i].scalars.find("sim.queue_max_heap");
    if (it != results[i].scalars.end()) {
      rep.heap_max = std::max(rep.heap_max, static_cast<size_t>(it->second));
    }
  }
  if (order.size() == canonical.size()) {
    std::vector<TrialResult> by_index(canonical.size());
    for (size_t i = 0; i < order.size(); ++i) {
      by_index[static_cast<size_t>(order[i].trial_index)] = std::move(results[i]);
    }
    ScopedSpan agg_span("aggregate", plan_id);
    const Clock::time_point a0 = Clock::now();
    runner::ScenarioSummary summary = runner::Aggregate(scenario.spec, canonical, by_index);
    std::string json = runner::ToJson(summary);
    const std::string csv = runner::ToCsv(summary);  // timed like bundler_run's output
    const Clock::time_point a1 = Clock::now();
    rep.aggregate_s = Seconds(a0, a1);
    rep.digest = Fnv1a64(reinterpret_cast<const uint8_t*>(json.data()), json.size());
    if (keep_summary) {
      rep.summary_json = std::move(json);
    }
  }
  if (traced) {
    rep.trace_records = CountTraceRecords();
    runner::DisarmTrace();
  }
  return rep;
}

uint64_t NextRand(uint64_t* s) {
  *s = *s * 6364136223846793005ULL + 1442695040888963407ULL;
  return *s >> 33;
}

// ---- host speed calibration -----------------------------------------------

// Fixed work that never changes with the simulator's sources, in three
// timed segments whose sum is one sample (~20 ms): a hold model on
// std::priority_queue (depth 4096) with a dependent walk over a 4 MiB random
// cycle, the same over a 128 KiB cycle, and an integer loop. Sampled
// between plan repetitions, its median over a run tracks how fast this
// shared host ran during the run; run.py divides measured times by it.
std::vector<uint32_t> RandomCycle(uint32_t slots) {
  std::vector<uint32_t> order(slots);
  for (uint32_t i = 0; i < slots; ++i) {
    order[i] = i;
  }
  uint64_t rng = 42;
  for (uint32_t i = slots - 1; i > 0; --i) {
    std::swap(order[i], order[NextRand(&rng) % (i + 1)]);
  }
  std::vector<uint32_t> next(slots);
  for (uint32_t i = 0; i < slots; ++i) {
    next[order[i]] = order[(i + 1) % slots];
  }
  return next;
}

double HeapWalkSeconds(const std::vector<uint32_t>& cycle) {
  std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<uint64_t>> heap;
  uint64_t rng = 7;
  for (int i = 0; i < 4096; ++i) {
    heap.push(NextRand(&rng));
  }
  uint32_t at = 0;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 50'000; ++i) {
    const uint64_t top = heap.top();
    heap.pop();
    heap.push(top + 1 + (NextRand(&rng) & 0xffff));
    at = cycle[at];
    at = cycle[at];
  }
  const Clock::time_point t1 = Clock::now();
  if (at >= cycle.size()) {
    std::fprintf(stderr, "calibration walk left its cycle\n");
    std::exit(1);
  }
  return Seconds(t0, t1);
}

double IntegerLoopSeconds() {
  uint64_t rng = 1;
  uint64_t acc = 0;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 3'000'000; ++i) {
    acc += NextRand(&rng) % 1000003;
  }
  const Clock::time_point t1 = Clock::now();
  if (acc == 0) {
    std::fprintf(stderr, "calibration loop summed to zero\n");
  }
  return Seconds(t0, t1);
}

double CalibrateOnce() {
  static const std::vector<uint32_t> big = RandomCycle(1u << 20);    // 4 MiB
  static const std::vector<uint32_t> small = RandomCycle(1u << 15);  // 128 KiB
  return HeapWalkSeconds(big) + HeapWalkSeconds(small) + IntegerLoopSeconds();
}

// Median calibration time over `threads` concurrent copies, so a pooled
// plan is scaled by the speed of the cores it ran on.
double Calibrate(int threads) {
  std::vector<double> t(static_cast<size_t>(threads));
  std::vector<std::thread> pool;
  for (size_t i = 1; i < t.size(); ++i) {
    pool.emplace_back([&t, i]() { t[i] = CalibrateOnce(); });
  }
  t[0] = CalibrateOnce();
  for (std::thread& th : pool) {
    th.join();
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

// ---- isolated layer replays ----------------------------------------------

template <typename F>
double MedianNs(int reps, F&& once) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    v.push_back(once());
  }
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Hold model: `depth` pending events; each dispatch schedules one successor
// at a random offset, so the heap stays at `depth` — the workload's heap_max.
struct HoldModel {
  Simulator* sim = nullptr;
  uint64_t rng = 1;
  uint64_t fired = 0;
  uint64_t target = 0;
  int64_t span_ns = 1;

  void Fire() {
    if (++fired >= target) {
      sim->Stop();
      return;
    }
    sim->Schedule(TimeDelta::Nanos(1 + static_cast<int64_t>(NextRand(&rng)) % span_ns),
                  [this]() { Fire(); });
  }
};

double SimScheduleDispatchNs(size_t depth) {
  return MedianNs(5, [depth]() {
    Simulator sim;
    HoldModel hold;
    hold.sim = &sim;
    hold.span_ns = static_cast<int64_t>(depth) * 1000 + 1;
    hold.target = 1'000'000;
    for (size_t i = 0; i < depth; ++i) {
      sim.Schedule(TimeDelta::Nanos(static_cast<int64_t>(NextRand(&hold.rng)) % hold.span_ns),
                   [&hold]() { hold.Fire(); });
    }
    const Clock::time_point t0 = Clock::now();
    sim.RunAll();
    const Clock::time_point t1 = Clock::now();
    return Seconds(t0, t1) * 1e9 / static_cast<double>(hold.fired);
  });
}

Packet FlowPacket(uint64_t i, uint64_t flows) {
  Packet p;
  p.flow_id = i % flows;
  p.key.src = MakeAddress(10, static_cast<uint16_t>(i % flows));
  p.key.dst = MakeAddress(100, 1);
  p.key.src_port = static_cast<uint16_t>(1024 + i % flows);
  p.key.dst_port = 80;
  p.size_bytes = kMtuBytes;
  return p;
}

// A standing backlog of 128 packets over 64 flows, then one enqueue and one
// dequeue per step: the bottleneck/sendbox qdisc under the §7.1 web mix.
// Both calls count as ops, like the qdisc.* enq/deq counters.
template <typename MakeQdisc>
double QdiscNsPerOp(MakeQdisc make) {
  return MedianNs(5, [&make]() {
    std::unique_ptr<Qdisc> q = make();
    constexpr uint64_t kFlows = 64;
    constexpr uint64_t kBacklog = 128;
    constexpr uint64_t kSteps = 400'000;
    TimePoint now;
    for (uint64_t i = 0; i < kBacklog; ++i) {
      (void)q->Enqueue(FlowPacket(i * 7, kFlows), now);
    }
    uint64_t sink = 0;
    const Clock::time_point t0 = Clock::now();
    for (uint64_t i = 0; i < kSteps; ++i) {
      now += TimeDelta::Micros(1);
      (void)q->Enqueue(FlowPacket(i * 7, kFlows), now);
      std::optional<Packet> out = q->Dequeue(now);
      sink += out.has_value() ? out->size_bytes : 0;
    }
    const Clock::time_point t1 = Clock::now();
    if (sink == 0) {
      std::fprintf(stderr, "qdisc replay dequeued nothing\n");
      std::exit(1);
    }
    return Seconds(t0, t1) * 1e9 / static_cast<double>(2 * kSteps);
  });
}

// cdn_edge's site: 52 tenants x 4 class-weighted bundles (tenants 1..8 in
// the premium band), 200 Mbit/s shaped aggregate offered 80% load, and every
// bundle's rate refreshed on a shared 10 ms control tick (kick=false, then
// one Kick), as SendboxManager does. One op = Enqueue plus its service.
double SiteEgressNsPerOp() {
  return MedianNs(5, []() {
    constexpr size_t kTenants = 52;
    constexpr size_t kBundles = 208;
    constexpr double kWeights[4] = {4.0, 2.0, 1.0, 0.5};
    Simulator sim;
    SiteEgress::Config cfg;
    cfg.aggregate_rate = Rate::Mbps(200);
    std::vector<SiteEgress::TenantSpec> tenants;
    for (size_t t = 0; t < kTenants; ++t) {
      tenants.push_back({"tenant" + std::to_string(t), (t >= 1 && t <= 8) ? 0 : 1, 1.0,
                         Rate::Zero()});
    }
    std::vector<SiteEgress::BundleSpec> bundles;
    for (size_t b = 0; b < kBundles; ++b) {
      SiteEgress::BundleSpec spec;
      spec.tenant = b / 4;
      spec.class_weight = kWeights[b % 4];
      spec.initial_rate = Rate::Mbps(2);
      bundles.push_back(spec);
    }
    uint64_t forwarded = 0;
    SiteEgress egress(&sim, cfg, std::move(tenants), std::move(bundles),
                      InlineFunction<void(size_t, Packet)>(
                          [&forwarded](size_t, Packet) { ++forwarded; }),
                      "perfbench_site");
    constexpr uint64_t kOps = 200'000;
    const TimeDelta step = TimeDelta::Micros(75);  // 1500 B at 80% of 200 Mbit/s
    const int64_t tick_every = TimeDelta::Millis(10).nanos() / step.nanos();
    uint64_t rng = 7;
    TimePoint now = sim.now();
    const Clock::time_point t0 = Clock::now();
    for (uint64_t i = 0; i < kOps; ++i) {
      now += step;
      sim.RunUntil(now);
      if (static_cast<int64_t>(i) % tick_every == 0) {
        for (size_t b = 0; b < kBundles; ++b) {
          egress.SetBundleRate(b, Rate::Mbps((i / tick_every + b) % 2 ? 2.0 : 1.5),
                               /*kick=*/false);
        }
        egress.Kick();
      }
      egress.Enqueue(NextRand(&rng) % kBundles, FlowPacket(i, 4096));
    }
    const Clock::time_point t1 = Clock::now();
    if (forwarded == 0) {
      std::fprintf(stderr, "site egress replay forwarded nothing\n");
      std::exit(1);
    }
    return Seconds(t0, t1) * 1e9 / static_cast<double>(kOps);
  });
}

// NimbusDetector::Evaluate is private and runs every eval_every_samples
// AddSample calls; ns per eval is the sample stream's time over the
// evaluations it triggered, sample bookkeeping included. Each detector lives
// for one trial's simulated length, so evaluations before its FFT window
// fills return early as they do in the workload; after that the bottleneck
// is busy with cross traffic and every evaluation runs the FFT.
double NimbusEvalNs(TimeDelta trial_length) {
  return MedianNs(5, [trial_length]() {
    NimbusDetector::Config cfg;
    const uint64_t per_trial = static_cast<uint64_t>(trial_length / cfg.sample_interval);
    constexpr uint64_t kMinEvals = 2000;
    uint64_t evals = 0;
    uint64_t rng = 11;
    const Clock::time_point t0 = Clock::now();
    while (evals < kMinEvals) {
      NimbusDetector det(cfg);
      TimePoint now;
      for (uint64_t i = 0; i < per_trial; ++i) {
        now += cfg.sample_interval;
        const double wobble = static_cast<double>(NextRand(&rng) % 2000) / 100.0;
        // ~17 Mbit/s of inferred cross traffic behind a standing queue.
        det.AddSample(now, Rate::Mbps(60 + wobble), Rate::Mbps(70 - wobble / 2),
                      TimeDelta::Millis(static_cast<int64_t>(15 + i % 7)),
                      TimeDelta::Millis(10));
      }
      evals += per_trial / cfg.eval_every_samples;
    }
    const Clock::time_point t1 = Clock::now();
    return Seconds(t0, t1) * 1e9 / static_cast<double>(evals);
  });
}

// ---- resident memory -----------------------------------------------------

// Writing "5" to /proc/self/clear_refs resets the resident-set high-water
// mark (VmHWM) to the current resident set, so each repetition's peak can be
// read separately.
void ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  const bool ok = f != nullptr && std::fputs("5", f) >= 0;
  if (f == nullptr || std::fclose(f) != 0 || !ok) {
    std::fprintf(stderr, "cannot reset the resident high-water mark via /proc/self/clear_refs\n");
    std::exit(1);
  }
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  char line[256];
  double kb = -1;
  while (f != nullptr && std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) {
      break;
    }
  }
  if (f != nullptr) {
    std::fclose(f);
  }
  if (kb <= 0) {
    std::fprintf(stderr, "no VmHWM in /proc/self/status\n");
    std::exit(1);
  }
  return kb / 1024.0;
}

// ---- set-up --------------------------------------------------------------

struct SetupBatch {
  double setup_s = 0;       // median registration + topology provider
  double topo_build_s = 0;  // median topology provider alone
};

// Set-up is scenario registration into a fresh registry plus the scenario's
// topology provider, which builds its graph into a scratch simulator. One
// batch repeats it for at least kMinReps samples and kMinSeconds (a dumbbell
// builds in tens of microseconds) and keeps the medians.
SetupBatch MeasureSetup(const Workload& w) {
  constexpr size_t kMinReps = 5;
  constexpr double kMinSeconds = 0.02;
  std::vector<double> setup_s, topo_build_s;
  double total = 0;
  ScopedSpan batch("setup", -1, w.scenario);
  while (setup_s.size() < kMinReps || total < kMinSeconds) {
    const Clock::time_point t0 = Clock::now();
    ScenarioRegistry registry;
    w.register_fn(&registry);
    const Scenario* s = registry.Find(w.scenario);
    const Clock::time_point t1 = Clock::now();
    std::string dot;
    {
      ScopedSpan topo("topology_build", batch.id(), w.scenario);
      dot = s->topology();
    }
    const Clock::time_point t2 = Clock::now();
    if (dot.empty()) {
      std::fprintf(stderr, "%s: topology provider rendered nothing\n", w.scenario);
      std::exit(1);
    }
    setup_s.push_back(Seconds(t0, t2));
    topo_build_s.push_back(Seconds(t1, t2));
    total += setup_s.back();
  }
  std::sort(setup_s.begin(), setup_s.end());
  std::sort(topo_build_s.begin(), topo_build_s.end());
  return SetupBatch{setup_s[setup_s.size() / 2], topo_build_s[topo_build_s.size() / 2]};
}

// ---- main ----------------------------------------------------------------

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void WriteRep(JsonOut* j, const Rep& rep) {
  j->Open('{');
  j->Key("threads");
  j->Num(rep.threads);
  j->Key("role");
  j->Str(rep.role);
  j->Key("wall_s");
  j->Num(rep.wall_s);
  j->Key("peak_rss_mb");
  j->Num(rep.peak_rss_mb);
  j->Key("aggregate_s");
  j->Num(rep.aggregate_s);
  j->Key("digest");
  j->Str(Hex(rep.digest));
  j->Key("trial_digests");
  j->Open('[');
  for (uint64_t d : rep.trial_digests) {
    j->Str(d == 0 ? "" : Hex(d));
  }
  j->Close(']');
  j->Key("trace_records");
  j->Num(static_cast<double>(rep.trace_records));
  j->Key("trial_s");
  j->Open('[');
  for (const TrialTiming& t : rep.trials) {
    j->Num(t.seconds);
  }
  j->Close(']');
  j->Key("trial_allocs");
  j->Open('[');
  for (const TrialTiming& t : rep.trials) {
    j->Num(static_cast<double>(t.allocs));
  }
  j->Close(']');
  j->Close('}');
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload NAME --seed N --seconds S --trace 0|1\n"
               "                         --threads N --out FILE\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name, out_path;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  int pool_threads = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      workload_name = v;
    } else if (flag == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(v);
    } else if (flag == "--trace") {
      trace = std::atoi(v);
    } else if (flag == "--threads") {
      pool_threads = std::atoi(v);
    } else if (flag == "--out") {
      out_path = v;
    } else {
      return Usage();
    }
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (workload_name == cand.name) {
      w = &cand;
    }
  }
  if (w == nullptr || seconds <= 0 || (trace != 0 && trace != 1) || pool_threads < 1 ||
      out_path.empty()) {
    return Usage();
  }

  ScenarioRegistry registry;
  w->register_fn(&registry);
  const Scenario& scenario = *registry.Find(w->scenario);
  const std::vector<TrialPoint> canonical = runner::ExpandTrials(scenario.spec, 1);
  // Seeded execution order (Fisher-Yates); simulated seeds are untouched.
  std::vector<TrialPoint> shuffled = canonical;
  uint64_t rng = seed * 0x9E3779B97F4A7C15ULL + 1;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[NextRand(&rng) % i]);
  }
  const int threads = w->pooled ? pool_threads : 1;
  // A pool's makespan depends on trial order, so pooled plans keep the
  // canonical order a user gets; single-threaded plans run shuffled.
  const std::vector<TrialPoint>& measured = w->pooled ? canonical : shuffled;

  // Calibration samples go before every repetition and after the last, so
  // they cover the same stretch of host time as the measurements. Set-up
  // batches interleave with the repetitions for the same reason.
  constexpr int kCalibPerGap = 3;
  std::vector<Rep> reps;
  std::vector<double> calib_s;
  std::vector<SetupBatch> setup;
  auto calibrate = [&calib_s, threads]() {
    for (int i = 0; i < kCalibPerGap; ++i) {
      calib_s.push_back(Calibrate(threads));
    }
  };
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  auto run = [&](const std::vector<TrialPoint>& order, int n, const char* role) {
    calibrate();
    setup.push_back(MeasureSetup(*w));
    // Each repetition starts from a trimmed heap, as a fresh bundler_run
    // process would, and gets its own resident-memory high-water mark.
    malloc_trim(0);
    ResetPeakRss();
    reps.push_back(RunRep(scenario, canonical, order, n, role, reps.empty()));
    reps.back().peak_rss_mb = PeakRssMb();
  };
  constexpr size_t kMinReps = 3;
  if (trace == 0) {
    do {
      run(measured, threads, "measure");
    } while (Clock::now() < deadline || reps.size() < kMinReps);
    if (w->pooled) {
      // Output check: a seed-chosen handful of trials on one thread must
      // give the same bytes as on the pool.
      constexpr size_t kCheckTrials = 5;
      run(std::vector<TrialPoint>(shuffled.begin(),
                                  shuffled.begin() + std::min(kCheckTrials, shuffled.size())),
          1, "check");
    }
  } else {
    do {
      run(measured, threads, "measure");
      run(measured, threads, "traced");
    } while (Clock::now() < deadline);
  }
  calibrate();


  std::map<std::string, double> layers;
  if (trace == 1) {
    // Heap depth for the hold model: the deepest heap any trial reached.
    const size_t heap_max = std::max<size_t>(1, reps[0].heap_max);
    ScopedSpan replay("replay", -1);
    auto timed = [&replay](const char* name, auto fn) {
      ScopedSpan span(name, replay.id());
      return fn();
    };
    layers["sim.schedule_dispatch_ns"] =
        timed("replay.sim", [heap_max]() { return SimScheduleDispatchNs(heap_max); });
    layers["sim.replay_heap_depth"] = static_cast<double>(heap_max);
    layers["qdisc.sfq_ns_per_op"] = timed("replay.sfq", []() {
      return QdiscNsPerOp([]() { return std::make_unique<Sfq>(Sfq::Config{}); });
    });
    layers["qdisc.drr_ns_per_op"] = timed("replay.drr", []() {
      return QdiscNsPerOp([]() { return std::make_unique<Drr>(Drr::Config{}); });
    });
    layers["qdisc.fifo_ns_per_op"] = timed("replay.fifo", []() {
      return QdiscNsPerOp([]() { return std::make_unique<DropTailFifo>(4 * 1024 * 1024); });
    });
    layers["bundler.site_egress_ns_per_op"] =
        timed("replay.site_egress", []() { return SiteEgressNsPerOp(); });
    layers["bundler.nimbus_eval_ns"] = timed("replay.nimbus", [w]() { return NimbusEvalNs(w->trial_length()); });
  }

  JsonOut j;
  j.Open('{');
  j.Key("workload");
  j.Str(w->name);
  j.Key("scenario");
  j.Str(w->scenario);
  j.Key("compiler");
  j.Str(PERFBENCH_COMPILER);
  j.Key("build_type");
  j.Str(PERFBENCH_BUILD_TYPE);
  j.Key("threads");
  j.Num(threads);
  j.Key("setup_s");
  j.Open('[');
  for (const SetupBatch& b : setup) {
    j.Num(b.setup_s);
  }
  j.Close(']');
  j.Key("topo_build_s");
  j.Open('[');
  for (const SetupBatch& b : setup) {
    j.Num(b.topo_build_s);
  }
  j.Close(']');
  j.Key("calib_s");
  j.Open('[');
  for (double v : calib_s) {
    j.Num(v);
  }
  j.Close(']');
  j.Key("trial_labels");
  j.Open('[');
  for (const TrialPoint& p : canonical) {
    j.Str(TrialLabel(p));
  }
  j.Close(']');
  j.Key("reps");
  j.Open('[');
  for (const Rep& rep : reps) {
    WriteRep(&j, rep);
  }
  j.Close(']');
  j.Key("layers");
  j.Open('{');
  for (const auto& [k, v] : layers) {
    j.Key(k.c_str());
    j.Num(v);
  }
  j.Close('}');
  j.Key("spans");
  j.Open('[');
  for (const Span& s : g_spans.Take()) {
    j.Open('{');
    j.Key("name");
    j.Str(s.name);
    j.Key("label");
    j.Str(s.label);
    j.Key("start_ns");
    j.Num(static_cast<double>(s.start_ns));
    j.Key("end_ns");
    j.Num(static_cast<double>(s.end_ns));
    j.Key("parent");
    j.Num(s.parent);
    j.Close('}');
  }
  j.Close(']');
  j.Close('}');

  const std::string summary_path = out_path + ".summary.json";
  if (!runner::WriteFile(out_path, j.str() + "\n") ||
      !runner::WriteFile(summary_path, reps[0].summary_json)) {
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace bundler

int main(int argc, char** argv) { return bundler::perfbench::Main(argc, argv); }
