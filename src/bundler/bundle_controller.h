// Per-bundle control loop of the sendbox (§4, §6). A BundleController owns
// everything that decides a bundle's rate — congestion measurements, the
// bundle congestion-control algorithm, Nimbus elasticity / multipath
// detection, the PI traffic-passing controller, the feedback watchdog, and
// epoch sizing — but owns no data plane and no timer: its SendboxManager
// drives ControlTick() every control_interval from one tick shared by every
// bundle of the site. The controller steers its bundle's entry in the site's
// SiteEgress hierarchy directly and sends epoch ctl straight to the site
// uplink. Net::bundle_controller(bundle) hands out the
// controller of any admitted bundle, which makes it the per-bundle
// introspection surface (mode and rate logs, watchdog state, measurements).
#ifndef SRC_BUNDLER_BUNDLE_CONTROLLER_H_
#define SRC_BUNDLER_BUNDLE_CONTROLLER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/bundler/measurement.h"
#include "src/bundler/nimbus_detector.h"
#include "src/bundler/pi_controller.h"
#include "src/bundler/site_egress.h"
#include "src/cc/cc.h"
#include "src/net/node.h"
#include "src/net/packet.h"
#include "src/sim/simulator.h"
#include "src/util/timeseries.h"

namespace bundler {

enum class BundlerMode {
  kDelayControl,  // normal operation: delay-based rate control, queue at sendbox
  kPassThrough,   // buffer-filling cross traffic detected: let endhosts compete
  kDisabled,      // imbalanced multipath detected: status quo
};

const char* BundlerModeName(BundlerMode mode);

// Everything the control loop needs to know (SendboxConfig in
// src/bundler/sendbox_manager.h adds the bundle's scheduler).
// Field-by-field semantics are documented where each subsystem lives; the
// watchdog and robust-elasticity knobs carry their own design notes.
struct BundleControlConfig {
  SiteId local_site = 0;   // bundle = data packets from here...
  SiteId remote_site = 0;  // ...to here
  Address ctl_addr = 0;             // our control address (feedback arrives here)
  Address receivebox_ctl_addr = 0;  // epoch-size updates go here

  BundleCcType cc = BundleCcType::kCopa;
  bool nimbus_detection = true;
  bool multipath_detection = true;
  // When re-entering delay control (pass-through exit, disabled-mode
  // probe, watchdog re-sync), seed the rate controller from the measured
  // egress rate instead of restarting it cold from `initial_rate`. Off by
  // default: the cold restart is the historical behavior and the pinned
  // figures (fig09/10/13) keep it off so their goldens stay byte-identical
  // across PRs, but it collapses the bundle to `initial_rate` for several
  // seconds per switch — the root cause of the fig10 phase-3 reproduction
  // gap (see README "Dynamic link events" and the fig10_warm_restart
  // scenario). Every robustness scenario added since (feedback_blackout,
  // feedback_loss_sweep, the watchdog arms) turns it on: graceful
  // degradation is pointless if recovery restarts the bundle from scratch.
  bool warm_restart = false;

  // Feedback watchdog (control-loop resilience). Two independent triggers
  // degrade the bundle gracefully instead of letting it shape on state it
  // cannot trust:
  //  - Staleness: no receivebox feedback has matched for
  //    `watchdog_timeout` (a blackout). While degraded for this cause the
  //    controller re-probes the receivebox with epoch ctl messages at
  //    exponentially backed-off intervals (`watchdog_probe_initial`
  //    doubling up to `watchdog_probe_max`), and the first matched
  //    feedback re-syncs immediately.
  //  - Delay-control contract violation: the loop's queue-delay estimate
  //    has stayed above `watchdog_qdel_budget` for `watchdog_timeout`
  //    straight while in delay control. Delay control's whole contract is
  //    a near-empty queue; a delay it cannot drain no matter how hard it
  //    backs off is not its delay (a congested *reverse* path inflating
  //    the loop RTT — the asym_reverse collapse regime) and shaping on it
  //    strangles the bundle for nothing. Feedback keeps flowing here, so
  //    no probes; re-sync waits for the delay to genuinely clear (below
  //    half the budget, hysteresis against flapping on the congested
  //    queue's sawtooth).
  // Degradation itself is the same for both causes: the shaper opens to
  // `max_rate` (the bundle behaves like status quo) and mode/elasticity
  // decisions freeze. Re-sync reseeds the rate controller through the
  // `warm_restart` path and normal control resumes the same tick. Off by
  // default (pinned figures predate it).
  bool watchdog = false;
  TimeDelta watchdog_timeout = TimeDelta::Millis(500);
  TimeDelta watchdog_probe_initial = TimeDelta::Millis(250);
  TimeDelta watchdog_probe_max = TimeDelta::Seconds(4);
  TimeDelta watchdog_qdel_budget = TimeDelta::Millis(50);

  // Robust elasticity entries/exits (ROADMAP "close fig10 phase 3 for
  // real"). Three changes, one knob:
  //  - Exit gate: a quiet tick counts toward the pass-through exit only
  //    while the bottleneck is *idle*. In pass-through the sendbox rarely
  //    has a backlog, so the Nimbus probe pulse cannot modulate egress and
  //    a quiet verdict while the bottleneck still holds a standing queue
  //    is uninformative — counting those ticks is what flapped fig10's
  //    phase 2 out of pass-through every ~10 s. Quiet+busy ticks *drain*
  //    the counter (floor 0): a live competitor keeps the bottleneck
  //    mostly busy, so its brief idle dips (loss recovery) never
  //    accumulate into an exit, while a mostly-idle bottleneck — only the
  //    bundle's own transient bursts — still exits promptly.
  //  - Busy entry: `elastic_busy_enter_ticks` consecutive busy samples
  //    while in delay control enter pass-through without waiting for the
  //    FFT metric. Delay control keeps the bundle's own standing queue
  //    ~1 ms (below the busy threshold), so a multi-second uninterrupted
  //    standing queue means buffer-filling cross traffic — the FFT merely
  //    classifies it a few seconds later.
  //  - Probe-and-commit: a robust exit *is* the probe (delay control with
  //    the reseeded controller). If it bounces straight back into
  //    pass-through (within `elastic_reentry_window`), the next exit
  //    requires progressively more quiet-and-idle ticks (doubling, capped
  //    at 8x), mirroring the disabled-mode probe backoff.
  // Off by default for the pinned figures.
  bool robust_elastic_exit = false;
  int elastic_busy_enter_ticks = 200;  // 2 s of uninterrupted standing queue
  TimeDelta elastic_reentry_window = TimeDelta::Seconds(10);

  Rate initial_rate = Rate::Mbps(12);
  Rate max_rate = Rate::Gbps(1);  // pass-through cap / disabled-mode rate
  TimeDelta control_interval = TimeDelta::Millis(10);
  uint32_t initial_epoch_pkts = 16;

  // Multipath hysteresis (§5.2, §7.6: 5% separates single from multi path
  // by two orders of magnitude). While disabled the controller periodically
  // re-probes delay control (with exponential backoff up to
  // `disabled_probe_max`): ordering statistics measured under status-quo
  // queueing cannot distinguish recovered paths, so recovery requires a
  // probe under delay control.
  double ooo_disable_threshold = 0.05;
  double ooo_enable_threshold = 0.01;
  TimeDelta disabled_min_dwell = TimeDelta::Seconds(4);
  TimeDelta disabled_probe_max = TimeDelta::Seconds(60);
  // After (re)entering delay control, give the rate controller time to
  // drain status-quo queues before judging packet ordering; the judgment
  // then starts from a clean slate.
  TimeDelta multipath_eval_grace = TimeDelta::Seconds(3);

  // Elasticity hysteresis: a Schmitt trigger on the detector metric.
  // Enter pass-through after `elastic_enter_ticks` consecutive ticks above
  // the detector's elastic threshold; leave only after `elastic_exit_ticks`
  // consecutive ticks *below* `elastic_exit_metric` (metrics in between
  // hold the current mode, preventing flapping on a noisy metric).
  int elastic_enter_ticks = 30;    // 0.3 s of consecutive elastic verdicts
  int elastic_exit_ticks = 500;    // 5 s of consecutive quiet verdicts
  double elastic_exit_metric = 1.5;
  TimeDelta mode_min_dwell = TimeDelta::Seconds(2);

  MeasurementEngine::Config measurement;
  NimbusDetector::Config nimbus;
  PiController::Config pi;
};

class BundleController {
 public:
  // Watchdog state machine events, in occurrence order (see
  // BundleControlConfig::watchdog).
  enum class WatchdogEvent { kDegrade, kProbe, kResync };
  // Which trigger caused the current degradation (kNone when not degraded).
  enum class WatchdogCause { kNone, kStale, kDelay };

  // The controller shapes bundle `egress_idx` of `egress` and sends epoch
  // ctl to `uplink`, bypassing the shaping hierarchy (control packets are
  // never shaped). `obs_name` keys every trace component and counter this
  // controller registers (the site pair, e.g. "s10-s100"). Registration
  // happens here, so the pointers below are never null afterwards. No
  // events are scheduled: the owner calls ControlTick() every
  // config.control_interval and kicks `egress` once after ticking every
  // controller.
  BundleController(Simulator* sim, const BundleControlConfig& config,
                   SiteEgress* egress, size_t egress_idx, PacketHandler* uplink,
                   const std::string& obs_name);
  BundleController(const BundleController&) = delete;
  BundleController& operator=(const BundleController&) = delete;

  // --- Driven by the owner ---
  // Receivebox congestion feedback addressed to this bundle.
  void OnFeedback(const Packet& pkt);
  // Every bundle data packet leaving the shaping stage: egress accounting +
  // epoch boundary reporting. Datapath-hot; non-virtual.
  void OnDataSent(const Packet& pkt);
  // The control loop body (measure, detect, decide, set the bundle's rate
  // without kicking the egress pump). Call every config.control_interval.
  void ControlTick();

  // --- Introspection ---
  BundlerMode mode() const { return mode_; }
  // The rate the data plane enforces for this bundle right now, and the
  // backlog that rate governs.
  Rate shaped_rate() const { return egress_->bundle_rate(egress_idx_); }
  int64_t queue_bytes() const { return egress_->bundle_queue_bytes(egress_idx_); }
  bool watchdog_degraded() const { return wd_degraded_; }
  WatchdogCause watchdog_cause() const { return wd_cause_; }
  const std::vector<std::pair<TimePoint, WatchdogEvent>>& watchdog_log() const {
    return wd_log_;
  }
  uint32_t epoch_size_pkts() const { return epoch_pkts_; }
  int64_t bytes_sent() const { return bytes_sent_; }
  MeasurementEngine& measurement() { return meas_; }
  const NimbusDetector& detector() const { return detector_; }
  // (time, mode) transitions since start; used by Fig. 10's shaded regions.
  const std::vector<std::pair<TimePoint, BundlerMode>>& mode_log() const {
    return mode_log_;
  }
  // Enforced rate (Mbps) sampled every control tick.
  const TimeSeries& rate_log() const { return rate_log_; }
  // Queueing delay estimate at the sendbox (ms) per control tick (queue/rate).
  const TimeSeries& queue_delay_log() const { return queue_delay_log_; }

 private:
  void UpdateMode(const BundleMeasurement& m);
  void SwitchMode(BundlerMode next);
  void MaybeUpdateEpochSize(const BundleMeasurement& m);
  void SendEpochCtl();
  // Re-seeds the rate controller for (re-)entering delay control: warm from
  // the measured egress rate when BundleControlConfig::warm_restart, cold
  // otherwise. Shared by SwitchMode and the watchdog's re-sync.
  void ReseedController(TimePoint now);
  void WatchdogTick(const BundleMeasurement& m);
  void WatchdogProbe(TimePoint now);

  Simulator* sim_;
  BundleControlConfig config_;
  SiteEgress* egress_;
  size_t egress_idx_;
  PacketHandler* uplink_;
  MeasurementEngine meas_;
  std::unique_ptr<BundleCc> cc_;
  NimbusDetector detector_;
  PiController pi_;

  BundlerMode mode_ = BundlerMode::kDelayControl;
  TimePoint mode_entered_;
  int elastic_ticks_ = 0;
  int nonelastic_ticks_ = 0;
  TimeDelta disabled_probe_backoff_ = TimeDelta::Zero();  // set on first disable
  TimePoint last_disabled_exit_;
  bool mp_grace_cleared_ = false;  // OOO history reset once per grace period

  // Robust-exit probe-and-commit: when the previous pass-through exit bounced
  // back quickly, scale up the quiet-tick requirement (1, 2, 4, 8).
  int elastic_exit_scale_ = 1;
  TimePoint last_elastic_exit_;
  int busy_run_ticks_ = 0;  // consecutive busy samples (robust busy entry)

  // Feedback watchdog state (active only with BundleControlConfig::watchdog).
  bool wd_degraded_ = false;
  WatchdogCause wd_cause_ = WatchdogCause::kNone;
  bool wd_seen_feedback_ = false;  // loop must close once before staleness counts
  TimePoint wd_last_fresh_;
  TimePoint wd_qdel_ok_;  // last tick the delay-control contract held
  TimePoint wd_degraded_since_;
  TimeDelta wd_probe_backoff_ = TimeDelta::Zero();
  TimePoint wd_next_probe_;
  uint64_t wd_probe_seq_ = 0;
  std::vector<std::pair<TimePoint, WatchdogEvent>> wd_log_;

  uint32_t epoch_pkts_;
  TimePoint last_epoch_update_;
  TimePoint last_epoch_ctl_sent_;

  int64_t bytes_sent_ = 0;
  // Data-plane egress rate (EWMA over control ticks). Epoch sizing must use
  // this rather than the feedback-derived send rate: when the feedback loop
  // degrades, the feedback rate goes stale and a stale-undersized epoch floods
  // the receivebox with boundaries, which keeps the loop degraded.
  int64_t bytes_sent_at_last_tick_ = 0;
  double egress_rate_bps_ = 0.0;

  std::vector<std::pair<TimePoint, BundlerMode>> mode_log_;
  TimeSeries rate_log_;
  TimeSeries queue_delay_log_;

  // Observability: component ids for the trace stream plus registry-owned
  // counters (all registered in the constructor, so never null afterwards).
  // The pass-through fraction gauge is recomputed every control tick from
  // the cumulative dwell time spent in kPassThrough.
  uint32_t comp_ = 0;
  uint32_t cc_comp_ = 0;
  uint64_t* ctr_mode_transitions_ = nullptr;
  uint64_t* ctr_rate_updates_ = nullptr;
  uint64_t* ctr_cc_updates_ = nullptr;
  uint64_t* ctr_cc_resets_ = nullptr;
  uint64_t* ctr_wd_degrades_ = nullptr;
  uint64_t* ctr_wd_probes_ = nullptr;
  uint64_t* ctr_wd_resyncs_ = nullptr;
  double* passthrough_frac_ = nullptr;
  TimePoint start_time_;
  TimeDelta passthrough_accum_ = TimeDelta::Zero();
};

}  // namespace bundler

#endif  // SRC_BUNDLER_BUNDLE_CONTROLLER_H_
