// Link monitors: per-packet queue-delay traces and windowed throughput
// meters, optionally filtered by a packet predicate (e.g. "bundle data
// only"). These provide the ground truth the paper's Figures 2, 5, 6, 10
// compare against.
#ifndef SRC_NET_MONITORS_H_
#define SRC_NET_MONITORS_H_

#include <string>

#include "src/net/link.h"
#include "src/sim/inline_function.h"
#include "src/sim/simulator.h"
#include "src/util/stats.h"
#include "src/util/timeseries.h"

namespace bundler {

// Inline-stored predicate (no heap allocation when a monitor is attached;
// NetBuilder copies monitor specs during Build, which InlineFunction's
// copyability supports).
using PacketPredicate = InlineFunction<bool(const Packet&)>;

// Records (time, queue delay ms) for every matching packet dequeued from a
// link's queue.
class QueueDelayMonitor : public LinkObserver {
 public:
  explicit QueueDelayMonitor(PacketPredicate filter = nullptr)
      : filter_(std::move(filter)) {}

  void OnDequeue(const Packet& pkt, TimeDelta queue_delay, TimePoint now) override;

  const TimeSeries& delay_ms() const { return delay_ms_; }
  // Queue delay at (or latest before) time t; 0 when no samples precede t.
  double DelayMsAt(TimePoint t) const;

 private:
  PacketPredicate filter_;
  TimeSeries delay_ms_;
};

// Counts matching bytes at dequeue time and folds them into fixed-width rate
// samples.
class RateMeter : public LinkObserver {
 public:
  RateMeter(Simulator* sim, TimeDelta window, PacketPredicate filter = nullptr);

  void OnDequeue(const Packet& pkt, TimeDelta queue_delay, TimePoint now) override;

  // Rate over windows that have fully elapsed.
  const TimeSeries& rate_mbps() const { return rate_mbps_; }
  // Average rate over [from, to) computed from raw byte counts.
  Rate AverageRate(TimePoint from, TimePoint to) const;
  int64_t total_bytes() const { return total_bytes_; }
  // Delivery rate around time t (mean of window samples covering t +/- one
  // window); 0 when no data.
  double RateMbpsAt(TimePoint t) const;

 private:
  void Roll(TimePoint now);

  TimeDelta window_;
  PacketPredicate filter_;
  TimeSeries rate_mbps_;
  TimeSeries cumulative_bytes_;  // sampled at window boundaries
  TimePoint window_start_;
  int64_t window_bytes_ = 0;
  int64_t total_bytes_ = 0;
};

}  // namespace bundler

#endif  // SRC_NET_MONITORS_H_
