#include "src/metrics/queue_monitor.h"

#include <utility>

#include "src/util/check.h"

namespace bundler {

QdiscSampler::QdiscSampler(Simulator* sim, const Qdisc* qdisc, TimeDelta interval,
                           InlineFunction<Rate()> rate_provider)
    : sim_(sim),
      qdisc_(qdisc),
      interval_(interval),
      rate_provider_(std::move(rate_provider)) {
  BUNDLER_CHECK(sim_ != nullptr);
  BUNDLER_CHECK(qdisc_ != nullptr);
  BUNDLER_CHECK(interval_.nanos() > 0);
  timer_ = sim_->Schedule(interval_, [this]() { Tick(); });
}

QdiscSampler::~QdiscSampler() { sim_->Cancel(timer_); }

void QdiscSampler::Tick() {
  // Re-arm first, so timer_ always names the pending tick.
  timer_ = sim_->Schedule(interval_, [this]() { Tick(); });
  TimePoint now = sim_->now();
  double b = static_cast<double>(qdisc_->bytes());
  bytes_.Add(now, b);
  Rate rate = rate_provider_ ? rate_provider_() : Rate::Zero();
  double delay_ms = rate.bps() > 0 ? b * 8.0 / rate.bps() * 1e3 : 0.0;
  delay_ms_.Add(now, delay_ms);
}

}  // namespace bundler
