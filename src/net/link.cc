#include "src/net/link.h"

#include <utility>

#include "src/util/check.h"

namespace bundler {

Link::Link(Simulator* sim, std::string name, Rate rate, TimeDelta prop_delay,
           std::unique_ptr<Qdisc> queue, PacketHandler* dst)
    : sim_(sim),
      name_(std::move(name)),
      rate_(rate),
      prop_delay_(prop_delay),
      queue_(std::move(queue)),
      dst_(dst) {
  BUNDLER_CHECK(sim_ != nullptr);
  BUNDLER_CHECK(queue_ != nullptr);
  // A zero initial rate is allowed: the link starts parked and waits for
  // set_rate (NetBuilder::AddLink is stricter for static topologies).
  parked_ = rate_.TransmitTime(kMtuBytes).IsInfinite();
  // Register with the observability layer: the link and its egress qdisc are
  // separate trace components; stats the link already keeps are exposed to
  // the counter registry by reference, transition counters are registry-owned.
  obs::Tracer& tracer = sim_->trace();
  comp_ = tracer.RegisterComponent("link", name_);
  queue_->BindObs(&tracer, tracer.RegisterComponent("qdisc", name_));
  obs::CounterRegistry& reg = sim_->counters();
  const std::string prefix = "link." + name_ + ".";
  reg.Expose(prefix + "tx_pkts", &stats_.packets_sent);
  reg.Expose(prefix + "drops", &stats_.drops);
  ctr_rate_changes_ = reg.Counter(prefix + "rate_changes");
  ctr_parks_ = reg.Counter(prefix + "parks");
  ctr_unparks_ = reg.Counter(prefix + "unparks");
  const std::string qprefix = "qdisc." + name_ + ".";
  const Qdisc::Counters& qc = queue_->counters();
  reg.Expose(qprefix + "enq_pkts", &qc.enq_pkts);
  reg.Expose(qprefix + "deq_pkts", &qc.deq_pkts);
  reg.Expose(qprefix + "drop_pkts", &qc.drop_pkts);
  reg.Expose(qprefix + "mark_pkts", &qc.mark_pkts);
}

void Link::set_rate(Rate rate) {
  const bool was_parked = parked_;
  const Rate old_rate = rate_;
  rate_ = rate;
  parked_ = rate_.TransmitTime(kMtuBytes).IsInfinite();
  ++*ctr_rate_changes_;
  if (parked_ != was_parked) {
    ++*(parked_ ? ctr_parks_ : ctr_unparks_);
  }
  if (tracer_enabled(obs::TraceCat::kLink)) {
    obs::Tracer& tracer = sim_->trace();
    tracer.Trace(obs::TraceCat::kLink, obs::TraceEv::kLinkRate, comp_,
                 sim_->now(), obs::EncodeRate(rate_), obs::EncodeRate(old_rate));
    if (parked_ != was_parked) {
      tracer.Trace(obs::TraceCat::kLink,
                   parked_ ? obs::TraceEv::kLinkPark : obs::TraceEv::kLinkUnpark,
                   comp_, sim_->now(), static_cast<uint64_t>(queue_->bytes()));
    }
  }
  // A parked or idle link may now be able to move its queue. The in-flight
  // packet (if any) is untouched: busy_ holds until its already-scheduled
  // completion, so it finishes at the rate its transmission started with.
  MaybeStartTransmission();
}

void Link::set_prop_delay(TimeDelta delay) {
  BUNDLER_CHECK_MSG(delay >= TimeDelta::Zero(), "link '%s': negative prop delay",
                    name_.c_str());
  if (tracer_enabled(obs::TraceCat::kLink)) {
    sim_->trace().Trace(obs::TraceCat::kLink, obs::TraceEv::kLinkDelay, comp_,
                        sim_->now(), static_cast<uint64_t>(delay.nanos()),
                        static_cast<uint64_t>(prop_delay_.nanos()));
  }
  prop_delay_ = delay;
}

void Link::HandlePacket(Packet pkt) {
  pkt.queue_enter = sim_->now();
  if (!queue_->Enqueue(std::move(pkt), sim_->now())) {
    ++stats_.drops;
    if (tracer_enabled(obs::TraceCat::kLink)) {
      sim_->trace().Trace(obs::TraceCat::kLink, obs::TraceEv::kLinkDrop, comp_,
                          sim_->now(), stats_.drops,
                          static_cast<uint64_t>(queue_->bytes()),
                          static_cast<uint64_t>(queue_->packets()));
    }
    MaybeStartTransmission();
    return;
  }
  MaybeStartTransmission();
}

void Link::MaybeStartTransmission() {
  if (busy_ || parked_) {
    // Parked: a zero (or unusably slow) rate would overflow serialization
    // math; hold the queue until set_rate makes the link usable again.
    return;
  }
  std::optional<Packet> pkt = queue_->Dequeue(sim_->now());
  if (!pkt.has_value()) {
    return;
  }
  busy_ = true;
  TimeDelta queue_delay = sim_->now() - pkt->queue_enter;
  for (LinkObserver* obs : observers_) {
    obs->OnDequeue(*pkt, queue_delay, sim_->now());
  }
  if (tracer_enabled(obs::TraceCat::kLink)) {
    sim_->trace().Trace(obs::TraceCat::kLink, obs::TraceEv::kLinkTx, comp_,
                        sim_->now(), pkt->flow_id, pkt->size_bytes,
                        static_cast<uint64_t>(queue_delay.nanos()));
  }
  TimeDelta tx = rate_.TransmitTime(pkt->size_bytes);
  BUNDLER_CHECK(!tx.IsInfinite());
  tx_pkt_ = std::move(*pkt);
  sim_->Schedule(tx, [this]() { OnTransmitDone(); });
}

void Link::OnTransmitDone() {
  ++stats_.packets_sent;
  stats_.bytes_sent += tx_pkt_.size_bytes;
  busy_ = false;
  Launch(sim_->now() + prop_delay_, std::move(tx_pkt_));
  MaybeStartTransmission();
}

void Link::Launch(TimePoint arrival, Packet pkt) {
  // The ticket is taken as the packet leaves the serializer, so its delivery
  // keeps the FIFO position an event scheduled right now would have.
  wire_.push_back(WireEntry{arrival, sim_->ReserveSeq(), std::move(pkt)});
  // After a set_prop_delay decrease a packet can overtake bits still in
  // flight: sift it forward to its (arrival, ticket) position. Its ticket is
  // the newest, so it stays behind entries arriving at the same instant.
  size_t pos = wire_.size() - 1;
  while (pos > 0 && wire_[pos - 1].arrival > arrival) {
    std::swap(wire_[pos - 1], wire_[pos]);
    --pos;
  }
  if (pos != 0) {
    return;  // the pending delivery still belongs to the head
  }
  if (wire_.size() > 1) {
    sim_->Cancel(delivery_);  // the head changed: re-arm for the new one
  }
  ArmDelivery();
}

void Link::ArmDelivery() {
  const WireEntry& head = wire_.front();
  delivery_ = sim_->ScheduleAt(head.arrival, head.ticket, [this]() { DeliverHead(); });
}

void Link::DeliverHead() {
  WireEntry head = wire_.pop_front();
  if (!wire_.empty()) {
    ArmDelivery();
  }
  dst_->HandlePacket(std::move(head.pkt));
}

}  // namespace bundler
