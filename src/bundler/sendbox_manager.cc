#include "src/bundler/sendbox_manager.h"

#include <algorithm>
#include <utility>

#include "src/obs/trace.h"
#include "src/qdisc/fifo.h"
#include "src/qdisc/fq_codel.h"
#include "src/qdisc/prio.h"
#include "src/qdisc/sfq.h"
#include "src/util/check.h"

namespace bundler {

std::unique_ptr<Qdisc> MakeScheduler(SchedulerType type, int64_t limit_pkts,
                                     uint64_t perturbation) {
  switch (type) {
    case SchedulerType::kFifo:
      return std::make_unique<DropTailFifo>(limit_pkts * kMtuBytes);
    case SchedulerType::kSfq: {
      Sfq::Config cfg;
      cfg.limit_packets = limit_pkts;
      cfg.perturbation = perturbation;
      return std::make_unique<Sfq>(cfg);
    }
    case SchedulerType::kFqCodel: {
      FqCodel::Config cfg;
      cfg.limit_packets = limit_pkts;
      cfg.perturbation = perturbation;
      return std::make_unique<FqCodel>(cfg);
    }
    case SchedulerType::kPrio:
      return std::make_unique<StrictPrio>(3, limit_pkts * kMtuBytes / 3);
  }
  BUNDLER_CHECK(false);
  return nullptr;
}

namespace {
std::string PairName(const BundleControlConfig& config) {
  return "s" + std::to_string(config.local_site) + "-s" +
         std::to_string(config.remote_site);
}
}  // namespace

SendboxManager::SendboxManager(Simulator* sim, const Policy& policy,
                               std::vector<TenantPolicy> tenants,
                               std::vector<BundleDecl> bundles,
                               SiteId local_site, Address ctl_addr,
                               PacketHandler* egress,
                               const std::string& obs_name)
    : sim_(sim),
      policy_(policy),
      local_site_(local_site),
      ctl_addr_(ctl_addr),
      egress_handler_(egress) {
  BUNDLER_CHECK(sim_ != nullptr);
  BUNDLER_CHECK(egress_handler_ != nullptr);
  BUNDLER_CHECK(policy_.max_bundles > 0);
  BUNDLER_CHECK(!tenants.empty());

  obs::Tracer& tracer = sim_->trace();
  obs::CounterRegistry& reg = sim_->counters();
  comp_ = tracer.RegisterComponent("sendbox_manager", obs_name);
  ctr_admitted_ = reg.Counter("admit." + obs_name + ".admitted");
  ctr_rejected_cap_ = reg.Counter("admit." + obs_name + ".rejected_cap");
  ctr_rejected_budget_ = reg.Counter("admit." + obs_name + ".rejected_budget");
  ctr_orphan_feedback_ =
      reg.Counter("admit." + obs_name + ".orphan_feedback_pkts");

  const Rate budget = policy_.admission_budget.IsZero()
                          ? policy_.aggregate_rate
                          : policy_.admission_budget;

  // --- Admission, in bundle declaration order ---
  std::vector<SiteEgress::TenantSpec> tenant_specs;
  tenant_specs.reserve(tenants.size());
  tenant_names_.reserve(tenants.size());
  for (const TenantPolicy& ten : tenants) {
    BUNDLER_CHECK_MSG(!ten.name.empty(), "tenant policies must be named");
    BUNDLER_CHECK_MSG(
        ten.committed_rate.bps() <= budget.bps(),
        "tenant '%s' commits %.0f bps per bundle but the site admission "
        "budget is only %.0f bps — no bundle of this tenant could ever be "
        "admitted",
        ten.name.c_str(), ten.committed_rate.bps(), budget.bps());
    tenant_specs.push_back(SiteEgress::TenantSpec{ten.name, ten.priority,
                                                  ten.weight, ten.rate_cap});
    tenant_names_.push_back(ten.name);
  }

  double committed_bps = 0.0;
  std::vector<SiteEgress::BundleSpec> admitted_specs;
  decls_.reserve(bundles.size());
  SiteId max_site = 0;
  for (size_t i = 0; i < bundles.size(); ++i) {
    const BundleDecl& decl = bundles[i];
    BUNDLER_CHECK_MSG(decl.tenant < tenants.size(),
                      "bundle %zu references undeclared tenant %zu", i,
                      decl.tenant);
    BUNDLER_CHECK_MSG(decl.control.local_site == local_site_,
                      "bundle %zu: local site %u but manager owns site %u", i,
                      decl.control.local_site, local_site_);
    BUNDLER_CHECK_MSG(decl.control.ctl_addr == ctl_addr_,
                      "bundle %zu: ctl address %u differs from the site's "
                      "shared control address %u",
                      i, decl.control.ctl_addr, ctl_addr_);
    BUNDLER_CHECK_MSG(
        decl.control.control_interval == policy_.control_interval,
        "bundle %zu: control interval differs from the site's shared tick "
        "(all bundles of a site ride one timer)",
        i);
    max_site = std::max(max_site, decl.control.remote_site);

    DeclState state;
    state.tenant = decl.tenant;
    const double committed = tenants[decl.tenant].committed_rate.bps();
    if (admitted_specs.size() >= static_cast<size_t>(policy_.max_bundles)) {
      state.cause = RejectCause::kBundleCap;
      *ctr_rejected_cap_ += 1;
      tracer.Trace(obs::TraceCat::kTenant, obs::TraceEv::kTenantReject, comp_,
                   sim_->now(), i, 0, static_cast<uint64_t>(committed));
    } else if (committed_bps + committed > budget.bps() * (1.0 + 1e-9)) {
      state.cause = RejectCause::kRateBudget;
      *ctr_rejected_budget_ += 1;
      tracer.Trace(obs::TraceCat::kTenant, obs::TraceEv::kTenantReject, comp_,
                   sim_->now(), i, 1, static_cast<uint64_t>(committed));
    } else {
      committed_bps += committed;
      state.slot = static_cast<int32_t>(admitted_specs.size());
      SiteEgress::BundleSpec spec;
      spec.tenant = decl.tenant;
      spec.class_weight = decl.class_weight;
      spec.initial_rate = decl.control.initial_rate;
      spec.qdisc_factory = decl.control.scheduler_factory;
      if (!spec.qdisc_factory) {
        const SchedulerType type = decl.control.scheduler;
        const int64_t limit = decl.control.queue_limit_pkts;
        spec.qdisc_factory = [type, limit]() {
          return MakeScheduler(type, limit);
        };
      }
      admitted_specs.push_back(spec);
      *ctr_admitted_ += 1;
      tracer.Trace(obs::TraceCat::kTenant, obs::TraceEv::kTenantAdmit, comp_,
                   sim_->now(), i, static_cast<uint64_t>(committed),
                   admitted_specs.size());
    }
    decls_.push_back(state);
  }

  // --- Shared data plane, then the controllers that steer it ---
  SiteEgress::Config egress_config;
  egress_config.aggregate_rate = policy_.aggregate_rate;
  egress_config.burst_bytes = policy_.burst_bytes;
  egress_ = std::make_unique<SiteEgress>(
      sim_, egress_config, std::move(tenant_specs), std::move(admitted_specs),
      [this](size_t slot, Packet pkt) { OnBundleEgress(slot, std::move(pkt)); },
      obs_name);

  controllers_.resize(egress_->num_bundles());
  slot_of_site_.assign(static_cast<size_t>(max_site) + 1, -1);
  for (size_t i = 0; i < bundles.size(); ++i) {
    const BundleDecl& decl = bundles[i];
    const SiteId remote = decl.control.remote_site;
    BUNDLER_CHECK_MSG(slot_of_site_[remote] == -1,
                      "two bundles share destination site %u (the "
                      "receivebox ctl address would be ambiguous)",
                      remote);
    if (decls_[i].slot < 0) {
      continue;  // rejected: no controller, data passes through unshaped
    }
    slot_of_site_[remote] = decls_[i].slot;
    const size_t slot = static_cast<size_t>(decls_[i].slot);
    const std::string pair = PairName(decl.control);
    controllers_[slot] = std::make_unique<BundleController>(
        sim_, decl.control, egress_.get(), slot, egress_handler_, pair);
    // Every bundle's scheduler publishes under qdisc.sendbox.<pair>.
    Qdisc* q = egress_->bundle_qdisc(slot);
    q->BindObs(&tracer, tracer.RegisterComponent("qdisc", "sendbox." + pair));
    const Qdisc::Counters& qc = q->counters();
    reg.Expose("qdisc.sendbox." + pair + ".enq_pkts", &qc.enq_pkts);
    reg.Expose("qdisc.sendbox." + pair + ".deq_pkts", &qc.deq_pkts);
    reg.Expose("qdisc.sendbox." + pair + ".drop_pkts", &qc.drop_pkts);
    reg.Expose("qdisc.sendbox." + pair + ".mark_pkts", &qc.mark_pkts);
  }

  // One shared tick drives every admitted controller, in admission order.
  tick_timer_ = sim_->Schedule(policy_.control_interval,
                               [this]() { ControlTick(); });
}

SendboxManager::~SendboxManager() { sim_->Cancel(tick_timer_); }

void SendboxManager::ControlTick() {
  // Re-arm first: events the controllers schedule for the next tick's
  // instant order after it, and tick_timer_ always names the pending tick.
  tick_timer_ = sim_->Schedule(policy_.control_interval,
                               [this]() { ControlTick(); });
  for (const std::unique_ptr<BundleController>& ctl : controllers_) {
    ctl->ControlTick();
  }
  // Every controller set its rate without kicking; one kick re-evaluates the
  // hierarchy instead of N full pump scans.
  if (!controllers_.empty()) {
    egress_->Kick();
  }
}

void SendboxManager::OnBundleEgress(size_t slot, Packet pkt) {
  controllers_[slot]->OnDataSent(pkt);
  egress_handler_->HandlePacket(std::move(pkt));
}

void SendboxManager::HandlePacket(Packet pkt) {
  if (pkt.type == PacketType::kBundlerFeedback && pkt.key.dst == ctl_addr_) {
    // Feedback is sourced from (remote_site, ctl host): the source site IS
    // the bundle key.
    const int32_t slot = SlotOfSite(SiteOf(pkt.key.src));
    if (slot >= 0) {
      controllers_[static_cast<size_t>(slot)]->OnFeedback(pkt);
    } else {
      // A rejected bundle's receivebox still emits feedback; drop it here.
      *ctr_orphan_feedback_ += 1;
    }
    return;
  }
  if (pkt.type == PacketType::kData && SiteOf(pkt.key.src) == local_site_) {
    const int32_t slot = SlotOfSite(SiteOf(pkt.key.dst));
    if (slot >= 0) {
      egress_->Enqueue(static_cast<size_t>(slot), std::move(pkt));
      return;
    }
    // Not an admitted bundle (rejected, or plain non-bundle traffic):
    // status quo — straight to the uplink, unshaped.
  }
  egress_handler_->HandlePacket(std::move(pkt));
}

bool SendboxManager::admitted(size_t bundle) const {
  BUNDLER_CHECK(bundle < decls_.size());
  return decls_[bundle].slot >= 0;
}

SendboxManager::RejectCause SendboxManager::reject_cause(size_t bundle) const {
  BUNDLER_CHECK(bundle < decls_.size());
  return decls_[bundle].cause;
}

BundleController* SendboxManager::controller(size_t bundle) {
  BUNDLER_CHECK(bundle < decls_.size());
  const int32_t slot = decls_[bundle].slot;
  return slot < 0 ? nullptr : controllers_[static_cast<size_t>(slot)].get();
}

const BundleController* SendboxManager::controller(size_t bundle) const {
  BUNDLER_CHECK(bundle < decls_.size());
  const int32_t slot = decls_[bundle].slot;
  return slot < 0 ? nullptr : controllers_[static_cast<size_t>(slot)].get();
}

Rate SendboxManager::bundle_rate(size_t bundle) const {
  BUNDLER_CHECK(admitted(bundle));
  return egress_->bundle_rate(static_cast<size_t>(decls_[bundle].slot));
}

int64_t SendboxManager::bundle_queue_bytes(size_t bundle) const {
  BUNDLER_CHECK(admitted(bundle));
  return egress_->bundle_queue_bytes(static_cast<size_t>(decls_[bundle].slot));
}

const Qdisc* SendboxManager::bundle_qdisc(size_t bundle) const {
  BUNDLER_CHECK(admitted(bundle));
  return egress_->bundle_qdisc(static_cast<size_t>(decls_[bundle].slot));
}

size_t SendboxManager::tenant_of(size_t bundle) const {
  BUNDLER_CHECK(bundle < decls_.size());
  return decls_[bundle].tenant;
}

}  // namespace bundler
