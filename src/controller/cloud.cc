#include "controller/cloud.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/stats.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace imcf {
namespace controller {

const char* AllocationPolicyName(AllocationPolicy policy) {
  switch (policy) {
    case AllocationPolicy::kEqualShare:
      return "equal-share";
    case AllocationPolicy::kDemandProportional:
      return "demand-proportional";
    case AllocationPolicy::kUtilitarian:
      return "utilitarian";
  }
  return "?";
}

CloudMetaController::CloudMetaController(CloudOptions options)
    : options_(std::move(options)), fault_plan_(options_.fault) {
  probe_base_ =
      options_.start != 0 ? options_.start : trace::EvaluationStart();
  if (options_.registry != nullptr) {
    registry_ = options_.registry;
  } else {
    owned_registry_ = std::make_unique<serve::TenantRegistry>(
        /*shards=*/4, options_.fault, options_.retry);
    if (options_.cost_ledger != nullptr) {
      owned_registry_->set_cost_ledger(options_.cost_ledger);
    }
    registry_ = owned_registry_.get();
  }
}

CloudMetaController::~CloudMetaController() {
  auto& reg = obs::MetricRegistry::Default();
  static obs::Counter* const attempts = reg.GetCounter(
      "imcf_fault_cmc_probe_attempts_total",
      "CMC probe attempts against household Local Controllers");
  static obs::Counter* const failures = reg.GetCounter(
      "imcf_fault_cmc_probe_failures_total",
      "CMC probes that stayed unreachable after retries");
  static obs::Counter* const fallbacks = reg.GetCounter(
      "imcf_fault_cmc_demand_fallbacks_total",
      "Demand forecasts degraded to the household's configured cap");
  attempts->Increment(probe_attempts_);
  failures->Increment(probe_failures_);
  fallbacks->Increment(demand_fallbacks_);
}

bool CloudMetaController::ProbeAvailable(const std::string& name,
                                         SimTime probe_time) {
  if (!fault_plan_.enabled()) return true;
  const std::string channel = "cmc:" + name;
  const uint64_t token = MixHash(ChannelHash(channel),
                                 static_cast<uint64_t>(probe_time));
  const fault::RetryTrace trace = fault::RunWithRetry(
      options_.retry, token, probe_time, [&](SimTime when) {
        fault::AttemptResult result;
        const fault::FaultDecision decision = fault_plan_.At(channel, when);
        result.fault = decision.kind;
        if (decision.kind == fault::FaultKind::kDelay) {
          result.latency_seconds = decision.delay_seconds;
        }
        return result;
      });
  probe_attempts_ += trace.attempts;
  if (!trace.success) {
    ++probe_failures_;
    obs::TraceEvent("cmc.probe_failed", "controller", name, "attempts",
                    trace.attempts);
  }
  return trace.success;
}

Status CloudMetaController::AddHousehold(std::string name,
                                         trace::DatasetSpec spec) {
  serve::TenantConfig config;
  config.id = name;
  config.seed = MixHash(options_.seed, names_.size() + 1);
  config.budget_kwh = spec.budget_kwh;  // placeholder; Run() allocates
  config.start = options_.start;
  config.hours = options_.hours;
  config.mrt_variation = spec.mrt_variation;
  IMCF_RETURN_IF_ERROR(registry_->AdmitWithSpec(config, std::move(spec)));
  names_.push_back(std::move(name));
  return Status::Ok();
}

Status CloudMetaController::Adopt(const std::string& name) {
  if (std::find(names_.begin(), names_.end(), name) != names_.end()) {
    return Status::AlreadyExists("household adopted: " + name);
  }
  if (!registry_->Contains(name)) {
    return Status::NotFound("no such tenant: " + name);
  }
  names_.push_back(name);
  return Status::Ok();
}

Status CloudMetaController::ForecastDemands() {
  obs::ScopedSpan span("cmc.forecast", "controller");
  for (size_t i = 0; i < names_.size(); ++i) {
    const std::string& name = names_[i];
    if (demand_kwh_.count(name) > 0) continue;  // cached
    const SimTime probe_time =
        probe_base_ + static_cast<SimTime>(i) * kSecondsPerMinute;
    if (!ProbeAvailable(name, probe_time)) {
      // The LC never answered: degrade to the household's configured cap
      // as the demand estimate instead of failing the whole allocation.
      double cap = 0.0;
      IMCF_RETURN_IF_ERROR(
          registry_->WithTenant(name, [&cap](serve::Tenant& tenant) {
            cap = tenant.simulator().options().spec.budget_kwh;
            return Status::Ok();
          }));
      demand_kwh_[name] = cap;
      ++demand_fallbacks_;
      continue;
    }
    double demand = 0.0;
    IMCF_RETURN_IF_ERROR(
        registry_->WithTenant(name, [&demand](serve::Tenant& tenant) {
          IMCF_ASSIGN_OR_RETURN(
              sim::SimulationReport report,
              tenant.simulator().Run(sim::Policy::kMetaRule, /*rep=*/0));
          demand = report.fe_kwh;
          return Status::Ok();
        }));
    demand_kwh_[name] = demand;
  }
  return Status::Ok();
}

Result<sim::SimulationReport> CloudMetaController::RunHousehold(
    const std::string& name, double allocation_kwh) {
  obs::ScopedSpan span("cmc.household", "controller");
  span.Detail(name);
  sim::SimulationReport report;
  IMCF_RETURN_IF_ERROR(registry_->WithTenant(
      name, [allocation_kwh, &report](serve::Tenant& tenant) {
        IMCF_RETURN_IF_ERROR(tenant.simulator().SetBudget(allocation_kwh));
        IMCF_ASSIGN_OR_RETURN(
            report, tenant.simulator().Run(sim::Policy::kEnergyPlanner,
                                           /*rep=*/0));
        return Status::Ok();
      }));
  return report;
}

Result<std::vector<double>> CloudMetaController::Allocate() {
  obs::ScopedSpan span("cmc.allocate", "controller");
  span.Detail(AllocationPolicyName(options_.policy));
  const size_t n = names_.size();
  std::vector<double> shares(n, 0.0);
  switch (options_.policy) {
    case AllocationPolicy::kEqualShare: {
      const double each = options_.community_budget_kwh / static_cast<double>(n);
      std::fill(shares.begin(), shares.end(), each);
      return shares;
    }
    case AllocationPolicy::kDemandProportional:
    case AllocationPolicy::kUtilitarian: {
      IMCF_RETURN_IF_ERROR(ForecastDemands());
      double total_demand = 0.0;
      for (const std::string& name : names_) total_demand += demand_kwh_[name];
      if (total_demand <= 0.0) {
        return Status::FailedPrecondition("no household demand");
      }
      for (size_t i = 0; i < n; ++i) {
        shares[i] = options_.community_budget_kwh * demand_kwh_[names_[i]] /
                    total_demand;
      }
      if (options_.policy == AllocationPolicy::kDemandProportional) {
        return shares;
      }
      // Utilitarian refinement: move budget from the household that loses
      // least to the one that gains most, judged by probe runs.
      for (int round = 0; round < options_.utilitarian_rounds; ++round) {
        double best_gain = 0.0, best_loss = 1e18;
        int gainer = -1, donor = -1;
        for (size_t i = 0; i < n; ++i) {
          // One probe slot per (round, household); an unreachable LC sits
          // the round out (neither donor nor gainer) rather than aborting
          // the refinement.
          const SimTime probe_time =
              probe_base_ +
              static_cast<SimTime>(round + 1) * kSecondsPerHour +
              static_cast<SimTime>(i) * kSecondsPerMinute;
          if (!ProbeAvailable(names_[i], probe_time)) continue;
          const double a = shares[i];
          const double delta = a * options_.transfer_fraction;
          IMCF_ASSIGN_OR_RETURN(sim::SimulationReport at,
                                RunHousehold(names_[i], a));
          IMCF_ASSIGN_OR_RETURN(sim::SimulationReport more,
                                RunHousehold(names_[i], a + delta));
          IMCF_ASSIGN_OR_RETURN(
              sim::SimulationReport less,
              RunHousehold(names_[i], std::max(1.0, a - delta)));
          const double gain = at.fce_pct - more.fce_pct;   // F_CE saved
          const double loss = less.fce_pct - at.fce_pct;   // F_CE lost
          if (gain > best_gain) {
            best_gain = gain;
            gainer = static_cast<int>(i);
          }
          if (loss < best_loss) {
            best_loss = loss;
            donor = static_cast<int>(i);
          }
        }
        if (gainer < 0 || donor < 0 || gainer == donor ||
            best_gain <= best_loss) {
          break;  // no strictly improving transfer
        }
        const double delta =
            shares[static_cast<size_t>(donor)] * options_.transfer_fraction;
        shares[static_cast<size_t>(donor)] -= delta;
        shares[static_cast<size_t>(gainer)] += delta;
      }
      return shares;
    }
  }
  return Status::Internal("unknown allocation policy");
}

Result<CloudReport> CloudMetaController::Run() {
  if (names_.empty()) {
    return Status::FailedPrecondition("no households registered");
  }
  if (options_.community_budget_kwh <= 0.0) {
    return Status::InvalidArgument("community budget must be positive");
  }
  // A coordination round is its own trace root unless a caller already
  // opened one (e.g. a traced bench harness).
  const obs::TraceContext ambient = obs::Tracer::Current();
  obs::ScopedSpan run_span(
      "cmc.run", "controller",
      ambient.valid() ? ambient
                      : obs::Tracer::Root(obs::Tracer::MintTraceId()));
  run_span.Arg("households", static_cast<int64_t>(names_.size()));
  IMCF_ASSIGN_OR_RETURN(std::vector<double> shares, Allocate());

  CloudReport report;
  report.policy = AllocationPolicyName(options_.policy);
  report.community_budget_kwh = options_.community_budget_kwh;

  RunningStat fce;
  for (size_t i = 0; i < names_.size(); ++i) {
    const std::string& name = names_[i];
    IMCF_ASSIGN_OR_RETURN(sim::SimulationReport sim_report,
                          RunHousehold(name, shares[i]));
    HouseholdReport hr;
    hr.name = name;
    hr.allocation_kwh = shares[i];
    const auto demand = demand_kwh_.find(name);
    hr.demand_kwh = demand != demand_kwh_.end() ? demand->second : 0.0;
    hr.fce_pct = sim_report.fce_pct;
    hr.fe_kwh = sim_report.fe_kwh;
    report.households.push_back(hr);
    report.total_fe_kwh += sim_report.fe_kwh;
    fce.Add(sim_report.fce_pct);
  }
  report.mean_fce_pct = fce.mean();
  report.fairness_stddev = fce.stddev();
  report.probe_failures = probe_failures_;
  report.demand_fallbacks = demand_fallbacks_;
  report.within_budget =
      report.total_fe_kwh <= report.community_budget_kwh + 1e-6;
  return report;
}

Result<std::unique_ptr<CloudMetaController>> DefaultNeighborhood(
    int n, double community_budget_kwh, CloudOptions options) {
  if (n <= 0) return Status::InvalidArgument("need at least one household");
  options.community_budget_kwh = community_budget_kwh;
  auto cmc = std::make_unique<CloudMetaController>(options);
  Rng rng(options.seed);
  for (int i = 0; i < n; ++i) {
    trace::DatasetSpec spec = trace::FlatSpec();
    spec.name = StrFormat("home%02d", i);
    spec.seed = MixHash(options.seed, static_cast<uint64_t>(i));
    // Conflicting interests: households differ in rule tables and
    // appetite (device sizes vary ±30%).
    spec.mrt_variation = 0.4;
    const double appetite = rng.UniformDouble(0.7, 1.3);
    spec.hvac.kw_per_degree *= appetite;
    spec.light.max_power_kw *= appetite;
    IMCF_RETURN_IF_ERROR(cmc->AddHousehold(spec.name, spec));
  }
  return cmc;
}

}  // namespace controller
}  // namespace imcf
