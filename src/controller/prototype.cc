#include "controller/prototype.h"

#include <chrono>
#include <map>
#include <memory>

#include "common/strings.h"
#include "controller/items.h"
#include "controller/scheduler.h"
#include "core/evaluator.h"
#include "core/slot_problem.h"
#include "devices/energy_model.h"
#include "energy/budget.h"
#include "fault/command_bus.h"
#include "fault/fallback_weather.h"
#include "firewall/imcf_firewall.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "trace/dataset.h"
#include "weather/weather.h"

namespace imcf {
namespace controller {

namespace {

using Clock = std::chrono::steady_clock;

/// The family home: three room units with larger split units and lighting
/// circuits than the House dataset's small zones (the prototype home is a
/// regular three-room residence).
trace::DatasetSpec FamilyHomeSpec() {
  trace::DatasetSpec spec = trace::HouseSpec();
  spec.name = "family-home";
  spec.units = 3;
  spec.seed = 77;
  spec.hvac.kw_per_degree = 0.09;
  spec.hvac.fan_kw = 0.07;
  spec.hvac.deadband_c = 2.0;
  spec.light.max_power_kw = 0.60;
  return spec;
}

/// Net-metering bank depth for the weekly cap: surplus beyond a few hours
/// of budget is not banked, so evening peaks are genuinely rationed.
constexpr double kCarryCapHours = 4.0;

}  // namespace

PrototypeStudy::PrototypeStudy(PrototypeOptions options)
    : options_(std::move(options)) {}

Result<PrototypeReport> PrototypeStudy::Run(
    const std::vector<Resident>& residents) {
  if (residents.empty()) {
    return Status::InvalidArgument("prototype needs at least one resident");
  }
  const trace::DatasetSpec spec = FamilyHomeSpec();
  const SimTime start = options_.week_start != 0
                            ? options_.week_start
                            : FromCivil(2016, 2, 15);  // a late-winter week
  const SimTime end = start + 7 * kSecondsPerDay;

  // Rule configuration, persisted like the prototype's MariaDB layer.
  IMCF_ASSIGN_OR_RETURN(rules::MetaRuleTable mrt, MergeResidents(residents));
  PrototypeReport report;
  std::unique_ptr<TableStore> store;
  if (!options_.store_dir.empty()) {
    IMCF_ASSIGN_OR_RETURN(store, TableStore::Open(options_.store_dir));
    IMCF_ASSIGN_OR_RETURN(Table * rules_table,
                          store->OpenOrCreateTable(ResidentRuleSchema()));
    IMCF_RETURN_IF_ERROR(rules_table->Truncate());
    IMCF_ASSIGN_OR_RETURN(report.config_bytes_per_user,
                          PersistResidents(residents, rules_table));
  } else {
    // Still measure the serialized footprint without touching disk.
    const TableSchema schema = ResidentRuleSchema();
    int64_t bytes = 0;
    for (const Resident& r : residents) {
      for (const rules::MetaRule& rule : r.rules) {
        Row row{r.name,
                rule.description,
                static_cast<int64_t>(rule.window.start_minute),
                static_cast<int64_t>(rule.window.end_minute),
                static_cast<int64_t>(rule.action),
                rule.value,
                static_cast<int64_t>(rule.unit)};
        bytes += static_cast<int64_t>(EncodeRow(schema, row).size());
      }
    }
    report.config_bytes_per_user =
        static_cast<double>(bytes) / static_cast<double>(residents.size());
  }

  // Devices, items, environment.
  devices::DeviceRegistry registry;
  std::vector<devices::DeviceId> hvac_ids, light_ids;
  for (int u = 0; u < spec.units; ++u) {
    IMCF_ASSIGN_OR_RETURN(devices::DeviceId ac,
                          registry.Add(StrFormat("room%d_ac", u),
                                       devices::DeviceKind::kHvac, u,
                                       StrFormat("192.168.1.%d", 10 + u)));
    IMCF_ASSIGN_OR_RETURN(devices::DeviceId li,
                          registry.Add(StrFormat("room%d_light", u),
                                       devices::DeviceKind::kLight, u,
                                       StrFormat("192.168.1.%d", 20 + u)));
    hvac_ids.push_back(ac);
    light_ids.push_back(li);
  }
  ItemRegistry items;
  IMCF_RETURN_IF_ERROR(items.BindDevices(registry));

  weather::SyntheticWeather weather(spec.climate);
  const fault::FaultPlan fault_plan(options_.fault);
  // The prototype reads "data from the open weather API" — a link the
  // fault plan can take down; sensor models then see last-known weather.
  const fault::FallbackWeather degraded_weather(&weather, &fault_plan);
  std::vector<trace::AmbientModel> ambient;
  for (int u = 0; u < spec.units; ++u) {
    ambient.emplace_back(&degraded_weather, spec.ambient,
                         MixHash(spec.seed, static_cast<uint64_t>(u)));
  }
  devices::UnitEnergyModels models;
  models.hvac = devices::HvacEnergyModel(spec.hvac);
  models.light = devices::LightEnergyModel(spec.light);

  // Weekly budget, linearly amortized (the family set a weekly cap).
  energy::AmortizationOptions amort;
  amort.kind = energy::AmortizationKind::kLaf;
  amort.total_budget_kwh = options_.weekly_budget_kwh;
  amort.period_start = start;
  amort.period_end = end;
  IMCF_ASSIGN_OR_RETURN(
      energy::AmortizationPlan plan,
      energy::AmortizationPlan::Create(amort, energy::FlatEcp()));
  energy::BudgetLedger ledger(&plan);

  firewall::MetaControlFirewall fw(&registry, /*audit_capacity=*/512);
  std::unique_ptr<fault::CommandBus> bus;
  if (fault_plan.enabled()) {
    bus = std::make_unique<fault::CommandBus>(&fault_plan, options_.retry,
                                              &registry);
    fw.set_command_bus(bus.get());
  }
  core::HillClimbingPlanner planner(options_.ep);
  Rng rng(options_.seed);
  // Reused across cron invocations: after the first plan the evaluator
  // tables are carved from retained arena blocks.
  core::PlanArena plan_arena;

  // Per-resident error accounting (Table V).
  std::map<std::string, ResidentReport> per_user;
  for (const Resident& r : residents) per_user[r.name].name = r.name;

  double error_sum = 0.0;
  int64_t activations = 0;
  double carry = 0.0;
  const size_t n_rules = mrt.convenience_count();

  VirtualScheduler scheduler(start);

  // Job 1: sensor refresh every 15 minutes (items mirror the environment).
  IMCF_RETURN_IF_ERROR(scheduler.Schedule(
      "sensor-refresh", "*/15 * * * *", [&](SimTime now) {
        ++report.sensor_refreshes;
        for (int u = 0; u < spec.units; ++u) {
          (void)items.Update(StrFormat("room%d_ac_SetPoint", u),
                             ambient[static_cast<size_t>(u)].IndoorTempC(now),
                             now);
        }
      }));

  // Job 2: the Energy Planner, run by cron at the top of every hour.
  IMCF_RETURN_IF_ERROR(scheduler.Schedule(
      "energy-planner", "0 * * * *", [&](SimTime now) {
        ++report.planner_runs;
        const SimTime midpoint = now + kSecondsPerHour / 2;
        const int minute = MinuteOfDay(midpoint);

        core::SlotProblem problem;
        problem.n_rules = static_cast<int>(n_rules);
        problem.groups.resize(static_cast<size_t>(spec.units) * 2);
        for (int u = 0; u < spec.units; ++u) {
          problem.groups[static_cast<size_t>(u) * 2].ambient =
              ambient[static_cast<size_t>(u)].IndoorTempC(midpoint);
          problem.groups[static_cast<size_t>(u) * 2].type =
              devices::CommandType::kSetTemperature;
          problem.groups[static_cast<size_t>(u) * 2 + 1].ambient =
              ambient[static_cast<size_t>(u)].IndoorLightPct(midpoint);
          problem.groups[static_cast<size_t>(u) * 2 + 1].type =
              devices::CommandType::kSetLight;
        }
        for (size_t i = 0; i < n_rules; ++i) {
          const rules::MetaRule& rule = mrt.ConvenienceRule(i);
          if (!rule.window.ContainsMinute(minute)) continue;
          core::ActiveRule active;
          active.rule_index = static_cast<int>(i);
          active.group =
              rule.unit * 2 +
              (rule.TargetKind() == devices::DeviceKind::kLight ? 1 : 0);
          active.desired = rule.value;
          active.type = rule.TargetCommand();
          const double amb =
              problem.groups[static_cast<size_t>(active.group)].ambient;
          active.energy_kwh =
              models.CommandEnergyKwh(active.type, rule.value, amb, 1.0);
          active.drop_error =
              core::NormalizedError(active.type, rule.value, amb);
          problem.active.push_back(active);
        }
        const double hourly = plan.HourlyBudget(midpoint);
        problem.budget_kwh = hourly + carry;
        plan_arena.Reset();
        const core::SlotEvaluator evaluator(&problem, &plan_arena);

        static obs::Histogram* const plan_ns =
            obs::MetricRegistry::Default().GetHistogram(
                "imcf_prototype_plan_wall_ns",
                "Wall time of one prototype EP cron invocation",
                obs::LatencyBoundsNs());
        core::PlanOutcome outcome;
        {
          obs::ScopedTimer plan_span(plan_ns, &report.ft_seconds);
          outcome = planner.PlanSlot(evaluator, &rng);
        }

        // Install firewall verdicts and route the commands.
        std::vector<int> dropped;
        for (const core::ActiveRule& active : problem.active) {
          if (!outcome.solution.adopted(
                  static_cast<size_t>(active.rule_index))) {
            dropped.push_back(
                mrt.convenience_ids()[static_cast<size_t>(active.rule_index)]);
          }
        }
        fw.SetDroppedRules(dropped);

        std::vector<const core::ActiveRule*> winner(
            static_cast<size_t>(spec.units) * 2, nullptr);
        for (const core::ActiveRule& active : problem.active) {
          const rules::MetaRule& rule =
              mrt.ConvenienceRule(static_cast<size_t>(active.rule_index));
          devices::ActuationCommand cmd;
          cmd.device = rule.TargetKind() == devices::DeviceKind::kHvac
                           ? hvac_ids[static_cast<size_t>(rule.unit)]
                           : light_ids[static_cast<size_t>(rule.unit)];
          cmd.type = active.type;
          cmd.value = active.desired;
          cmd.rule_id = rule.id;
          cmd.time = now;
          cmd.source = "mrt";
          ++report.commands_issued;
          const firewall::Decision decision = fw.Filter(cmd);
          if (decision.verdict == firewall::Verdict::kDrop) {
            ++report.commands_dropped;
            if (decision.reason ==
                firewall::DecisionReason::kDeviceUnavailable) {
              ++report.commands_failed;
            }
            continue;
          }
          (void)items.ApplyCommand(cmd);
          const core::ActiveRule*& w =
              winner[static_cast<size_t>(active.group)];
          if (w == nullptr || active.rule_index > w->rule_index) w = &active;
        }
        double slot_energy = 0.0;
        for (const auto* w : winner) {
          if (w != nullptr) slot_energy += w->energy_kwh;
        }
        for (const core::ActiveRule& active : problem.active) {
          const core::ActiveRule* w =
              winner[static_cast<size_t>(active.group)];
          double err;
          if (w == nullptr) {
            err = active.drop_error;
          } else if (w == &active) {
            err = 0.0;
          } else {
            err = core::NormalizedError(active.type, active.desired,
                                        w->desired);
          }
          error_sum += err;
          ++activations;
          const rules::MetaRule& rule =
              mrt.ConvenienceRule(static_cast<size_t>(active.rule_index));
          ResidentReport& rr = per_user[rule.user];
          rr.fce_pct += err;  // accumulated; normalised below
          ++rr.activations;
        }
        ledger.Charge(midpoint, slot_energy);
        carry += hourly - slot_energy;
        if (carry < 0.0) carry = 0.0;
        if (carry > kCarryCapHours * hourly) carry = kCarryCapHours * hourly;
      }));

  scheduler.AdvanceTo(end);

  report.fe_kwh = ledger.TotalConsumedKwh();
  report.fce_pct = activations > 0
                       ? 100.0 * error_sum / static_cast<double>(activations)
                       : 0.0;
  report.budget_kwh = options_.weekly_budget_kwh;
  report.within_budget = report.fe_kwh <= report.budget_kwh + 1e-6;
  for (auto& [name, rr] : per_user) {
    rr.fce_pct = rr.activations > 0
                     ? 100.0 * rr.fce_pct /
                           static_cast<double>(rr.activations)
                     : 0.0;
    report.residents.push_back(rr);
  }
  return report;
}

}  // namespace controller
}  // namespace imcf
