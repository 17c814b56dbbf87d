#include "sim/simulation.h"

#include <algorithm>
#include <optional>

#include "common/logging.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/evaluator.h"
#include "core/slot_problem.h"
#include "fault/command_bus.h"
#include "fault/fallback_weather.h"
#include "obs/accounting/cost_ledger.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace imcf {
namespace sim {

namespace {

/// Wall latency of one per-slot planning step (the same span also adds it
/// to the run's F_T total and charges it to kPlan).
obs::Histogram* PlanWallNsHist() {
  static obs::Histogram* const hist =
      obs::MetricRegistry::Default().GetHistogram(
          "imcf_planner_plan_wall_ns",
          "Wall time of one per-slot planning step",
          obs::LatencyBoundsNs());
  return hist;
}

/// Dense device-group id for (unit, kind).
int GroupId(int unit, devices::DeviceKind kind) {
  return unit * 2 + (kind == devices::DeviceKind::kLight ? 1 : 0);
}

/// Deterministic trace id for one (policy, rep) grid cell: a pure function
/// of the cell index, so grid traces compare bit-identical at any thread
/// count.
uint64_t CellTraceId(int cell) {
  constexpr uint64_t kSimTraceSalt = 0x53494d43u;  // "SIMC"
  const uint64_t id = MixHash(kSimTraceSalt, static_cast<uint64_t>(cell));
  return id != 0 ? id : 1;
}

}  // namespace

const char* PolicyName(Policy policy) {
  switch (policy) {
    case Policy::kNoRule:
      return "NR";
    case Policy::kIfttt:
      return "IFTTT";
    case Policy::kEnergyPlanner:
      return "EP";
    case Policy::kMetaRule:
      return "MR";
    case Policy::kAnnealer:
      return "SA";
    case Policy::kGenetic:
      return "GA";
  }
  return "?";
}

Simulator::Simulator(SimulationOptions options)
    : options_(std::move(options)) {}

Status Simulator::Prepare() {
  if (prepared_) return Status::Ok();
  const trace::DatasetSpec& spec = options_.spec;
  if (spec.units <= 0) {
    return Status::InvalidArgument("dataset has no units");
  }

  start_ = options_.start != 0 ? options_.start : trace::EvaluationStart();
  hours_ = options_.hours != 0 ? options_.hours : trace::EvaluationHours();
  if (hours_ <= 0) return Status::InvalidArgument("empty simulation span");

  // Rule tables: Table II for the flat, uniform random variations for the
  // replicated datasets; Table III recipes in all cases.
  mrt_ = rules::VariedMrt(spec.units, spec.mrt_variation,
                          MixHash(options_.seed, spec.seed));
  ifttt_ = rules::FlatIfttt();
  for (const rules::TriggerRule& rule : options_.ifttt_extra) {
    ifttt_.Add(rule);
  }

  // Devices: one split unit and one luminaire per building unit.
  for (int u = 0; u < spec.units; ++u) {
    IMCF_ASSIGN_OR_RETURN(devices::DeviceId ac_id,
                          registry_.Add(StrFormat("unit%02d_ac", u),
                                        devices::DeviceKind::kHvac, u,
                                        StrFormat("10.0.%d.1", u)));
    IMCF_ASSIGN_OR_RETURN(devices::DeviceId light_id,
                          registry_.Add(StrFormat("unit%02d_light", u),
                                        devices::DeviceKind::kLight, u,
                                        StrFormat("10.0.%d.2", u)));
    hvac_ids_.push_back(ac_id);
    light_ids_.push_back(light_id);
  }
  unit_models_.hvac = devices::HvacEnergyModel(spec.hvac);
  unit_models_.light = devices::LightEnergyModel(spec.light);

  // Ambient ground truth and weather.
  weather_ = std::make_unique<weather::SyntheticWeather>(spec.climate);
  ambient_ = std::make_unique<trace::HourlyAmbient>(
      trace::BuildHourlyAmbient(spec, start_, hours_));
  unit_ambient_models_.clear();
  for (int u = 0; u < spec.units; ++u) {
    unit_ambient_models_.emplace_back(
        weather_.get(), spec.ambient,
        MixHash(spec.seed, static_cast<uint64_t>(u)));
  }

  IMCF_RETURN_IF_ERROR(RebuildPlan());

  prepared_ = true;
  return Status::Ok();
}

Status Simulator::RebuildPlan() {
  // Budget: Table II limit unless overridden, scaled by the Fig. 9 savings
  // knob, amortized per the configured formula.
  const double base_budget = options_.budget_kwh > 0.0
                                 ? options_.budget_kwh
                                 : options_.spec.budget_kwh;
  total_budget_ = base_budget * (1.0 - options_.savings_fraction);
  energy::AmortizationOptions amort;
  amort.kind = options_.amortization;
  amort.total_budget_kwh = total_budget_;
  amort.period_start = start_;
  amort.period_end = start_ + static_cast<SimTime>(hours_) * kSecondsPerHour;
  amort.balloon_fraction = options_.balloon_fraction;
  amort.balloon_months = options_.balloon_months;
  IMCF_ASSIGN_OR_RETURN(
      energy::AmortizationPlan plan,
      energy::AmortizationPlan::Create(amort, energy::FlatEcp()));
  plan_ = std::make_unique<energy::AmortizationPlan>(std::move(plan));
  return Status::Ok();
}

Status Simulator::SetBudget(double budget_kwh) {
  if (budget_kwh <= 0.0) {
    return Status::InvalidArgument("budget must be positive");
  }
  options_.budget_kwh = budget_kwh;
  return RebuildPlan();
}

Result<rules::EvaluationContext> Simulator::ContextAt(SimTime t,
                                                      int unit) const {
  if (!prepared_) {
    return Status::FailedPrecondition("call Prepare() before ContextAt()");
  }
  if (unit < 0 || unit >= options_.spec.units) {
    return Status::OutOfRange(StrFormat("unit %d out of range", unit));
  }
  int hour = static_cast<int>((t - start_) / kSecondsPerHour);
  if (hour < 0) hour = 0;
  if (hour >= hours_) hour = hours_ - 1;
  rules::EvaluationContext ctx;
  ctx.time = t;
  ctx.weather = weather_->At(t);
  ctx.ambient_temp_c = ambient_->temp(unit, hour);
  ctx.ambient_light_pct = ambient_->light(unit, hour);
  ctx.door_open =
      unit_ambient_models_[static_cast<size_t>(unit)].DoorOpen(t);
  return ctx;
}

Status Simulator::Reconfigure(double savings_fraction,
                              energy::AmortizationKind amortization) {
  if (savings_fraction < 0.0 || savings_fraction >= 1.0) {
    return Status::OutOfRange("savings fraction must be in [0, 1)");
  }
  options_.savings_fraction = savings_fraction;
  options_.amortization = amortization;
  return RebuildPlan();
}

Result<SimulationReport> Simulator::Run(Policy policy, int rep,
                                        core::PlanArena* arena) const {
  if (!prepared_) {
    return Status::FailedPrecondition("call Prepare() before Run()");
  }
  // Child of whatever requested this run (a serve.execute/tenant.with span
  // or a sim.cell root); a bare Run() with no ambient context records
  // nothing. Either way its self time — the run minus its planner steps —
  // is charged to kSim of the ambient cost scope, if any.
  obs::ScopedSpan run_span("sim.run", "sim",
                           {.phase = obs::CostPhase::kSim});
  run_span.Detail(PolicyName(policy));
  run_span.Arg("rep", rep);
  const trace::DatasetSpec& spec = options_.spec;
  const size_t n_rules = mrt_.convenience_count();
  const int n_groups = spec.units * 2;

  // Planner for this policy.
  std::unique_ptr<core::SlotPlanner> planner;
  switch (policy) {
    case Policy::kNoRule:
      planner = std::make_unique<core::NoRulePlanner>();
      break;
    case Policy::kMetaRule:
      planner = std::make_unique<core::MetaRulePlanner>();
      break;
    case Policy::kEnergyPlanner:
      planner = std::make_unique<core::HillClimbingPlanner>(options_.ep);
      break;
    case Policy::kAnnealer:
      planner = std::make_unique<core::SimulatedAnnealingPlanner>(options_.sa);
      break;
    case Policy::kGenetic:
      planner = std::make_unique<core::GeneticPlanner>(options_.ga);
      break;
    case Policy::kIfttt:
      break;  // handled separately below
  }

  // Every slot's evaluator refills this one arena, so its columns keep
  // their capacity across the run; a caller that runs many plans back to
  // back (the wire benchmark) may lend one that is already warm.
  core::PlanArena local_arena;
  core::PlanArena* const plan_arena = arena != nullptr ? arena : &local_arena;

  Rng rng(MixHash(MixHash(options_.seed, static_cast<uint64_t>(rep)),
                  static_cast<uint64_t>(policy)));
  const fault::FaultPlan fault_plan(options_.fault);
  firewall::MetaControlFirewall fw(&registry_, /*audit_capacity=*/256);
  std::unique_ptr<fault::CommandBus> bus;
  if (fault_plan.enabled()) {
    bus = std::make_unique<fault::CommandBus>(&fault_plan, options_.retry,
                                              &registry_);
    fw.set_command_bus(bus.get());
  }
  if (options_.chain_setup) options_.chain_setup(fw.chain());
  const fault::FallbackWeather degraded_weather(weather_.get(), &fault_plan);
  energy::BudgetLedger ledger(plan_.get());

  SimulationReport report;
  report.dataset = spec.name;
  report.policy = PolicyName(policy);
  report.budget_kwh = total_budget_;
  report.slots = hours_;
  run_span.SimSpan(start_,
                   start_ + static_cast<SimTime>(hours_) * kSecondsPerHour);

  double error_sum = 0.0;
  int64_t activations = 0;
  double adopted_fraction_sum = 0.0;
  int64_t slots_with_active = 0;
  double planner_seconds = 0.0;
  // The planner step is one span per slot whose clock pair feeds the
  // plan-latency histogram, F_T and the kPlan ledger phase.
  const obs::SpanSinks plan_sinks = {.wall_ns = PlanWallNsHist(),
                                     .wall_seconds = &planner_seconds,
                                     .phase = obs::CostPhase::kPlan};
  double carry = 0.0;
  double co2_g = 0.0;
  const energy::CarbonProfile carbon(options_.carbon);
  std::vector<double> carbon_tilt(24, 1.0);

  // Scratch reused across slots.
  core::SlotProblem problem;
  problem.n_rules = static_cast<int>(n_rules);
  problem.groups.resize(static_cast<size_t>(n_groups));
  std::vector<int> dropped_ids;
  std::vector<char> accepted;  // firewall verdict per active rule
  std::vector<int> necessity_active;
  std::vector<char> necessity_ok;  // firewall verdict per necessity rule
  std::vector<const core::ActiveRule*> winner(static_cast<size_t>(n_groups),
                                              nullptr);
  std::vector<rules::TriggerDecision> decisions(
      static_cast<size_t>(spec.units));

  const int cfg_span = std::max(1, options_.slot_hours);
  for (int h = 0; h < hours_; h += cfg_span) {
    const int span = std::min(cfg_span, hours_ - h);
    const int hm = h + span / 2;  // midpoint hour index: planning view
    const SimTime slot_time = ambient_->TimeOfHour(h);
    const SimTime midpoint =
        slot_time + static_cast<SimTime>(span) * kSecondsPerHour / 2;

    // One span per slot, covering planning, firewall routing and execution
    // accounting; firewall fw.drop events and the planner's ep.search span
    // nest under it.
    obs::ScopedSpan slot_span("plan.slot", "sim");
    slot_span.SimSpan(slot_time,
                      slot_time + static_cast<SimTime>(span) * kSecondsPerHour);
    const int64_t slot_issued_before = fw.stats().total;
    const int64_t slot_dropped_before = fw.stats().dropped();

    // Hours of the slot a daily window covers (1 for hourly slots).
    auto overlap_hours = [&](const TimeWindow& window) {
      int overlap = 0;
      for (int hh = h; hh < h + span; ++hh) {
        const SimTime hour_mid =
            ambient_->TimeOfHour(hh) + kSecondsPerHour / 2;
        if (window.ContainsMinute(MinuteOfDay(hour_mid))) ++overlap;
      }
      return overlap;
    };

    // --- Planning view: the slot problem priced at the slot's *mean*
    // ambient conditions. (With hourly slots this IS the ground truth;
    // with coarser slots it is the approximation the granularity trades
    // accuracy for: one adopt/drop decision covers the whole span.)
    problem.active.clear();
    for (size_t g = 0; g < problem.groups.size(); ++g) {
      const int unit = static_cast<int>(g) / 2;
      const bool is_light = (g % 2) == 1;
      double mean_ambient = 0.0;
      for (int hh = h; hh < h + span; ++hh) {
        mean_ambient += is_light ? ambient_->light(unit, hh)
                                 : ambient_->temp(unit, hh);
      }
      problem.groups[g].ambient = mean_ambient / span;
      problem.groups[g].type = is_light ? devices::CommandType::kSetLight
                                        : devices::CommandType::kSetTemperature;
    }
    for (size_t i = 0; i < n_rules; ++i) {
      const rules::MetaRule& rule = mrt_.ConvenienceRule(i);
      const int overlap = overlap_hours(rule.window);
      if (overlap == 0) continue;
      core::ActiveRule active;
      active.rule_index = static_cast<int>(i);
      active.group = GroupId(rule.unit, rule.TargetKind());
      active.desired = rule.value;
      active.type = rule.TargetCommand();
      const double amb =
          problem.groups[static_cast<size_t>(active.group)].ambient;
      active.energy_kwh = unit_models_.CommandEnergyKwh(
          active.type, rule.value, amb, static_cast<double>(overlap));
      // Drop errors weigh by covered hours so a rule active all day
      // outranks one active a single hour.
      active.drop_error =
          core::NormalizedError(active.type, rule.value, amb) * overlap;
      problem.active.push_back(active);
    }

    // Necessity rules: executed by every policy; their estimated load is
    // charged before the planner sees the budget.
    necessity_active.clear();
    problem.base_energy_kwh = 0.0;
    for (int id : mrt_.necessity_ids()) {
      const rules::MetaRule& rule = *mrt_.Get(id).value();
      const int overlap = overlap_hours(rule.window);
      if (overlap == 0) continue;
      const int group = GroupId(rule.unit, rule.TargetKind());
      const double amb =
          problem.groups[static_cast<size_t>(group)].ambient;
      problem.base_energy_kwh += unit_models_.CommandEnergyKwh(
          rule.TargetCommand(), rule.value, amb,
          static_cast<double>(overlap));
      necessity_active.push_back(id);
    }

    // Slot budget: the amortized hourly allocations of the span, optionally
    // tilted toward clean-grid hours.
    double slot_budget = 0.0;
    for (int hh = h; hh < h + span; ++hh) {
      const SimTime hour_mid = ambient_->TimeOfHour(hh) + kSecondsPerHour / 2;
      double hourly = plan_->HourlyBudget(hour_mid);
      if (options_.carbon_alpha > 0.0) {
        const int hour_of_day = MinuteOfDay(hour_mid) / 60;
        if (hour_of_day == 0 || hh == 0) {
          carbon_tilt = energy::CarbonTiltWeights(
              carbon,
              ambient_->TimeOfHour(hh) - hour_of_day * kSecondsPerHour,
              options_.carbon_alpha);
        }
        hourly *= carbon_tilt[static_cast<size_t>(hour_of_day)];
      }
      slot_budget += hourly;
    }
    problem.budget_kwh =
        options_.carryover ? slot_budget + carry : slot_budget;
    const core::SlotEvaluator evaluator(&problem, plan_arena);

    // --- Decision: plan (or evaluate recipes) and route commands through
    // the firewall.
    accepted.assign(problem.active.size(), 0);
    if (policy == Policy::kIfttt) {
      {
        obs::ScopedSpan plan_span("plan.search", "core", plan_sinks);
        for (int u = 0; u < spec.units; ++u) {
          rules::EvaluationContext ctx;
          ctx.time = midpoint;
          ctx.weather = degraded_weather.At(midpoint);
          ctx.ambient_temp_c = ambient_->temp(u, hm);
          ctx.ambient_light_pct = ambient_->light(u, hm);
          ctx.door_open =
              unit_ambient_models_[static_cast<size_t>(u)].DoorOpen(midpoint);
          decisions[static_cast<size_t>(u)] =
              ifttt_.Evaluate(ctx, options_.ifttt_policy);
        }
      }
      for (int u = 0; u < spec.units; ++u) {
        const rules::TriggerDecision& d = decisions[static_cast<size_t>(u)];
        if (d.temperature) {
          devices::ActuationCommand cmd;
          cmd.device = hvac_ids_[static_cast<size_t>(u)];
          cmd.type = devices::CommandType::kSetTemperature;
          cmd.value = *d.temperature;
          cmd.time = slot_time;
          cmd.source = "ifttt";
          if (fw.Filter(cmd).verdict == firewall::Verdict::kDrop) {
            decisions[static_cast<size_t>(u)].temperature.reset();
          }
        }
        if (d.light) {
          devices::ActuationCommand cmd;
          cmd.device = light_ids_[static_cast<size_t>(u)];
          cmd.type = devices::CommandType::kSetLight;
          cmd.value = *d.light;
          cmd.time = slot_time;
          cmd.source = "ifttt";
          if (fw.Filter(cmd).verdict == firewall::Verdict::kDrop) {
            decisions[static_cast<size_t>(u)].light.reset();
          }
        }
      }
      if (!problem.active.empty()) {
        ++slots_with_active;
        adopted_fraction_sum += 1.0;  // IFTTT executes regardless of the MRT
      }
    } else {
      core::PlanOutcome outcome;
      {
        obs::ScopedSpan plan_span(
            policy == Policy::kEnergyPlanner ? "ep.search" : "plan.search",
            "core", plan_sinks);
        outcome = planner->PlanSlot(evaluator, &rng);
        // Search-shape annotations; every value is rng-stream
        // deterministic.
        plan_span.Arg("iterations", outcome.iterations);
        plan_span.Arg("accepted", outcome.moves_accepted);
        plan_span.Detail(outcome.SearchShape());
      }

      dropped_ids.clear();
      for (const core::ActiveRule& active : problem.active) {
        if (!outcome.solution.adopted(
                static_cast<size_t>(active.rule_index))) {
          dropped_ids.push_back(
              mrt_.convenience_ids()[static_cast<size_t>(active.rule_index)]);
        }
      }
      fw.SetDroppedRules(dropped_ids);

      // One command per active rule; the firewall enforces the plan.
      size_t adopted_active = 0;
      for (size_t a = 0; a < problem.active.size(); ++a) {
        const core::ActiveRule& active = problem.active[a];
        const rules::MetaRule& rule =
            mrt_.ConvenienceRule(static_cast<size_t>(active.rule_index));
        devices::ActuationCommand cmd;
        cmd.device = rule.TargetKind() == devices::DeviceKind::kHvac
                         ? hvac_ids_[static_cast<size_t>(rule.unit)]
                         : light_ids_[static_cast<size_t>(rule.unit)];
        cmd.type = active.type;
        cmd.value = active.desired;
        cmd.rule_id = rule.id;
        cmd.time = slot_time;
        cmd.source = "mrt";
        if (fw.Filter(cmd).verdict == firewall::Verdict::kAccept) {
          accepted[a] = 1;
        }
        if (outcome.solution.adopted(
                static_cast<size_t>(active.rule_index))) {
          ++adopted_active;
        }
      }
      if (!problem.active.empty()) {
        ++slots_with_active;
        adopted_fraction_sum += static_cast<double>(adopted_active) /
                                static_cast<double>(problem.active.size());
      }
    }

    // Necessity commands, once per slot; only an admin chain rule (or an
    // unavailable device) can block them — and a blocked one must not be
    // charged as if it actuated.
    necessity_ok.assign(necessity_active.size(), 0);
    for (size_t ni = 0; ni < necessity_active.size(); ++ni) {
      const rules::MetaRule& rule = *mrt_.Get(necessity_active[ni]).value();
      devices::ActuationCommand cmd;
      cmd.device = rule.TargetKind() == devices::DeviceKind::kHvac
                       ? hvac_ids_[static_cast<size_t>(rule.unit)]
                       : light_ids_[static_cast<size_t>(rule.unit)];
      cmd.type = rule.TargetCommand();
      cmd.value = rule.value;
      cmd.rule_id = rule.id;
      cmd.time = slot_time;
      cmd.source = "mrt-necessity";
      if (fw.Filter(cmd).verdict == firewall::Verdict::kAccept) {
        necessity_ok[ni] = 1;
      }
    }

    // Per-slot firewall verdict summary on the slot span (the per-drop
    // reasons are the fw.drop child events).
    slot_span.Arg("cmd_issued", fw.stats().total - slot_issued_before);
    slot_span.Arg("cmd_dropped", fw.stats().dropped() - slot_dropped_before);

    // --- Execution and accounting, hour by hour against ground truth.
    // With hourly slots this coincides with the planning view; with
    // coarser slots it measures what the coarse plan actually causes.
    double slot_energy = 0.0;
    for (int hh = h; hh < h + span; ++hh) {
      const SimTime hour_mid = ambient_->TimeOfHour(hh) + kSecondsPerHour / 2;
      const int hour_minute = MinuteOfDay(hour_mid);
      double hour_energy = 0.0;

      std::fill(winner.begin(), winner.end(), nullptr);
      for (size_t a = 0; a < problem.active.size(); ++a) {
        const core::ActiveRule& active = problem.active[a];
        const rules::MetaRule& rule =
            mrt_.ConvenienceRule(static_cast<size_t>(active.rule_index));
        if (!rule.window.ContainsMinute(hour_minute)) continue;
        bool executes;
        if (policy == Policy::kIfttt) {
          executes = false;  // IFTTT actuation handled per unit below
        } else {
          executes = accepted[a] != 0;
        }
        if (executes) {
          const core::ActiveRule*& w =
              winner[static_cast<size_t>(active.group)];
          if (w == nullptr || active.rule_index > w->rule_index) w = &active;
        }
      }

      if (policy == Policy::kIfttt) {
        // IFTTT holds its decision for the whole slot on every unit.
        for (int u = 0; u < spec.units; ++u) {
          const rules::TriggerDecision& d =
              decisions[static_cast<size_t>(u)];
          if (d.temperature) {
            hour_energy += unit_models_.CommandEnergyKwh(
                devices::CommandType::kSetTemperature, *d.temperature,
                ambient_->temp(u, hh), 1.0);
          }
          if (d.light) {
            hour_energy += unit_models_.CommandEnergyKwh(
                devices::CommandType::kSetLight, *d.light,
                ambient_->light(u, hh), 1.0);
          }
        }
      } else {
        for (int g = 0; g < n_groups; ++g) {
          const core::ActiveRule* w = winner[static_cast<size_t>(g)];
          if (w == nullptr) continue;
          const int unit = g / 2;
          const double amb = (g % 2) == 1 ? ambient_->light(unit, hh)
                                          : ambient_->temp(unit, hh);
          hour_energy +=
              unit_models_.CommandEnergyKwh(w->type, w->desired, amb, 1.0);
        }
      }

      // Convenience error vs what the devices actually hold this hour.
      for (size_t a = 0; a < problem.active.size(); ++a) {
        const core::ActiveRule& active = problem.active[a];
        const rules::MetaRule& rule =
            mrt_.ConvenienceRule(static_cast<size_t>(active.rule_index));
        if (!rule.window.ContainsMinute(hour_minute)) continue;
        const int unit = active.group / 2;
        const double amb = (active.group % 2) == 1
                               ? ambient_->light(unit, hh)
                               : ambient_->temp(unit, hh);
        double actual = amb;
        if (policy == Policy::kIfttt) {
          const rules::TriggerDecision& d =
              decisions[static_cast<size_t>(unit)];
          const std::optional<double>& setpoint =
              active.type == devices::CommandType::kSetTemperature
                  ? d.temperature
                  : d.light;
          if (setpoint) actual = *setpoint;
        } else {
          const core::ActiveRule* w =
              winner[static_cast<size_t>(active.group)];
          if (w != nullptr) actual = w->desired;
        }
        error_sum += core::NormalizedError(active.type, active.desired,
                                           actual);
        ++activations;
      }

      // Necessity rules: when their command went through they hold the
      // setpoint (zero error); when the firewall/bus blocked it the device
      // never moved, so no energy is charged and the full ambient gap
      // counts as convenience error.
      for (size_t ni = 0; ni < necessity_active.size(); ++ni) {
        const rules::MetaRule& rule =
            *mrt_.Get(necessity_active[ni]).value();
        if (!rule.window.ContainsMinute(hour_minute)) continue;
        const int unit = rule.unit;
        const double amb =
            rule.TargetKind() == devices::DeviceKind::kLight
                ? ambient_->light(unit, hh)
                : ambient_->temp(unit, hh);
        if (necessity_ok[ni] != 0) {
          hour_energy += unit_models_.CommandEnergyKwh(
              rule.TargetCommand(), rule.value, amb, 1.0);
        } else {
          error_sum += core::NormalizedError(rule.TargetCommand(),
                                             rule.value, amb);
        }
        ++activations;
      }

      ledger.Charge(hour_mid, hour_energy);
      co2_g += hour_energy * carbon.IntensityAt(hour_mid);
      slot_energy += hour_energy;
    }

    if (options_.carryover) {
      carry += slot_budget - slot_energy;
      if (carry < 0.0) carry = 0.0;
      if (options_.carryover_cap_hours > 0.0) {
        const double cap =
            options_.carryover_cap_hours * slot_budget / span;
        if (carry > cap) carry = cap;
      }
    }
  }

  report.fe_kwh = ledger.TotalConsumedKwh();
  report.fce_pct =
      activations > 0 ? 100.0 * error_sum / static_cast<double>(activations)
                      : 0.0;
  report.ft_seconds = planner_seconds;
  report.activations = activations;
  report.within_budget = report.fe_kwh <= total_budget_ + 1e-6;
  report.mean_adopted_fraction =
      slots_with_active > 0
          ? adopted_fraction_sum / static_cast<double>(slots_with_active)
          : 0.0;
  report.co2_kg = co2_g / 1000.0;
  // The firewall saw every command this run issued.
  const firewall::FirewallStats& fw_stats = fw.stats();
  report.commands_issued = fw_stats.total;
  report.commands_dropped = fw_stats.dropped();
  report.commands_failed = fw_stats.device_unavailable;
  return report;
}

Result<RepeatedReport> Simulator::RunRepeated(Policy policy, int repetitions,
                                              ThreadPool* pool) const {
  IMCF_ASSIGN_OR_RETURN(std::vector<RepeatedReport> grid,
                        RunGrid({policy}, repetitions, pool));
  return std::move(grid[0]);
}

Result<std::vector<RepeatedReport>> Simulator::RunGrid(
    const std::vector<Policy>& policies, int repetitions,
    ThreadPool* pool) const {
  if (!prepared_) {
    return Status::FailedPrecondition("call Prepare() before RunGrid()");
  }
  ThreadPool caller_only(1);  // starts no thread
  if (pool == nullptr) pool = &caller_only;

  // Fan the (policy, repetition) grid out as independent work items. Each
  // item derives its random streams from its own (policy, rep) coordinates
  // — never from a shared generator — and writes only to its own slot, so
  // the grid is bit-identical for every executor count.
  const int n_cells = static_cast<int>(policies.size()) * repetitions;
  std::vector<std::optional<Result<SimulationReport>>> cells(
      static_cast<size_t>(n_cells));
  auto& reg = obs::MetricRegistry::Default();
  static obs::Histogram* const cell_seconds = reg.GetHistogram(
      "imcf_sim_cell_seconds",
      "Wall time of one (policy, repetition) simulation cell",
      obs::DurationBoundsSeconds());
  static obs::Counter* const cells_total = reg.GetCounter(
      "imcf_sim_cells_total", "Simulation grid cells executed");
  pool->ParallelFor(n_cells, [this, &policies, repetitions, &cells](int i) {
    const Policy policy = policies[static_cast<size_t>(i / repetitions)];
    const int rep = i % repetitions;
    // Each grid cell is a trace root with an id derived from its index, so
    // cell span trees replay identically at any thread count.
    double wall_seconds = 0.0;
    {
      obs::ScopedSpan cell_span("sim.cell", "sim",
                                obs::Tracer::Root(CellTraceId(i)),
                                {.wall_seconds = &wall_seconds});
      cell_span.Arg("cell", i);
      cells[static_cast<size_t>(i)].emplace(Run(policy, rep));
    }
    cell_seconds->Observe(wall_seconds);
    cells_total->Increment();
  });

  // Aggregate in (policy, rep) order regardless of completion order. Each
  // cell contributes a single-sample RunningStat merged via Merge() — the
  // same parallel-merge formula the bench fan-out uses — so the aggregate
  // is a pure function of the rep-ordered cell values for any thread count.
  std::vector<RepeatedReport> out;
  out.reserve(policies.size());
  for (size_t p = 0; p < policies.size(); ++p) {
    RepeatedReport agg;
    agg.dataset = options_.spec.name;
    agg.policy = PolicyName(policies[p]);
    for (int rep = 0; rep < repetitions; ++rep) {
      const size_t index =
          p * static_cast<size_t>(repetitions) + static_cast<size_t>(rep);
      const std::optional<Result<SimulationReport>>& cell = cells[index];
      // The pool catches a throwing cell, which leaves its slot empty.
      if (!cell.has_value()) {
        return Status::Internal(StrFormat("grid cell %zu (%s, rep %d) threw",
                                          index, PolicyName(policies[p]),
                                          rep));
      }
      IMCF_RETURN_IF_ERROR(cell->status());
      const SimulationReport& report = **cell;
      RunningStat fce, fe, ft, co2;
      fce.Add(report.fce_pct);
      fe.Add(report.fe_kwh);
      ft.Add(report.ft_seconds);
      co2.Add(report.co2_kg);
      agg.fce_pct.Merge(fce);
      agg.fe_kwh.Merge(fe);
      agg.ft_seconds.Merge(ft);
      agg.co2_kg.Merge(co2);
    }
    out.push_back(std::move(agg));
  }
  return out;
}

}  // namespace sim
}  // namespace imcf
