#include "firewall/imcf_firewall.h"

#include "obs/metrics.h"
#include "obs/tracer.h"

namespace imcf {
namespace firewall {

const char* DecisionReasonName(DecisionReason reason) {
  switch (reason) {
    case DecisionReason::kDefaultPolicy:
      return "default-policy";
    case DecisionReason::kChainRule:
      return "chain-rule";
    case DecisionReason::kPlanDropped:
      return "plan-dropped";
    case DecisionReason::kPlanAdopted:
      return "plan-adopted";
    case DecisionReason::kBypass:
      return "bypass";
    case DecisionReason::kDeviceUnavailable:
      return "device-unavailable";
  }
  return "?";
}

MetaControlFirewall::MetaControlFirewall(
    const devices::DeviceRegistry* registry, size_t audit_capacity)
    : registry_(registry),
      chain_("OUTPUT", Verdict::kAccept),
      audit_capacity_(audit_capacity) {}

MetaControlFirewall::~MetaControlFirewall() {
  // Firewalls are per-study objects; one flush at teardown exports the
  // whole lifetime. The reason label is a closed 5-value set, so the
  // cardinality stays bounded.
  using obs::Counter;
  auto& reg = obs::MetricRegistry::Default();
  static Counter* const commands = reg.GetCounter(
      "imcf_firewall_commands_total", "Actuation commands filtered");
  static Counter* const accepted = reg.GetCounter(
      "imcf_firewall_accepted_total", "Commands accepted");
  static Counter* const dropped_chain = reg.GetCounter(
      "imcf_firewall_dropped_by_chain_total",
      "Commands dropped by the static chain");
  static Counter* const dropped_plan = reg.GetCounter(
      "imcf_firewall_dropped_by_plan_total",
      "Commands dropped by the EP plan filter");
  static Counter* const unavailable = reg.GetCounter(
      "imcf_firewall_device_unavailable_total",
      "Accepted commands that failed fault-aware delivery");
  commands->Increment(stats_.total);
  accepted->Increment(stats_.accepted);
  dropped_chain->Increment(stats_.dropped_by_chain);
  dropped_plan->Increment(stats_.dropped_by_plan);
  unavailable->Increment(stats_.device_unavailable);
  for (size_t i = 0; i < kNumDecisionReasons; ++i) {
    // Labelled family: one instance per DecisionReason. Not cached in a
    // static (the pointer differs per label), but this runs once per
    // firewall lifetime, not per command.
    reg.GetCounter("imcf_firewall_decisions_total",
                   "Filter decisions by reason",
                   {{"reason",
                     DecisionReasonName(static_cast<DecisionReason>(i))}})
        ->Increment(stats_.by_reason[i]);
  }
}

void MetaControlFirewall::SetDroppedRules(std::vector<int> dropped_rule_ids) {
  dropped_rules_.clear();
  dropped_rules_.insert(dropped_rule_ids.begin(), dropped_rule_ids.end());
}

Decision MetaControlFirewall::Filter(const devices::ActuationCommand& cmd) {
  Decision decision;
  decision.command = cmd;

  // Layer 1: the static chain.
  const devices::Thing* thing = nullptr;
  if (registry_ != nullptr) {
    auto lookup = registry_->Get(cmd.device);
    if (lookup.ok()) thing = lookup.value();
  }
  bool matched_chain = false;
  for (const ChainRule& rule : chain_.rules()) {
    if (rule.Matches(cmd, thing)) {
      decision.verdict = rule.target;
      decision.reason = DecisionReason::kChainRule;
      matched_chain = true;
      break;
    }
  }
  if (matched_chain && decision.verdict == Verdict::kDrop) {
    Record(decision);
    return decision;
  }

  // Layer 2: the plan filter (meta-rule commands only).
  if (cmd.rule_id >= 0) {
    if (dropped_rules_.count(cmd.rule_id) > 0) {
      decision.verdict = Verdict::kDrop;
      decision.reason = DecisionReason::kPlanDropped;
    } else {
      decision.verdict = Verdict::kAccept;
      decision.reason = DecisionReason::kPlanAdopted;
    }
  } else if (!matched_chain) {
    decision.verdict = chain_.default_policy();
    decision.reason = DecisionReason::kBypass;
  }

  // Layer 3 (optional): fault-aware delivery. An accepted command only
  // counts as accepted if the bus actually delivered it.
  if (bus_ != nullptr && decision.verdict == Verdict::kAccept) {
    const fault::Delivery delivery = bus_->Deliver(cmd);
    if (!delivery.delivered) {
      decision.verdict = Verdict::kDrop;
      decision.reason = DecisionReason::kDeviceUnavailable;
    }
  }

  Record(decision);
  return decision;
}

void MetaControlFirewall::Record(Decision decision) {
  // Drops only: accepted commands are the common case and stay span-free;
  // each drop leaves one event naming the deciding layer (the reason) and
  // the rule, nested under the slot/request span that issued the command.
  if (decision.verdict == Verdict::kDrop) {
    obs::TraceEvent("fw.drop", "firewall",
                    DecisionReasonName(decision.reason), "rule",
                    decision.command.rule_id);
  }
  ++stats_.total;
  ++stats_.by_reason[static_cast<size_t>(decision.reason)];
  if (decision.verdict == Verdict::kAccept) {
    ++stats_.accepted;
  } else if (decision.reason == DecisionReason::kPlanDropped) {
    ++stats_.dropped_by_plan;
  } else if (decision.reason == DecisionReason::kDeviceUnavailable) {
    ++stats_.device_unavailable;
  } else {
    ++stats_.dropped_by_chain;
  }
  audit_.push_back(std::move(decision));
  while (audit_.size() > audit_capacity_) audit_.pop_front();
}

}  // namespace firewall
}  // namespace imcf
