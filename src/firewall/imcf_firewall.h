// The Meta-Control Firewall: where the Energy Planner's decisions become
// enforced command filtering.
//
// Every actuation command (from meta-rules, IFTTT recipes or manual app
// interactions) passes through here before reaching a device. Verdicts come
// from two layers, evaluated in order:
//
//   1. the static admin chain (address/device/type rules — the in-process
//      analogue of the prototype's iptables configuration), then
//   2. the dynamic *plan filter*: the adoption vector the EP produced for
//      the current slot. Commands issued by a meta-rule the planner dropped
//      (s_i = 0) are DROPped; necessity rules and manual commands bypass
//      this layer.
//
// When a fault::CommandBus is attached, accepted commands additionally go
// through fault-aware delivery: a command whose device stays unreachable
// after bounded retries is reported as kDeviceUnavailable (verdict kDrop),
// so callers never account energy for an actuation that did not happen.
//
// Every drop leaves one fw.drop trace event naming the deciding layer and
// the rule, under the slot or request span that issued the command: that
// is the record of which RAW pipelines the firewall filtered — the paper's
// headline metaphor.

#ifndef IMCF_FIREWALL_IMCF_FIREWALL_H_
#define IMCF_FIREWALL_IMCF_FIREWALL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "fault/command_bus.h"
#include "firewall/chain.h"

namespace imcf {
namespace firewall {

/// Why a command was accepted or dropped.
enum class DecisionReason : uint8_t {
  kDefaultPolicy = 0,      ///< no rule matched; chain default applied
  kChainRule = 1,          ///< a static chain rule matched
  kPlanDropped = 2,        ///< the EP dropped the originating meta-rule
  kPlanAdopted = 3,        ///< the EP adopted the originating meta-rule
  kBypass = 4,             ///< manual/necessity command, plan layer bypassed
  kDeviceUnavailable = 5,  ///< accepted but undeliverable after retries
};

const char* DecisionReasonName(DecisionReason reason);

/// The verdict on one command and the layer that decided it.
struct Decision {
  Verdict verdict = Verdict::kAccept;
  DecisionReason reason = DecisionReason::kDefaultPolicy;
};

/// Number of DecisionReason values (for per-reason tallies).
inline constexpr size_t kNumDecisionReasons = 6;

/// Aggregate counters.
struct FirewallStats {
  int64_t total = 0;
  int64_t accepted = 0;
  int64_t dropped_by_chain = 0;
  int64_t dropped_by_plan = 0;
  int64_t device_unavailable = 0;
  /// Decisions per DecisionReason, indexed by the enum's value.
  int64_t by_reason[kNumDecisionReasons] = {};

  /// Commands dropped for any reason (device_unavailable included).
  int64_t dropped() const { return total - accepted; }
};

/// The firewall itself.
class MetaControlFirewall {
 public:
  /// `registry` resolves device addresses for chain matching; may outlive
  /// calls but is not owned.
  explicit MetaControlFirewall(const devices::DeviceRegistry* registry);

  /// Flushes accumulated FirewallStats to the default metric registry
  /// (imcf_firewall_* counters, decisions labelled by reason).
  ~MetaControlFirewall();

  /// The static admin chain (mutable: append iptables-style rules).
  Chain* chain() { return &chain_; }
  const Chain& chain() const { return chain_; }

  /// Installs the planner's verdicts for the current slot: meta-rule ids
  /// whose commands must be dropped. Replaces the previous slot's set;
  /// negative ids are ignored (manual commands never consult the set).
  void SetDroppedRules(std::span<const int> dropped_rule_ids);

  /// Attaches fault-aware delivery: accepted commands are handed to `bus`
  /// (borrowed; may be null to detach) and undeliverable ones come back as
  /// kDeviceUnavailable. Without a bus, acceptance implies actuation.
  void set_command_bus(fault::CommandBus* bus) { bus_ = bus; }

  /// Filters one command (and, with a command bus attached, delivers it),
  /// counting the decision and tracing it if it is a drop.
  Decision Filter(const devices::ActuationCommand& cmd);

  const FirewallStats& stats() const { return stats_; }

 private:
  void Record(const devices::ActuationCommand& cmd, Decision decision);

  const devices::DeviceRegistry* registry_;  // not owned
  fault::CommandBus* bus_ = nullptr;         // not owned, may be null
  Chain chain_;
  /// The plan filter: 1 at each dropped meta-rule id of the current slot,
  /// sized to the slot's largest one. Refilled in place, so it stops
  /// allocating once it has grown to the largest id seen.
  std::vector<uint8_t> dropped_rules_;
  FirewallStats stats_;
};

}  // namespace firewall
}  // namespace imcf

#endif  // IMCF_FIREWALL_IMCF_FIREWALL_H_
