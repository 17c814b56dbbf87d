#include "firewall/imcf_firewall.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/tracer.h"

namespace imcf {
namespace firewall {
namespace {

using devices::ActuationCommand;
using devices::CommandType;
using devices::DeviceKind;
using devices::DeviceRegistry;

class ImcfFirewallTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ac_id_ = *registry_.Add("living_room_ac", DeviceKind::kHvac, 0,
                            "192.168.0.5");
    light_id_ = *registry_.Add("living_room_light", DeviceKind::kLight, 0,
                               "192.168.0.6");
  }

  ActuationCommand RuleCommand(devices::DeviceId device, int rule_id) {
    ActuationCommand cmd;
    cmd.device = device;
    cmd.type = CommandType::kSetTemperature;
    cmd.value = 24.0;
    cmd.rule_id = rule_id;
    cmd.source = "mrt";
    return cmd;
  }

  ActuationCommand ManualCommand(devices::DeviceId device) {
    ActuationCommand cmd;
    cmd.device = device;
    cmd.type = CommandType::kSetTemperature;
    cmd.value = 25.0;
    cmd.rule_id = -1;
    cmd.source = "manual";
    return cmd;
  }

  DeviceRegistry registry_;
  devices::DeviceId ac_id_ = 0;
  devices::DeviceId light_id_ = 0;
};

TEST_F(ImcfFirewallTest, AdoptedRulesPass) {
  MetaControlFirewall fw(&registry_);
  fw.SetDroppedRules(std::vector<int>{2, 5});
  const Decision d = fw.Filter(RuleCommand(ac_id_, 0));
  EXPECT_EQ(d.verdict, Verdict::kAccept);
  EXPECT_EQ(d.reason, DecisionReason::kPlanAdopted);
}

TEST_F(ImcfFirewallTest, DroppedRulesAreBlocked) {
  MetaControlFirewall fw(&registry_);
  fw.SetDroppedRules(std::vector<int>{2, 5});
  const Decision d = fw.Filter(RuleCommand(ac_id_, 5));
  EXPECT_EQ(d.verdict, Verdict::kDrop);
  EXPECT_EQ(d.reason, DecisionReason::kPlanDropped);
}

TEST_F(ImcfFirewallTest, PlanReplacementChangesVerdicts) {
  MetaControlFirewall fw(&registry_);
  fw.SetDroppedRules(std::vector<int>{0});
  EXPECT_EQ(fw.Filter(RuleCommand(ac_id_, 0)).verdict, Verdict::kDrop);
  fw.SetDroppedRules({});  // next slot: everything adopted
  EXPECT_EQ(fw.Filter(RuleCommand(ac_id_, 0)).verdict, Verdict::kAccept);
}

TEST_F(ImcfFirewallTest, ManualCommandsBypassPlanLayer) {
  MetaControlFirewall fw(&registry_);
  fw.SetDroppedRules(std::vector<int>{0, 1, 2, 3, 4, 5});
  const Decision d = fw.Filter(ManualCommand(ac_id_));
  EXPECT_EQ(d.verdict, Verdict::kAccept);
  EXPECT_EQ(d.reason, DecisionReason::kBypass);
}

TEST_F(ImcfFirewallTest, ChainDropBeatsPlanAccept) {
  MetaControlFirewall fw(&registry_);
  // iptables-style: block all traffic to the Daikin's address.
  ChainRule drop_daikin;
  drop_daikin.address = "192.168.0.5";
  drop_daikin.target = Verdict::kDrop;
  fw.chain()->Append(drop_daikin);
  fw.SetDroppedRules({});
  const Decision d = fw.Filter(RuleCommand(ac_id_, 0));
  EXPECT_EQ(d.verdict, Verdict::kDrop);
  EXPECT_EQ(d.reason, DecisionReason::kChainRule);
  // The light at the other address still passes.
  EXPECT_EQ(fw.Filter(RuleCommand(light_id_, 1)).verdict, Verdict::kAccept);
}

TEST_F(ImcfFirewallTest, ChainAcceptStillConsultsPlan) {
  MetaControlFirewall fw(&registry_);
  ChainRule accept_ac;
  accept_ac.address = "192.168.0.5";
  accept_ac.target = Verdict::kAccept;
  fw.chain()->Append(accept_ac);
  fw.SetDroppedRules(std::vector<int>{7});
  // The chain accepts, but the plan layer still drops rule 7's command.
  EXPECT_EQ(fw.Filter(RuleCommand(ac_id_, 7)).verdict, Verdict::kDrop);
}

TEST_F(ImcfFirewallTest, StatsAccumulate) {
  MetaControlFirewall fw(&registry_);
  fw.SetDroppedRules(std::vector<int>{1});
  (void)fw.Filter(RuleCommand(ac_id_, 0));   // accept
  (void)fw.Filter(RuleCommand(ac_id_, 1));   // plan drop
  (void)fw.Filter(ManualCommand(light_id_)); // bypass accept
  ChainRule drop_all;
  drop_all.target = Verdict::kDrop;
  fw.chain()->Append(drop_all);
  (void)fw.Filter(RuleCommand(ac_id_, 0));   // chain drop
  const FirewallStats& stats = fw.stats();
  EXPECT_EQ(stats.total, 4);
  EXPECT_EQ(stats.accepted, 2);
  EXPECT_EQ(stats.dropped_by_plan, 1);
  EXPECT_EQ(stats.dropped_by_chain, 1);
}

// The firewall's record of what it filtered is one fw.drop event per drop,
// under the span that issued the command: the deciding layer as detail and
// the rule as the "rule" arg. Accepted commands leave no event.
TEST_F(ImcfFirewallTest, EachDropLeavesOneEventNamingReasonAndRule) {
  constexpr uint64_t kTraceId = 0xF17E0A11;
  MetaControlFirewall fw(&registry_);
  fw.SetDroppedRules(std::vector<int>{1});
  ChainRule drop_light;
  drop_light.address = "192.168.0.6";
  drop_light.target = Verdict::kDrop;
  fw.chain()->Append(drop_light);
  std::vector<std::pair<std::string, int64_t>> expected;
  {
    obs::ScopedSpan root("test.filter", "test", obs::Tracer::Root(kTraceId));
    for (int i = 0; i < 100; ++i) {
      const bool light = i % 5 == 4;
      const ActuationCommand cmd =
          RuleCommand(light ? light_id_ : ac_id_, i % 3);
      const Decision d = fw.Filter(cmd);
      if (d.verdict == Verdict::kDrop) {
        expected.emplace_back(DecisionReasonName(d.reason), cmd.rule_id);
      } else {
        EXPECT_EQ(d.reason, DecisionReason::kPlanAdopted);
      }
    }
  }
  std::vector<std::pair<std::string, int64_t>> events;  // the root's children
  for (const obs::SpanRecord& r : obs::FlightRecorder::Default().Snapshot()) {
    if (r.trace_id != kTraceId || r.parent_span_id == 0) continue;
    EXPECT_STREQ(r.name, "fw.drop");
    EXPECT_STREQ(r.category, "firewall");
    EXPECT_STREQ(r.arg_name, "rule");
    events.emplace_back(r.detail, r.arg_value);
  }
  // 20 light commands hit the chain; 80 AC commands, of which 26 carry
  // rule 1, hit the plan.
  EXPECT_EQ(expected.size(), 20u + 26u);
  EXPECT_EQ(events, expected);
  EXPECT_EQ(fw.stats().total, 100);
  EXPECT_EQ(fw.stats().dropped_by_chain, 20);
  EXPECT_EQ(fw.stats().dropped_by_plan, 26);
}

TEST_F(ImcfFirewallTest, SetDroppedRulesReplacesThePreviousSlot) {
  MetaControlFirewall fw(&registry_);
  fw.SetDroppedRules(std::vector<int>{3, 4});
  EXPECT_EQ(fw.Filter(RuleCommand(ac_id_, 3)).verdict, Verdict::kDrop);
  EXPECT_EQ(fw.Filter(RuleCommand(ac_id_, 6)).verdict, Verdict::kAccept);
  fw.SetDroppedRules(std::vector<int>{4, 6});  // slot 2: rule 3 adopted
  EXPECT_EQ(fw.Filter(RuleCommand(ac_id_, 3)).verdict, Verdict::kAccept);
  EXPECT_EQ(fw.Filter(RuleCommand(ac_id_, 4)).verdict, Verdict::kDrop);
  EXPECT_EQ(fw.Filter(RuleCommand(ac_id_, 6)).verdict, Verdict::kDrop);
}

TEST_F(ImcfFirewallTest, DroppedIdRangeGrowsAndShrinksBetweenSlots) {
  MetaControlFirewall fw(&registry_);
  auto dropped = [&](int rule_id) {
    return fw.Filter(RuleCommand(ac_id_, rule_id)).verdict == Verdict::kDrop;
  };
  fw.SetDroppedRules(std::vector<int>{2});
  EXPECT_TRUE(dropped(2));
  EXPECT_FALSE(dropped(5000));
  fw.SetDroppedRules(std::vector<int>{5000, 0});  // grows past every id seen
  EXPECT_TRUE(dropped(5000));
  EXPECT_TRUE(dropped(0));
  EXPECT_FALSE(dropped(2));
  EXPECT_FALSE(dropped(4999));
  EXPECT_FALSE(dropped(5001));
  fw.SetDroppedRules(std::vector<int>{1});  // shrinks: 5000 no longer drops
  EXPECT_TRUE(dropped(1));
  EXPECT_FALSE(dropped(5000));
  EXPECT_FALSE(dropped(0));
  fw.SetDroppedRules({});
  EXPECT_FALSE(dropped(1));
}

TEST_F(ImcfFirewallTest, NegativeRuleIdBypassesThePlanFilter) {
  MetaControlFirewall fw(&registry_);
  // A negative id in the dropped set is ignored, and a command without a
  // meta-rule never consults the set.
  fw.SetDroppedRules(std::vector<int>{-1, -7, 0});
  for (const int rule_id : {-1, -7}) {
    const Decision d = fw.Filter(RuleCommand(ac_id_, rule_id));
    EXPECT_EQ(d.verdict, Verdict::kAccept) << rule_id;
    EXPECT_EQ(d.reason, DecisionReason::kBypass) << rule_id;
  }
  EXPECT_EQ(fw.Filter(RuleCommand(ac_id_, 0)).verdict, Verdict::kDrop);
  EXPECT_EQ(fw.stats().dropped_by_plan, 1);
}

TEST_F(ImcfFirewallTest, ReasonNames) {
  EXPECT_STREQ(DecisionReasonName(DecisionReason::kPlanDropped),
               "plan-dropped");
  EXPECT_STREQ(DecisionReasonName(DecisionReason::kChainRule), "chain-rule");
  EXPECT_STREQ(DecisionReasonName(DecisionReason::kBypass), "bypass");
}

// Invariant: a command whose rule is in the dropped set NEVER passes,
// whatever the chain configuration (unless the chain dropped it first).
TEST_F(ImcfFirewallTest, DroppedRuleNeverActuates) {
  for (int variant = 0; variant < 3; ++variant) {
    MetaControlFirewall fw(&registry_);
    if (variant == 1) {
      ChainRule accept_all;
      accept_all.target = Verdict::kAccept;
      fw.chain()->Append(accept_all);
    } else if (variant == 2) {
      fw.chain()->set_default_policy(Verdict::kDrop);
    }
    fw.SetDroppedRules(std::vector<int>{4});
    EXPECT_EQ(fw.Filter(RuleCommand(ac_id_, 4)).verdict, Verdict::kDrop)
        << "variant " << variant;
  }
}

}  // namespace
}  // namespace firewall
}  // namespace imcf
