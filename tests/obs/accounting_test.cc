// CostLedger / ScopedCost unit tests: merge semantics, the top-K view,
// the canonical determinism witness, and the ambient accumulation hooks.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/accounting/cost_ledger.h"
#include "obs/tracer.h"

namespace imcf {
namespace obs {
namespace {

TEST(TenantCostTest, PlusEqualsSumsEveryField) {
  TenantCost a;
  a.phase_ns[0] = 1;
  a.phase_ns[3] = 4;
  a.flip_evals = 20;
  a.plans_ok = 1;
  a.faults = 2;
  TenantCost b;
  b.phase_ns[0] = 100;
  b.flip_evals = 1;
  b.errors = 3;
  a += b;
  EXPECT_EQ(a.phase_ns[0], 101);
  EXPECT_EQ(a.phase_ns[3], 4);
  EXPECT_EQ(a.flip_evals, 21);
  EXPECT_EQ(a.plans_ok, 1);
  EXPECT_EQ(a.errors, 3);
  EXPECT_EQ(a.faults, 2);
  EXPECT_EQ(a.total_ns(), 105);
}

TEST(CostSortKeyTest, ParsesKnownKeysAndDefaultsToCpu) {
  EXPECT_EQ(ParseCostSortKey("cpu"), CostSortKey::kCpu);
  EXPECT_EQ(ParseCostSortKey("plans"), CostSortKey::kPlans);
  EXPECT_EQ(ParseCostSortKey("sheds"), CostSortKey::kSheds);
  // Unknown names are refused, not defaulted: the cpu default belongs to a
  // caller with no sort key at all (/tenantz without sort=).
  EXPECT_EQ(ParseCostSortKey("bytes"), std::nullopt);
  EXPECT_EQ(ParseCostSortKey("nonsense"), std::nullopt);
  EXPECT_EQ(ParseCostSortKey(""), std::nullopt);
}

TEST(CostLedgerTest, ApplyMergesAndSnapshotSortsByTenant) {
  CostLedger ledger(2);
  TenantCost delta;
  delta.plans_ok = 1;
  delta.flip_evals = 8;
  ledger.Apply(1, "zeta", delta);
  ledger.Apply(0, "alpha", delta);
  ledger.Apply(1, "zeta", delta);  // merges into the existing row

  std::vector<CostLedger::Row> rows = ledger.Snapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].tenant, "alpha");
  EXPECT_EQ(rows[0].cost.plans_ok, 1);
  EXPECT_EQ(rows[1].tenant, "zeta");
  EXPECT_EQ(rows[1].cost.plans_ok, 2);
  EXPECT_EQ(rows[1].cost.flip_evals, 16);
}

TEST(CostLedgerTest, SameTenantOnTwoShardsMergesInSnapshot) {
  // A tenant's shard should be stable in practice, but the merge is defined
  // regardless: snapshot sums per tenant id across shards.
  CostLedger ledger(2);
  TenantCost delta;
  delta.flip_evals = 5;
  ledger.Apply(0, "t", delta);
  ledger.Apply(1, "t", delta);
  std::vector<CostLedger::Row> rows = ledger.Snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].cost.flip_evals, 10);
}

TEST(CostLedgerTest, TopKOrdersDescendingWithTenantTiebreak) {
  CostLedger ledger(1);
  TenantCost big;
  big.plans_ok = 100;
  TenantCost small;
  small.plans_ok = 1;
  ledger.Apply(0, "b-big", big);
  ledger.Apply(0, "a-small", small);
  ledger.Apply(0, "c-small", small);  // ties a-small on every key

  std::vector<CostLedger::Row> top = ledger.TopK(2, CostSortKey::kPlans);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].tenant, "b-big");
  EXPECT_EQ(top[1].tenant, "a-small");  // tie broken by id, ascending

  // k == 0 means everything.
  EXPECT_EQ(ledger.TopK(0, CostSortKey::kPlans).size(), 3u);
}

TEST(CostLedgerTest, CanonicalTextMasksTimingAndIsStable) {
  CostLedger ledger(4);
  TenantCost delta;
  delta.phase_ns[1] = 123456;  // wall measurement: must NOT appear
  delta.plans_ok = 7;
  delta.sheds = 2;
  ledger.Apply(2, "home01", delta);
  const std::string text = ledger.CanonicalText();
  EXPECT_NE(text.find("home01"), std::string::npos);
  EXPECT_NE(text.find("plans_ok=7"), std::string::npos);
  EXPECT_NE(text.find("sheds=2"), std::string::npos);
  EXPECT_EQ(text.find("123456"), std::string::npos)
      << "canonical text leaked a wall measurement:\n"
      << text;

  // Identical deterministic contents on a different shard layout produce
  // identical text — the cross-worker witness the fleet test relies on.
  CostLedger other(1);
  ledger.Clear();
  ledger.Apply(3, "home01", delta);
  other.Apply(0, "home01", delta);
  EXPECT_EQ(ledger.CanonicalText(), other.CanonicalText());
}

TEST(CostLedgerTest, ToJsonCarriesPhaseBreakdown) {
  CostLedger ledger(1);
  TenantCost delta;
  delta.phase_ns[0] = 1;
  delta.phase_ns[1] = 2;
  delta.phase_ns[2] = 3;
  delta.phase_ns[3] = 4;
  delta.queries_ok = 9;
  ledger.Apply(0, "t", delta);
  const std::string json = ledger.ToJson(0, CostSortKey::kCpu);
  EXPECT_NE(json.find("\"queue_wait\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"plan\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sim\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"command_bus\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"total\":10"), std::string::npos) << json;
  EXPECT_NE(json.find("\"queries_ok\":9"), std::string::npos) << json;
}

TEST(CostLedgerTest, ClearDropsEveryRow) {
  CostLedger ledger(2);
  TenantCost delta;
  delta.plans_ok = 1;
  ledger.Apply(0, "a", delta);
  ledger.Apply(1, "b", delta);
  ledger.Clear();
  EXPECT_TRUE(ledger.Snapshot().empty());
}

TEST(ScopedCostTest, FlushesOnceAtDestruction) {
  CostLedger ledger(1);
  // ScopedCost borrows the tenant string (the registry's id outlives every
  // scope in production), so tests must pass an lvalue, not a literal.
  const std::string tenant = "tenant";
  {
    ScopedCost cost(&ledger, 0, tenant);
    ASSERT_TRUE(cost.active());
    cost.local()->plans_ok = 1;
    cost.local()->phase_ns[1] += 50;
    CostAddFlipEvals(3);
    CostAddFault();
    // Nothing reaches the ledger while the scope is open.
    EXPECT_TRUE(ledger.Snapshot().empty());
  }
  std::vector<CostLedger::Row> rows = ledger.Snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].cost.plans_ok, 1);
  EXPECT_EQ(rows[0].cost.phase_ns[1], 50);
  EXPECT_EQ(rows[0].cost.flip_evals, 3);
  EXPECT_EQ(rows[0].cost.faults, 1);
}

TEST(ScopedCostTest, EmptyScopeWritesNoRow) {
  CostLedger ledger(1);
  const std::string tenant = "tenant";
  { ScopedCost cost(&ledger, 0, tenant); }
  EXPECT_TRUE(ledger.Snapshot().empty());
}

TEST(ScopedCostTest, NullLedgerIsInert) {
  const std::string tenant = "tenant";
  ScopedCost cost(nullptr, 0, tenant);
  EXPECT_FALSE(cost.active());
  EXPECT_EQ(cost.local(), nullptr);
  EXPECT_EQ(AmbientCost(), nullptr);
  CostAddFlipEvals(5);  // must not crash
}

TEST(ScopedCostTest, NestedScopeShadowsAndRestoresAmbient) {
  CostLedger ledger(1);
  const std::string outer_tenant = "outer";
  const std::string inner_tenant = "inner";
  {
    ScopedCost outer(&ledger, 0, outer_tenant);
    EXPECT_EQ(AmbientCost(), outer.local());
    {
      ScopedCost inner(&ledger, 0, inner_tenant);
      EXPECT_EQ(AmbientCost(), inner.local());
      CostAddFlipEvals(7);  // charges inner
    }
    EXPECT_EQ(AmbientCost(), outer.local());
    CostAddFlipEvals(100);  // charges outer
  }
  std::vector<CostLedger::Row> rows = ledger.Snapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].tenant, "inner");
  EXPECT_EQ(rows[0].cost.flip_evals, 7);
  EXPECT_EQ(rows[1].tenant, "outer");
  EXPECT_EQ(rows[1].cost.flip_evals, 100);
}

TEST(ScopedCostTest, AmbientIsPerThread) {
  CostLedger ledger(1);
  const std::string tenant = "main-tenant";
  ScopedCost cost(&ledger, 0, tenant);
  std::thread other([] {
    // A fresh thread has no ambient sink; a phase span's self time is
    // dropped, not misfiled.
    EXPECT_EQ(AmbientCost(), nullptr);
    ScopedSpan span("test.sim", "test", {.phase = CostPhase::kSim});
  });
  other.join();
  EXPECT_EQ(cost.local()->phase_ns[2], 0);
}

TEST(CostLedgerTest, ConcurrentAppliesAreExact) {
  CostLedger ledger(4);
  constexpr int kThreads = 8;
  constexpr int kApplies = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ledger, t] {
      TenantCost delta;
      delta.flip_evals = 1;
      const std::string tenant = "tenant" + std::to_string(t % 4);
      for (int i = 0; i < kApplies; ++i) {
        ledger.Apply(t % 4, tenant, delta);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  int64_t total = 0;
  for (const CostLedger::Row& row : ledger.Snapshot()) {
    total += row.cost.flip_evals;
  }
  EXPECT_EQ(total, kThreads * kApplies);
}

}  // namespace
}  // namespace obs
}  // namespace imcf
