// SloEngine's cached, incremental evaluation against a reference engine that
// re-sums every tenant's windows on every call — the straightforward
// algorithm the cache must reproduce exactly. Both are driven side by side
// with seeded random streams: clock jumps forward and backward across many
// buckets, negative sim times, ring laps, stale events, per-tenant
// SetObjectives with and without a geometry change, Evaluate/ToJson reads at
// other sim times between NewlyFiring calls, and Clear. Evaluate rows,
// ToJson bytes, the NewlyFiring sequence and its exemplars must all match.

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/json_writer.h"
#include "obs/slo/slo_engine.h"

namespace imcf {
namespace obs {
namespace {

/// The engine as a plain sum over buckets: no cache, every call walks every
/// tenant. A slot holding a newer bucket index drops an older event.
class ReferenceSlo {
 public:
  explicit ReferenceSlo(SloOptions defaults) : defaults_(defaults) {}

  void SetObjectives(const std::string& id, const SloOptions& options) {
    Tenant& state = TenantState(id);
    SloOptions sanitized = options;
    if (sanitized.bucket_seconds < 1) sanitized.bucket_seconds = 1;
    bool regeometry =
        sanitized.bucket_seconds != state.options.bucket_seconds ||
        sanitized.long_window_seconds != state.options.long_window_seconds;
    state.options = sanitized;
    if (regeometry) state.ring.assign(Slots(sanitized), Bucket{});
  }

  void Observe(const std::string& id, const SloEvent& event) {
    Tenant& state = TenantState(id);
    int64_t index = event.sim_time / state.options.bucket_seconds;
    if (index < 0) index = 0;
    Bucket& bucket = state.ring[static_cast<size_t>(index) % state.ring.size()];
    if (bucket.index > index) return;
    if (bucket.index != index) bucket = Bucket{index, {}, {}, {}};
    auto tally = [&](SloObjective objective, bool bad) {
      size_t i = static_cast<size_t>(objective);
      (bad ? bucket.bad[i] : bucket.good[i]) += 1;
      if (bad && event.trace_id != 0) bucket.exemplar[i] = event.trace_id;
    };
    tally(SloObjective::kShedRate, event.shed);
    if (event.shed) return;
    if (event.is_plan) {
      tally(SloObjective::kPlanLatency,
            event.plan_wall_ns > state.options.plan_latency_ms * 1'000'000);
    }
    if (event.had_deadline) {
      tally(SloObjective::kDeadlineHit, event.deadline_miss);
    }
  }

  std::vector<BurnStatus> Evaluate(int64_t sim_now) const {
    std::vector<BurnStatus> out;
    for (const auto& [id, tenant] : tenants_) {
      for (size_t obj = 0; obj < kNumSloObjectives; ++obj) {
        const SloOptions& o = tenant.options;
        const double budgets[] = {1.0 - o.latency_target_quantile,
                                  o.max_shed_rate,
                                  1.0 - o.min_deadline_hit_rate};
        const double budget = std::max(budgets[obj], 1e-9);
        const Totals s = Sum(tenant, obj, sim_now, o.short_window_seconds);
        const Totals l = Sum(tenant, obj, sim_now, o.long_window_seconds);
        BurnStatus status;
        status.tenant = id;
        status.objective = static_cast<SloObjective>(obj);
        status.short_burn = Burn(s, budget);
        status.long_burn = Burn(l, budget);
        status.firing = status.short_burn >= o.burn_threshold &&
                        status.long_burn >= o.burn_threshold;
        status.exemplar_trace_id = l.exemplar;
        out.push_back(status);
      }
    }
    return out;
  }

  std::vector<BurnStatus> NewlyFiring(int64_t sim_now) {
    std::set<std::pair<std::string, int>> now_firing;
    std::vector<BurnStatus> fresh;
    for (BurnStatus& status : Evaluate(sim_now)) {
      if (!status.firing) continue;
      auto key = std::make_pair(status.tenant,
                                static_cast<int>(status.objective));
      now_firing.insert(key);
      if (!firing_.count(key)) fresh.push_back(status);
    }
    firing_ = std::move(now_firing);
    return fresh;
  }

  std::string ToJson(int64_t sim_now) const {
    char hex[32];
    JsonWriter w;
    w.BeginObject();
    w.Key("sim_now").Int(sim_now);
    w.Key("objectives").BeginArray();
    for (const BurnStatus& status : Evaluate(sim_now)) {
      w.BeginObject();
      w.Key("tenant").String(status.tenant);
      w.Key("objective").String(SloObjectiveName(status.objective));
      w.Key("short_burn").Double(status.short_burn);
      w.Key("long_burn").Double(status.long_burn);
      w.Key("firing").Bool(status.firing);
      if (status.exemplar_trace_id != 0) {
        std::snprintf(hex, sizeof(hex), "0x%016llx",
                      static_cast<unsigned long long>(status.exemplar_trace_id));
        w.Key("exemplar_trace_id").String(hex);
      }
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    return w.str();
  }

  void Clear() {
    tenants_.clear();
    firing_.clear();
  }

 private:
  struct Bucket {
    int64_t index = -1;
    int64_t good[kNumSloObjectives] = {};
    int64_t bad[kNumSloObjectives] = {};
    uint64_t exemplar[kNumSloObjectives] = {};
  };
  struct Tenant {
    SloOptions options;
    std::vector<Bucket> ring;
  };
  struct Totals {
    int64_t good = 0;
    int64_t bad = 0;
    uint64_t exemplar = 0;
  };

  static size_t Slots(const SloOptions& o) {
    return std::max<size_t>(
        static_cast<size_t>(o.long_window_seconds / o.bucket_seconds) + 1, 2);
  }

  Tenant& TenantState(const std::string& id) {
    auto [it, inserted] = tenants_.try_emplace(id);
    if (inserted) {
      it->second.options = defaults_;
      it->second.ring.resize(Slots(defaults_));
    }
    return it->second;
  }

  static Totals Sum(const Tenant& tenant, size_t obj, int64_t sim_now,
                    int64_t window_seconds) {
    const int64_t now_index = sim_now / tenant.options.bucket_seconds;
    const int64_t buckets =
        std::max<int64_t>(window_seconds / tenant.options.bucket_seconds, 1);
    Totals totals;
    for (int64_t index = now_index - buckets + 1; index <= now_index;
         ++index) {  // ascending, so the newest exemplar wins
      if (index < 0) continue;
      const Bucket& bucket =
          tenant.ring[static_cast<size_t>(index) % tenant.ring.size()];
      if (bucket.index != index) continue;
      totals.good += bucket.good[obj];
      totals.bad += bucket.bad[obj];
      if (bucket.exemplar[obj] != 0) totals.exemplar = bucket.exemplar[obj];
    }
    return totals;
  }

  static double Burn(const Totals& totals, double budget) {
    const int64_t total = totals.good + totals.bad;
    if (total == 0) return 0.0;
    return static_cast<double>(totals.bad) / static_cast<double>(total) /
           budget;
  }

  SloOptions defaults_;
  std::map<std::string, Tenant> tenants_;
  std::set<std::pair<std::string, int>> firing_;
};

SloOptions DefaultOptions() {
  SloOptions options;
  options.bucket_seconds = 10;
  options.short_window_seconds = 40;
  options.long_window_seconds = 200;
  options.burn_threshold = 2.0;
  options.plan_latency_ms = 5;
  return options;
}

/// Objectives for SetObjectives: same geometry as `base` half the time
/// (only the thresholds and budgets move), a new geometry otherwise.
SloOptions RandomOptions(Rng& rng, const SloOptions& base) {
  SloOptions options = base;
  options.burn_threshold = 0.5 * static_cast<double>(rng.UniformInt(1, 6));
  options.max_shed_rate = 0.05 * static_cast<double>(rng.UniformInt(1, 6));
  options.latency_target_quantile =
      1.0 - 0.1 * static_cast<double>(rng.UniformInt(1, 5));
  options.min_deadline_hit_rate =
      1.0 - 0.1 * static_cast<double>(rng.UniformInt(1, 5));
  options.plan_latency_ms = rng.UniformInt(1, 10);
  if (rng.UniformInt(0, 1) == 0) {
    options.bucket_seconds = rng.UniformInt(0, 15);  // 0 sanitizes to 1
    options.short_window_seconds = rng.UniformInt(1, 60);
    options.long_window_seconds = rng.UniformInt(1, 240);
  }
  return options;
}

SloEvent RandomEvent(Rng& rng, int64_t sim_time, uint64_t trace_id) {
  SloEvent event;
  event.sim_time = sim_time;
  event.trace_id = rng.UniformInt(0, 3) == 0 ? 0 : trace_id;
  switch (rng.UniformInt(0, 3)) {
    case 0:
      event.shed = true;
      break;
    case 1:
      event.is_plan = true;
      event.plan_wall_ns = rng.UniformInt(0, 10) * 1'000'000;
      break;
    case 2:
      event.had_deadline = true;
      event.deadline_miss = rng.UniformInt(0, 2) == 0;
      break;
    default:
      break;  // a plain served request: good for the shed objective only
  }
  return event;
}

void ExpectSameRows(const std::vector<BurnStatus>& want,
                    const std::vector<BurnStatus>& got, const char* what,
                    int step) {
  ASSERT_EQ(got.size(), want.size()) << what << " at step " << step;
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(testing::Message() << what << " at step " << step
                                    << ", row " << i);
    EXPECT_EQ(got[i].tenant, want[i].tenant);
    EXPECT_EQ(got[i].objective, want[i].objective);
    EXPECT_EQ(got[i].short_burn, want[i].short_burn);
    EXPECT_EQ(got[i].long_burn, want[i].long_burn);
    EXPECT_EQ(got[i].firing, want[i].firing);
    EXPECT_EQ(got[i].exemplar_trace_id, want[i].exemplar_trace_id);
  }
}

/// Runs one seeded stream through both engines, comparing every read.
void RunStream(uint64_t seed, int steps) {
  SCOPED_TRACE(testing::Message() << "seed " << seed);
  Rng rng(seed);
  const SloOptions defaults = DefaultOptions();
  SloEngine engine(defaults);
  ReferenceSlo reference(defaults);
  const std::vector<std::string> tenants = {"a", "b", "c", "d", "e", "f"};
  int64_t now = rng.UniformInt(-300, 300);
  uint64_t trace_id = 1;
  size_t edges = 0;

  for (int step = 0; step < steps; ++step) {
    const std::string& tenant =
        tenants[static_cast<size_t>(rng.UniformInt(0, 5))];
    const int64_t op = rng.UniformInt(0, 99);
    if (op < 50) {
      // Mostly at the drain clock; sometimes late (an old issue_time, maybe
      // a ring lap behind) or slightly ahead.
      int64_t at = now;
      const int64_t skew = rng.UniformInt(0, 9);
      if (skew == 0) at = now - rng.UniformInt(0, 700);
      if (skew == 1) at = now + rng.UniformInt(0, 30);
      const SloEvent event = RandomEvent(rng, at, trace_id++);
      engine.Observe(tenant, event);
      reference.Observe(tenant, event);
    } else if (op < 70) {
      const std::vector<BurnStatus> want = reference.NewlyFiring(now);
      ExpectSameRows(want, engine.NewlyFiring(now), "NewlyFiring", step);
      edges += want.size();
    } else if (op < 85) {
      // Move the drain clock: within a bucket, across a few, across ring
      // laps, backwards (possibly below zero), or next to a bucket edge.
      switch (rng.UniformInt(0, 6)) {
        case 0:
        case 1:
          now += rng.UniformInt(0, 12);
          break;
        case 2:
          now += rng.UniformInt(10, 80);
          break;
        case 3:
          now += rng.UniformInt(200, 2000);
          break;
        case 4:
          now -= rng.UniformInt(1, 150);
          break;
        case 5:
          now = now / 10 * 10 + rng.UniformInt(-1, 1);
          break;
        default:
          now = rng.UniformInt(-500, 60);
          break;
      }
    } else if (op < 93) {
      // A /sloz read, at the drain clock or at some other time.
      const int64_t at =
          rng.UniformInt(0, 2) == 0 ? now + rng.UniformInt(-400, 400) : now;
      if (rng.UniformInt(0, 1) == 0) {
        ExpectSameRows(reference.Evaluate(at), engine.Evaluate(at), "Evaluate",
                       step);
      } else {
        ASSERT_EQ(engine.ToJson(at), reference.ToJson(at)) << "step " << step;
      }
    } else if (op < 99) {
      const SloOptions options = RandomOptions(rng, defaults);
      engine.SetObjectives(tenant, options);
      reference.SetObjectives(tenant, options);
    } else {
      engine.Clear();
      reference.Clear();
    }
    if (testing::Test::HasFatalFailure()) return;
  }
  ExpectSameRows(reference.Evaluate(now), engine.Evaluate(now), "final",
                 steps);
  // The stream must actually exercise the edge filter.
  EXPECT_GT(edges, 0u);
}

TEST(SloEngineOracleTest, RandomStreamsMatchReference) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    RunStream(seed, 3000);
    if (testing::Test::HasFailure()) return;
  }
}

TEST(SloEngineOracleTest, DrainEveryStepAtEveryClockMove) {
  // The drain pattern: every request is followed by a NewlyFiring at a clock
  // that creeps forward one sim second, with sheds at a stale issue_time.
  SloOptions options = DefaultOptions();
  options.max_shed_rate = 0.2;
  SloEngine engine(options);
  ReferenceSlo reference(options);
  Rng rng(99);
  const std::vector<std::string> tenants = {"t0", "t1", "t2", "t3"};
  size_t edges = 0;
  for (int64_t now = 0; now < 3000; ++now) {
    const std::string& tenant =
        tenants[static_cast<size_t>(rng.UniformInt(0, 3))];
    SloEvent event;
    event.sim_time = now - (rng.UniformInt(0, 20) == 0 ? 250 : 0);
    event.shed = (now / 300) % 2 == 0 && rng.UniformInt(0, 1) == 0;
    event.trace_id = static_cast<uint64_t>(now) + 1;
    engine.Observe(tenant, event);
    reference.Observe(tenant, event);
    const std::vector<BurnStatus> want = reference.NewlyFiring(now);
    ExpectSameRows(want, engine.NewlyFiring(now), "NewlyFiring",
                   static_cast<int>(now));
    if (testing::Test::HasFailure()) return;
    edges += want.size();
  }
  EXPECT_GT(edges, 1u);
}

}  // namespace
}  // namespace obs
}  // namespace imcf
