// Fleet serving scalability: open-loop traffic over the FleetService.
//
// Drives synthetic plan traffic across a {tenant count} x {worker threads}
// grid and reports throughput (plans/sec) and end-to-end wall latency (p50 /
// p99) of a warm drain, the same for the cold first drain of a fresh
// service (and, as its own row, for the process's very first drain), and
// the shed rate of a deliberately undersized admission queue.
// Plan outcomes are bit-identical across worker counts (the serve
// determinism contract); only the timing columns are measurements.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/strings.h"
#include "obs/tracer.h"
#include "serve/fleet_service.h"
#include "serve/tenant_table.h"

namespace imcf {
namespace {

constexpr uint64_t kSeed = 2026;

serve::TenantConfig TenantAt(int index, int hours) {
  serve::TenantConfig config;
  config.id = StrFormat("home%03d", index);
  config.seed = MixHash(kSeed, static_cast<uint64_t>(index));
  config.hours = hours;
  // Conflicting interests, as in DefaultNeighborhood: device sizes vary.
  Rng rng(MixHash(kSeed, static_cast<uint64_t>(index) + 1000));
  config.appetite = rng.UniformDouble(0.7, 1.3);
  return config;
}

double PercentileMs(std::vector<int64_t> wall_ns, double pct) {
  if (wall_ns.empty()) return 0.0;
  std::sort(wall_ns.begin(), wall_ns.end());
  const size_t rank = std::min(
      wall_ns.size() - 1,
      static_cast<size_t>(pct / 100.0 * static_cast<double>(wall_ns.size())));
  return static_cast<double>(wall_ns[rank]) / 1e6;
}

/// Timing of one drain of every tenant's plans.
struct DrainTiming {
  double plans_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

struct CellResult {
  DrainTiming cold;  ///< first drain: fresh workers, first touch included
  DrainTiming warm;  ///< second drain of the same plans
  double fe_sum_kwh = 0.0;  ///< determinism witness across worker counts
  /// The warm drain's cost-ledger totals across all tenants. cpu_ns is a
  /// measurement; the rest are deterministic int64 sums (the compare_bench
  /// exact columns), identical across worker counts.
  double cpu_ns_total = 0.0;
  int64_t flip_evals = 0;
  int64_t plans_ok = 0;
};

/// Submits `plans_per_tenant` plans for every tenant and times one drain
/// of them, from the first submit to the last response.
DrainTiming TimedDrain(serve::FleetService& service, int tenants,
                       int plans_per_tenant, double* fe_sum_kwh) {
  const SimTime start = trace::EvaluationStart();
  const int64_t t0 = obs::NowNs();
  for (int rep = 0; rep < plans_per_tenant; ++rep) {
    for (int i = 0; i < tenants; ++i) {
      serve::Request request;
      request.tenant = StrFormat("home%03d", i);
      request.kind = serve::RequestKind::kPlan;
      request.issue_time = start;
      request.plan.policy = sim::Policy::kEnergyPlanner;
      request.plan.rep = rep;
      auto immediate = service.Submit(std::move(request));
      if (immediate.has_value()) {
        std::fprintf(stderr, "unexpected immediate outcome: %s\n",
                     serve::ServeOutcomeName(immediate->outcome));
        std::exit(1);
      }
    }
  }
  const std::vector<serve::Response> responses =
      service.Drain(start + kSecondsPerHour);
  const int64_t elapsed_ns = obs::NowNs() - t0;

  DrainTiming timing;
  std::vector<int64_t> wall_ns;
  wall_ns.reserve(responses.size());
  *fe_sum_kwh = 0.0;
  for (const serve::Response& response : responses) {
    bench::CheckOk(response.status);
    wall_ns.push_back(response.wall_ns);
    *fe_sum_kwh += response.plan.fe_kwh;
  }
  timing.plans_per_sec = static_cast<double>(responses.size()) /
                         (static_cast<double>(elapsed_ns) / 1e9);
  timing.p50_ms = PercentileMs(wall_ns, 50.0);
  timing.p99_ms = PercentileMs(wall_ns, 99.0);
  return timing;
}

/// A fresh service with `tenants` tenants and room for every plan.
std::unique_ptr<serve::FleetService> FreshService(int tenants, int workers,
                                                  int hours,
                                                  int plans_per_tenant) {
  serve::FleetOptions options;
  options.shards = 8;
  options.workers = workers;
  options.queue_capacity = tenants * plans_per_tenant;  // no shedding here
  auto service_or = serve::FleetService::Create(options);
  bench::CheckOk(service_or.status());
  std::unique_ptr<serve::FleetService> service = std::move(*service_or);
  for (int i = 0; i < tenants; ++i) {
    bench::CheckOk(service->AddTenant(TenantAt(i, hours)));
  }
  return service;
}

/// Times a cold drain on a fresh service, then a warm drain of the same
/// plans. The cold one includes the fresh service's first touch of its
/// heap (its pool's helpers reuse the flight-recorder rings that earlier
/// cells' exited helpers retired); the warm one is the steady-state
/// number. What only the process's first drain pays is timed separately
/// (main's `process_first` row), so no cell carries it.
CellResult RunCell(int tenants, int workers, int hours, int plans_per_tenant) {
  std::unique_ptr<serve::FleetService> service_ptr =
      FreshService(tenants, workers, hours, plans_per_tenant);
  serve::FleetService& service = *service_ptr;

  CellResult result;
  double cold_fe_sum_kwh = 0.0;
  result.cold = TimedDrain(service, tenants, plans_per_tenant,
                           &cold_fe_sum_kwh);
  // From here the ledger holds the warm drain's costs alone.
  service.cost_ledger().Clear();
  result.warm = TimedDrain(service, tenants, plans_per_tenant,
                           &result.fe_sum_kwh);
  if (cold_fe_sum_kwh != result.fe_sum_kwh) {
    std::fprintf(stderr, "warm drain planned differently from cold\n");
    std::exit(1);
  }
  for (const obs::CostLedger::Row& ledger_row :
       service.cost_ledger().Snapshot()) {
    result.cpu_ns_total += static_cast<double>(ledger_row.cost.total_ns());
    result.flip_evals += ledger_row.cost.flip_evals;
    result.plans_ok += ledger_row.cost.plans_ok;
  }
  return result;
}

/// Shed-rate probe: a queue sized below the offered load must reject the
/// overflow with retry-after, not buffer or crash.
double ShedRate(int tenants, int offered_per_tenant, int capacity) {
  serve::FleetOptions options;
  options.shards = 1;  // one queue so capacity is exact
  options.workers = 1;
  options.queue_capacity = capacity;
  auto service_or = serve::FleetService::Create(options);
  bench::CheckOk(service_or.status());
  serve::FleetService& service = **service_or;
  for (int i = 0; i < tenants; ++i) {
    bench::CheckOk(service.AddTenant(TenantAt(i, 24)));
  }
  int shed = 0;
  const int offered = tenants * offered_per_tenant;
  for (int i = 0; i < offered; ++i) {
    serve::Request request;
    request.tenant = StrFormat("home%03d", i % tenants);
    request.kind = serve::RequestKind::kQuery;
    request.issue_time = trace::EvaluationStart();
    auto immediate = service.Submit(std::move(request));
    if (immediate.has_value() &&
        immediate->outcome == serve::ServeOutcome::kShed) {
      ++shed;
    }
  }
  (void)service.Drain(trace::EvaluationStart());
  return static_cast<double>(shed) / static_cast<double>(offered);
}

/// Tenant-directory microbench: robin-hood TenantTable vs the std::map it
/// replaced, on the registry's hot operation (lookup by id, hit and miss
/// mixed). Values are null tenant shells — this times the directory, not
/// the tenants.
struct LookupResult {
  double table_ns = 0.0;
  double map_ns = 0.0;
};

LookupResult TenantLookup(int entries, int lookups) {
  serve::TenantTable table;
  std::map<serve::TenantId, std::shared_ptr<serve::Tenant>> reference;
  for (int i = 0; i < entries; ++i) {
    const serve::TenantId id = StrFormat("home%06d", i);
    table.Insert(id, nullptr);
    reference.emplace(id, nullptr);
  }
  // Half the probes hit, half miss (ids past the populated range): the
  // miss path is where robin-hood's early exit earns its keep.
  std::vector<serve::TenantId> probes;
  probes.reserve(static_cast<size_t>(lookups));
  Rng rng(MixHash(kSeed, static_cast<uint64_t>(entries)));
  for (int i = 0; i < lookups; ++i) {
    probes.push_back(StrFormat(
        "home%06d", static_cast<int>(rng.UniformInt(0, 2 * entries - 1))));
  }

  LookupResult result;
  int64_t table_hits = 0;
  const int64_t t0 = obs::NowNs();
  for (const serve::TenantId& id : probes) {
    if (table.Contains(id)) ++table_hits;
  }
  const int64_t t1 = obs::NowNs();
  int64_t map_hits = 0;
  for (const serve::TenantId& id : probes) {
    if (reference.find(id) != reference.end()) ++map_hits;
  }
  const int64_t t2 = obs::NowNs();
  if (table_hits != map_hits) {
    std::fprintf(stderr, "lookup mismatch: table=%lld map=%lld\n",
                 static_cast<long long>(table_hits),
                 static_cast<long long>(map_hits));
    std::exit(1);
  }
  result.table_ns = static_cast<double>(t1 - t0) / lookups;
  result.map_ns = static_cast<double>(t2 - t1) / lookups;
  return result;
}

}  // namespace
}  // namespace imcf

int main() {
  using namespace imcf;
  bench::PrintHeader("Fleet serving scalability",
                     "serving layer (ISSUE 5); not a paper figure");
  bench::Report report("fleet_scaling");

  const bool quick = bench::QuickMode();
  const std::vector<int> tenant_counts = quick ? std::vector<int>{8}
                                               : std::vector<int>{16, 64};
  const std::vector<int> worker_counts = {1, 2, 4, 8};
  const int hours = quick ? 24 : 24 * 7;
  const int plans_per_tenant = 2;

  // The process's first drain, on a fresh one-worker service of the first
  // cell's shape, before any cell runs: whatever the process pays once
  // lands here instead of in the first cell's cold row.
  {
    const int tenants = tenant_counts.front();
    std::unique_ptr<serve::FleetService> service =
        FreshService(tenants, /*workers=*/1, hours, plans_per_tenant);
    double fe_sum_kwh = 0.0;
    const DrainTiming first =
        TimedDrain(*service, tenants, plans_per_tenant, &fe_sum_kwh);
    const std::string row =
        StrFormat("tenants=%d,workers=1,process_first", tenants);
    std::printf("%-36s cold %s plans/sec (p50 %s ms, p99 %s ms)\n\n",
                row.c_str(),
                report.Scalar("cold", row, "plans_per_sec",
                              first.plans_per_sec, 1)
                    .c_str(),
                report.Scalar("cold", row, "p50_ms", first.p50_ms, 2).c_str(),
                report.Scalar("cold", row, "p99_ms", first.p99_ms, 2).c_str());
  }

  std::printf("%-22s %12s %10s %10s %14s %10s %10s %12s\n", "cell",
              "plans/sec", "p50 ms", "p99 ms", "sum F_E kWh", "cpu ms",
              "flips", "cold pl/s");
  for (int tenants : tenant_counts) {
    for (int workers : worker_counts) {
      const CellResult cell =
          RunCell(tenants, workers, hours, plans_per_tenant);
      const std::string row =
          StrFormat("tenants=%d,workers=%d", tenants, workers);
      // The per-tenant cost ledger's deterministic columns (flip_evals,
      // plans_ok) land in the JSON as exact-match cells: any
      // cross-worker or cross-run difference is a determinism regression,
      // not drift (compare_bench.py treats them as exact). The unlabelled
      // sections are the warm drain; the `cold` section is the first one.
      std::printf(
          "%-22s %12s %10s %10s %14s %10s %10s %12s\n", row.c_str(),
          report.Scalar("throughput", row, "plans_per_sec",
                        cell.warm.plans_per_sec, 1)
              .c_str(),
          report.Scalar("latency", row, "p50_ms", cell.warm.p50_ms, 2)
              .c_str(),
          report.Scalar("latency", row, "p99_ms", cell.warm.p99_ms, 2)
              .c_str(),
          report.Scalar("determinism", row, "fe_sum_kwh", cell.fe_sum_kwh, 3)
              .c_str(),
          report.Scalar("tenant_cost", row, "cpu_ms", cell.cpu_ns_total / 1e6,
                        2)
              .c_str(),
          report.Scalar("tenant_cost", row, "flip_evals",
                        static_cast<double>(cell.flip_evals), 0)
              .c_str(),
          report.Scalar("cold", row, "plans_per_sec",
                        cell.cold.plans_per_sec, 1)
              .c_str());
      report.Scalar("tenant_cost", row, "plans_ok",
                    static_cast<double>(cell.plans_ok), 0);
      report.Scalar("cold", row, "p50_ms", cell.cold.p50_ms, 2);
      report.Scalar("cold", row, "p99_ms", cell.cold.p99_ms, 2);
    }
  }

  const double shed_rate = ShedRate(/*tenants=*/4, /*offered_per_tenant=*/8,
                                    /*capacity=*/8);
  std::printf("\nadmission: %s shed at 4x overload (capacity 8, offered 32)\n",
              report.Scalar("admission", "capacity=8,offered=32", "shed_rate",
                            shed_rate, 3)
                  .c_str());

  // Tenant-directory microbench (ISSUE 10 satellite): the robin-hood
  // TenantTable must not regress against the std::map shard index it
  // replaced on the registry's hot lookup path.
  std::printf("\n%-22s %18s %18s\n", "tenant lookup", "table ns/lookup",
              "map ns/lookup");
  const std::vector<int> directory_sizes =
      quick ? std::vector<int>{4096} : std::vector<int>{4096, 262144};
  for (int entries : directory_sizes) {
    const LookupResult lookup = TenantLookup(entries, /*lookups=*/1'000'000);
    const std::string row = StrFormat("entries=%d", entries);
    std::printf("%-22s %18s %18s\n", row.c_str(),
                report.Scalar("tenant_lookup", row, "table_ns_per_lookup",
                              lookup.table_ns, 1)
                    .c_str(),
                report.Scalar("tenant_lookup", row, "map_ns_per_lookup",
                              lookup.map_ns, 1)
                    .c_str());
  }
  report.WriteIfRequested();
  return 0;
}
