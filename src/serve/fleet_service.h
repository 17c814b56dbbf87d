// FleetService: the multi-tenant planning service front door.
//
// One in-process service owns a fleet of households (a TenantRegistry) and
// executes plan / command / query work for them concurrently — the
// "IMCF-Cloud" controller of the paper's §V future work, run as a service
// rather than a batch job. The serving pipeline is:
//
//   Submit(request)          — admission control: the request lands in its
//                              tenant's shard queue; a full queue sheds the
//                              request immediately with a retry-after hint
//                              (load-shedding, never unbounded buffering).
//   Drain(now)               — scheduling: queued requests are grouped
//                              into one execution unit per tenant, ordered
//                              deadline-first within it, and the units fan
//                              out on the worker pool. A unit runs on one
//                              worker, so each request sees the effects of
//                              the tenant's earlier ones. Deadlines are
//                              checked against the drain's virtual `now`.
//                              Responses come back sorted by request id.
//
// Determinism: with a single submitting thread, the full response stream —
// shed decisions, deadline expiries and every per-tenant plan outcome — is
// a pure function of (service options, tenant configs, request stream,
// drain times), bit-identical for every worker count. See DESIGN.md §10.
//
// Persistence: with `store_dir` set, Create() recovers the fleet from the
// TableStore snapshot and Checkpoint()/Stop() rewrite it, so a restarted
// service resumes with the same tenants and counters.

#ifndef IMCF_SERVE_FLEET_SERVICE_H_
#define IMCF_SERVE_FLEET_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "fault/fault_plan.h"
#include "fault/retry.h"
#include "obs/accounting/cost_ledger.h"
#include "obs/metrics.h"
#include "obs/slo/slo_engine.h"
#include "obs/status_server/status_server.h"
#include "serve/request.h"
#include "serve/tenant_registry.h"
#include "storage/table_store.h"

namespace imcf {
namespace serve {

/// Service configuration.
struct FleetOptions {
  /// Tenant-registry shards (mutex stripes); also the queue stripes.
  int shards = 8;
  /// Worker threads draining the queues. 1 is the serial reference path
  /// (no pool is constructed); 0 selects the hardware concurrency.
  int workers = 1;
  /// Bounded queue capacity per shard; a submit beyond it is shed.
  int queue_capacity = 64;
  /// Base retry-after hint attached to shed responses, in (virtual)
  /// seconds. When the shedding shard has an observed drain rate, the hint
  /// scales to the estimated time the current backlog needs to drain,
  /// clamped to [base/4, base*8] (sim-time arithmetic only, so the hint is
  /// part of the determinism contract). Without history the base applies.
  SimTime shed_retry_after_seconds = 60;
  /// Snapshot directory; empty disables persistence.
  std::string store_dir;
  /// Fault injection for tenant command delivery and weather links; the
  /// plan's channels gate every tenant command the service delivers.
  fault::FaultOptions fault;
  fault::RetryPolicy retry;
  /// Publish per-tenant counters labelled {tenant="<id>"}. Off by default:
  /// the obs cardinality rules reserve labels for small closed sets, so
  /// only fleets of bounded size should enable this.
  bool per_tenant_metrics = false;
  /// Slow-request log threshold: an executed request whose wall latency
  /// meets or exceeds this logs one structured line with its collapsed
  /// span tree (including firewall verdict events). 0 disables.
  int64_t slow_request_wall_ns = 0;
  /// Directory for automatic flight-recorder dumps. When a single drain
  /// observes at least `spike_dump_threshold` shed + deadline-exceeded
  /// responses, the recorder is dumped to
  /// `<trace_dump_dir>/trace_spike_<n>.json`. Empty disables.
  std::string trace_dump_dir;
  int spike_dump_threshold = 0;
  /// Default per-tenant service objectives (plan latency, shed rate,
  /// deadline hit rate) and burn-rate window geometry. A tenant whose SLO
  /// starts burning at the configured multi-window threshold triggers the
  /// same auto-dump machinery as a shed spike
  /// (`<trace_dump_dir>/trace_slo_<n>.json`).
  obs::SloOptions slo;
  /// Live introspection port: -1 disables the status server, 0 binds an
  /// ephemeral port (tests read it back via status_server()->port()).
  /// Serves /metrics /statusz /tenantz /sloz /tracez.
  int status_port = -1;
};

/// The service.
class FleetService {
 public:
  /// Builds a service; with `store_dir` set, recovers any snapshotted
  /// fleet from it.
  static Result<std::unique_ptr<FleetService>> Create(FleetOptions options);

  ~FleetService();

  FleetService(const FleetService&) = delete;
  FleetService& operator=(const FleetService&) = delete;

  /// Admits a tenant (prepares its simulator — the expensive step).
  Status AddTenant(const TenantConfig& config);

  /// Submits one request. Returns nullopt when the request was queued (its
  /// response arrives from the next Drain), or the immediate response when
  /// admission rejected it (kShed / kTenantNotFound).
  std::optional<Response> Submit(Request request);

  /// The deterministic trace id minted for a request id: every span and
  /// event of one request shares it. Exposed so network front ends can
  /// root their transport spans (net.send) in the request's own tree.
  static uint64_t TraceIdFor(uint64_t request_id);

  /// Submit variant that also reports the request id assigned at admission
  /// (the id the eventual Drain response carries). Network front ends use
  /// it to correlate queued requests back to their connections.
  std::optional<Response> Submit(Request request, uint64_t* assigned_id);

  /// Executes every queued request at virtual time `now` and returns their
  /// responses sorted by request id. Requests whose deadline lies before
  /// `now` complete as kDeadlineExceeded without executing.
  std::vector<Response> Drain(SimTime now);

  /// Submit + immediate drain, for callers that want RPC semantics rather
  /// than open-loop batching. Returns this request's response; anything
  /// else queued is drained with it and its responses are dropped.
  Response Call(Request request, SimTime now);

  /// Rewrites the fleet snapshot (no-op without a store).
  Status Checkpoint();

  /// Drains outstanding work at `now`, then checkpoints.
  Status Stop(SimTime now);

  /// Requests currently queued across all shards.
  size_t queued() const;

  /// Current queue depth per shard (the /statusz skew view).
  std::vector<size_t> queue_depths() const;

  /// Dumps the process flight recorder as Perfetto JSON to `path` (the
  /// on-demand trace sink). Returns false when the file cannot be written.
  bool DumpTrace(const std::string& path) const;

  TenantRegistry& registry() { return *registry_; }
  const TenantRegistry& registry() const { return *registry_; }
  const FleetOptions& options() const { return options_; }

  /// Per-tenant cost attribution (who is spending what, by phase). Always
  /// present; stays empty when built with IMCF_DISABLE_ACCOUNTING.
  obs::CostLedger& cost_ledger() { return *cost_ledger_; }
  const obs::CostLedger& cost_ledger() const { return *cost_ledger_; }

  /// Per-tenant SLO burn-rate state (fed once per response at drain time).
  obs::SloEngine& slo_engine() { return *slo_; }
  const obs::SloEngine& slo_engine() const { return *slo_; }

  /// The status server, or null when options().status_port == -1.
  obs::StatusServer* status_server() { return status_server_.get(); }

  /// Virtual time of the most recent Drain (the /sloz evaluation point).
  SimTime last_drain_time() const {
    return last_drain_now_.load(std::memory_order_relaxed);
  }

 private:
  struct QueuedItem {
    uint64_t id = 0;
    int shard = 0;           ///< queue stripe the item waited on
    int64_t enqueue_ns = 0;  ///< wall clock at admission (queue-wait metric)
    Request request;
  };

  struct QueueShard {
    mutable std::mutex mu;
    std::deque<QueuedItem> items;
    /// Observed drain rate (guarded by mu, maintained by Drain): the last
    /// drain's virtual time, and how many items the previous non-empty
    /// drain moved over what sim-time gap. Submit's shed path scales its
    /// retry-after hint by items/gap — all sim-clock integers, so shed
    /// hints replay bit-identically at any worker count.
    SimTime last_drain_now = 0;
    SimTime drain_gap = 0;
    int64_t drain_items = 0;
  };

  explicit FleetService(FleetOptions options);

  /// Executes one admitted item at virtual time `now` (deadline check,
  /// tenant lookup, work dispatch). Pure function of (item, now, tenant
  /// state) — the unit of the determinism contract.
  Response Execute(const QueuedItem& item, SimTime now);

  /// The per-kind work, run with the tenant's mutex held.
  Status ExecutePlan(Tenant& tenant, const Request& request,
                     Response* response);
  Status ExecuteCommand(Tenant& tenant, const Request& request,
                        Response* response);
  Status ExecuteQuery(Tenant& tenant, const Request& request,
                      Response* response);
  Status ExecuteMrtUpdate(Tenant& tenant, const Request& request,
                          Response* response);

  void CountResponse(const Response& response);
  void UpdateQueueDepthGauge();

  /// Spike detector: dumps the flight recorder when one drain saw at least
  /// `spike_dump_threshold` shed + deadline-exceeded outcomes.
  void MaybeDumpSpike(const std::vector<Response>& responses);
  /// Emits one structured line per response over the slow-request
  /// threshold, with its collapsed span tree.
  void LogSlowRequests(const std::vector<Response>& responses);

  /// Feeds one drain's responses into the SLO windows and auto-dumps the
  /// flight recorder on a rising burn edge
  /// (`<trace_dump_dir>/trace_slo_<n>.json`).
  void FeedSlo(const std::vector<Response>& responses, SimTime now);

  FleetOptions options_;
  std::unique_ptr<TenantRegistry> registry_;
  std::unique_ptr<TableStore> store_;      // null without persistence
  std::unique_ptr<ThreadPool> pool_;       // null when workers == 1
  fault::FaultPlan fault_plan_;
  std::unique_ptr<obs::CostLedger> cost_ledger_;  // always non-null
  std::unique_ptr<obs::SloEngine> slo_;           // always non-null
  std::vector<std::unique_ptr<QueueShard>> queues_;
  /// Per-shard instrumentation (satellite of the aggregate gauges in
  /// ServeMetrics): hot-shard skew is visible instead of averaged away.
  std::vector<obs::Gauge*> shard_depth_;
  std::vector<obs::Histogram*> shard_wait_ns_;
  std::atomic<uint64_t> next_id_{1};
  /// Sheds since the last spike check (drained by Drain's spike detector).
  std::atomic<int64_t> sheds_since_check_{0};
  std::atomic<int> spike_dumps_{0};
  std::atomic<int> slo_dumps_{0};
  std::atomic<SimTime> last_drain_now_{0};
  /// Declared last so its serving thread stops before any state the
  /// introspection handlers read is torn down.
  std::unique_ptr<obs::StatusServer> status_server_;  // null when disabled
};

}  // namespace serve
}  // namespace imcf

#endif  // IMCF_SERVE_FLEET_SERVICE_H_
