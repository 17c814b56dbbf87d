#include "serve/fleet_service.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "fault/command_bus.h"
#include "firewall/conflict/conflict_report.h"
#include "firewall/conflict/dataflow_policy.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "obs/trace_export.h"
#include "obs/tracer.h"
#include "serve/introspection.h"

namespace imcf {
namespace serve {

namespace {

/// Serve instrumentation, resolved once (ISSUE: per-outcome serve metrics,
/// queue depth gauge, admission rejections, end-to-end latency).
struct ServeMetrics {
  obs::Counter* requests[kNumRequestKinds];
  obs::Counter* responses[kNumServeOutcomes];
  obs::Counter* shed_total;
  obs::Gauge* queue_depth;
  obs::Gauge* tenants;
  obs::Histogram* latency_ns;

  static const ServeMetrics& Get() {
    static const ServeMetrics* m = [] {
      auto& reg = obs::MetricRegistry::Default();
      auto* sm = new ServeMetrics();
      for (int k = 0; k < static_cast<int>(kNumRequestKinds); ++k) {
        sm->requests[k] = reg.GetCounter(
            "imcf_serve_requests_total", "Requests submitted, by kind",
            {{"kind", RequestKindName(static_cast<RequestKind>(k))}});
      }
      for (size_t o = 0; o < kNumServeOutcomes; ++o) {
        sm->responses[o] = reg.GetCounter(
            "imcf_serve_responses_total", "Responses produced, by outcome",
            {{"outcome", ServeOutcomeName(static_cast<ServeOutcome>(o))}});
      }
      sm->shed_total = reg.GetCounter(
          "imcf_serve_admission_rejections_total",
          "Requests shed by admission control (shard queue full)");
      sm->queue_depth = reg.GetGauge("imcf_serve_queue_depth",
                                     "Requests queued across all shards");
      sm->tenants =
          reg.GetGauge("imcf_serve_tenants", "Tenants in the fleet");
      sm->latency_ns = reg.GetHistogram(
          "imcf_serve_request_latency_ns",
          "Wall execution latency of served requests",
          obs::LatencyBoundsNs());
      return sm;
    }();
    return *m;
  }
};

/// Sort key placing deadline-free requests after every dated one.
SimTime DeadlineKey(const Request& request) {
  return request.deadline == 0 ? std::numeric_limits<SimTime>::max()
                               : request.deadline;
}

/// Deterministic trace id for a request: a pure function of the dense
/// submission id, so every worker count (and a replayed run) produces the
/// same ids and the canonical span trees compare bit-identical.
uint64_t ServeTraceId(uint64_t request_id) {
  constexpr uint64_t kServeTraceSalt = 0x53455256u;  // "SERV"
  const uint64_t id = MixHash(kServeTraceSalt, request_id);
  return id != 0 ? id : 1;
}

}  // namespace

FleetService::FleetService(FleetOptions options)
    : options_(std::move(options)), fault_plan_(options_.fault) {
  if (options_.shards < 1) options_.shards = 1;
  if (options_.queue_capacity < 1) options_.queue_capacity = 1;
  if (options_.workers <= 0) options_.workers = ThreadPool::HardwareThreads();
  registry_ = std::make_unique<TenantRegistry>(options_.shards,
                                               options_.fault,
                                               options_.retry);
  // The ledger shares the registry's shard geometry, and the registry's
  // WithTenant chokepoint charges into it; under IMCF_DISABLE_ACCOUNTING
  // the ledger object exists but nothing ever writes to it.
  cost_ledger_ = std::make_unique<obs::CostLedger>(options_.shards);
  registry_->set_cost_ledger(cost_ledger_.get());
  slo_ = std::make_unique<obs::SloEngine>(options_.slo);
  queues_.reserve(static_cast<size_t>(options_.shards));
  auto& reg = obs::MetricRegistry::Default();
  for (int i = 0; i < options_.shards; ++i) {
    queues_.push_back(std::make_unique<QueueShard>());
    // Shard count is a small fixed config value, so the per-shard label set
    // stays within the obs cardinality rules.
    const obs::Labels labels = {{"shard", std::to_string(i)}};
    shard_depth_.push_back(reg.GetGauge("imcf_serve_queue_depth",
                                        "Requests queued across all shards",
                                        labels));
    shard_wait_ns_.push_back(
        reg.GetHistogram("imcf_serve_queue_wait_ns",
                         "Wall time requests spent queued, by shard",
                         obs::LatencyBoundsNs(), labels));
  }
  // workers == 1 keeps the serial reference path (ParallelFor runs inline).
  if (options_.workers > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.workers);
  }
}

FleetService::~FleetService() = default;

Result<std::unique_ptr<FleetService>> FleetService::Create(
    FleetOptions options) {
  auto service =
      std::unique_ptr<FleetService>(new FleetService(std::move(options)));
  if (!service->options_.store_dir.empty()) {
    IMCF_ASSIGN_OR_RETURN(service->store_,
                          TableStore::Open(service->options_.store_dir));
    IMCF_ASSIGN_OR_RETURN(int recovered,
                          service->registry_->Load(service->store_.get()));
    (void)recovered;
    ServeMetrics::Get().tenants->Set(
        static_cast<double>(service->registry_->size()));
  }
  if (service->options_.status_port >= 0) {
    service->status_server_ = std::make_unique<obs::StatusServer>();
    obs::RegisterDefaultHandlers(service->status_server_.get(),
                                 &obs::MetricRegistry::Default(),
                                 &obs::FlightRecorder::Default());
    RegisterIntrospectionHandlers(service->status_server_.get(),
                                  service.get());
    std::string error;
    if (!service->status_server_->Start(service->options_.status_port,
                                        &error)) {
      return Status::Internal("status server: " + error);
    }
  }
  return service;
}

Status FleetService::AddTenant(const TenantConfig& config) {
  IMCF_RETURN_IF_ERROR(registry_->Admit(config));
  ServeMetrics::Get().tenants->Set(static_cast<double>(registry_->size()));
  return Status::Ok();
}

uint64_t FleetService::TraceIdFor(uint64_t request_id) {
  return ServeTraceId(request_id);
}

std::optional<Response> FleetService::Submit(Request request) {
  return Submit(std::move(request), /*assigned_id=*/nullptr);
}

std::optional<Response> FleetService::Submit(Request request,
                                             uint64_t* assigned_id) {
  const ServeMetrics& metrics = ServeMetrics::Get();
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  if (assigned_id != nullptr) *assigned_id = id;
  metrics.requests[static_cast<int>(request.kind)]->Increment();

  // The request's trace root. The id-derived trace id makes the span tree
  // replayable; the context crosses the enqueue -> drain thread handoff
  // inside the queued request.
  IMCF_TRACE_SPAN_IN(submit_span, "serve.submit", "serve",
                     obs::Tracer::Root(ServeTraceId(id)));
  submit_span.Detail(RequestKindName(request.kind));
  request.trace = submit_span.context();

  Response rejection;
  rejection.id = id;
  rejection.tenant = request.tenant;
  rejection.kind = request.kind;
  if (!registry_->Contains(request.tenant)) {
    IMCF_TRACE_EVENT("serve.tenant_not_found", "serve");
    rejection.outcome = ServeOutcome::kTenantNotFound;
    rejection.status = Status::NotFound("no such tenant: " + request.tenant);
    CountResponse(rejection);
    return rejection;
  }
  const int shard_index = registry_->ShardOf(request.tenant);
  QueueShard& shard = *queues_[static_cast<size_t>(shard_index)];
  bool queued_item = false;
  SimTime retry_after = options_.shed_retry_after_seconds;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.items.size() <
        static_cast<size_t>(options_.queue_capacity)) {
      shard.items.push_back(QueuedItem{id, shard_index,
                                       obs::ScopedTimer::NowNs(),
                                       std::move(request)});
      queued_item = true;
    } else if (shard.drain_items > 0 && shard.drain_gap > 0) {
      // Scale the retry-after hint by the shard's observed drain rate: the
      // estimated sim-time this backlog needs to clear, rounded up, bounded
      // to [base/4, base*8] so a noisy rate estimate can neither tell the
      // submitter "come back immediately" nor park it forever. Integer
      // sim-time arithmetic over drain history that is itself deterministic,
      // so shed hints replay bit-identically at any worker count.
      const SimTime base = options_.shed_retry_after_seconds;
      const SimTime depth = static_cast<SimTime>(shard.items.size());
      const SimTime estimate =
          (depth * shard.drain_gap + shard.drain_items - 1) /
          shard.drain_items;
      const SimTime lo = std::max<SimTime>(1, base / 4);
      const SimTime hi = base * 8;
      retry_after = std::min(hi, std::max(lo, estimate));
    }
  }
  if (queued_item) {
    // Outside the shard lock: the gauge update re-reads every shard.
    UpdateQueueDepthGauge();
    return std::nullopt;
  }
  // Load shedding: reject-with-retry-after instead of buffering without
  // bound; the submitter owns the backoff.
  IMCF_TRACE_EVENT("serve.shed", "serve", /*detail=*/{}, "shard",
                   shard_index);
  sheds_since_check_.fetch_add(1, std::memory_order_relaxed);
  rejection.outcome = ServeOutcome::kShed;
  rejection.retry_after_seconds = retry_after;
  metrics.shed_total->Increment();
#if IMCF_ACCOUNTING_ENABLED
  // Sheds enter the SLO windows at submission time: they never reach a
  // drain, so this is the only edge that can see them.
  obs::SloEvent shed_event;
  shed_event.sim_time = request.issue_time;
  shed_event.shed = true;
  shed_event.trace_id = ServeTraceId(id);
  slo_->Observe(request.tenant, shed_event);
#endif
  CountResponse(rejection);
  return rejection;
}

Status FleetService::ExecutePlan(Tenant& tenant, const Request& request,
                                 Response* response) {
  IMCF_ASSIGN_OR_RETURN(
      sim::SimulationReport report,
      tenant.simulator().Run(request.plan.policy, request.plan.rep));
  response->plan.fce_pct = report.fce_pct;
  response->plan.fe_kwh = report.fe_kwh;
  response->plan.within_budget = report.within_budget;
  response->plan.commands_issued = report.commands_issued;
  response->plan.commands_dropped = report.commands_dropped;
  tenant.stats().plans_served += 1;
  tenant.stats().fe_kwh_total += report.fe_kwh;
  return Status::Ok();
}

Status FleetService::ExecuteCommand(Tenant& tenant, const Request& request,
                                    Response* response) {
  const devices::DeviceKind kind =
      request.command.type == devices::CommandType::kSetLight
          ? devices::DeviceKind::kLight
          : devices::DeviceKind::kHvac;
  IMCF_ASSIGN_OR_RETURN(
      devices::DeviceId device,
      tenant.simulator().registry().FindByUnitAndKind(request.command.unit,
                                                      kind));
  devices::ActuationCommand cmd;
  cmd.device = device;
  cmd.type = request.command.type;
  cmd.value = request.command.value;
  cmd.time = request.command.time != 0 ? request.command.time
                                       : request.issue_time;
  cmd.source = "serve";
  // The fleet's FaultPlan gates the last hop to the tenant's device; the
  // decision is a pure function of (seed, device channel, cmd.time), so
  // delivery outcomes replay identically at any worker count.
  fault::CommandBus bus(&fault_plan_, options_.retry,
                        &tenant.simulator().registry());
#if IMCF_ACCOUNTING_ENABLED
  const int64_t bus_start_ns = obs::ScopedTimer::NowNs();
#endif
  const fault::Delivery delivery = bus.Deliver(cmd);
  IMCF_COST_ADD_PHASE_NS(obs::CostPhase::kCommandBus,
                         obs::ScopedTimer::NowNs() - bus_start_ns);
  // Faults charged to the tenant: every failed attempt (a delivered
  // command with N attempts burned N-1 faults; an undelivered one, N).
  IMCF_COST_ADD_FAULT(delivery.delivered ? delivery.attempts - 1
                                         : delivery.attempts);
  response->command_delivered = delivery.delivered;
  response->command_attempts = delivery.attempts;
  if (delivery.delivered) tenant.stats().commands_served += 1;
  return Status::Ok();
}

Status FleetService::ExecuteQuery(Tenant& tenant, const Request& request,
                                  Response* response) {
  if (request.query.kind == QueryKind::kContext) {
    // Context queries answer through the tenant's dataflow policy: only
    // the fields its own rule set references leave the firewall; the rest
    // stay at their zero defaults (PFirewall-style minimal forwarding).
    IMCF_ASSIGN_OR_RETURN(
        rules::EvaluationContext raw,
        tenant.simulator().ContextAt(request.issue_time, request.query.unit));
    const firewall::conflict::DataflowPolicy& policy =
        tenant.dataflow_policy();
    const rules::EvaluationContext filtered =
        firewall::conflict::FilterContext(raw, policy);
    ContextView& view = response->context;
    view.fields = policy.fields;
    view.time = filtered.time;
    view.season = static_cast<int>(filtered.weather.season);
    view.sky = static_cast<int>(filtered.weather.sky);
    view.outdoor_temp_c = filtered.weather.outdoor_temp_c;
    view.daylight = filtered.weather.daylight;
    view.ambient_temp_c = filtered.ambient_temp_c;
    view.ambient_light_pct = filtered.ambient_light_pct;
    view.door_open = filtered.door_open;
    tenant.stats().queries_served += 1;
    return Status::Ok();
  }
  TenantStatus& status = response->tenant_status;
  status.plans_served = tenant.stats().plans_served;
  status.commands_served = tenant.stats().commands_served;
  status.budget_kwh = tenant.simulator().total_budget_kwh();
  status.devices = static_cast<int>(tenant.simulator().registry().size());
  status.units = tenant.simulator().options().spec.units;
  tenant.stats().queries_served += 1;
  return Status::Ok();
}

Status FleetService::ExecuteMrtUpdate(Tenant& tenant, const Request& request,
                                      Response* response) {
  firewall::conflict::ConflictReport report;
  const Status applied =
      registry_->ApplyMrtUpdate(tenant, request.mrt_update, &report);
  if (applied.ok()) return Status::Ok();
  if (!report.ok()) {
    // The conflict pass vetoed the new rule set: a first-class outcome, not
    // an error. The tenant keeps serving its previous rules; the status
    // carries the finding summary back to the submitter.
    response->outcome = ServeOutcome::kConflictRejected;
    response->status = applied;
    return Status::Ok();
  }
  return applied;  // build/config failure -> kError
}

Response FleetService::Execute(const QueuedItem& item, SimTime now) {
  const Request& request = item.request;
  Response response;
  response.id = item.id;
  response.tenant = request.tenant;
  response.kind = request.kind;
  response.virtual_latency_seconds = now - request.issue_time;
  response.had_deadline = request.deadline != 0;

  // The worker half of the request's trace: parented on the submit span
  // carried inside the request, so the cross-thread handoff keeps one
  // request one tree.
  IMCF_TRACE_SPAN_IN(execute_span, "serve.execute", "serve", request.trace);
  execute_span.SimSpan(request.issue_time, now);

  // Deadline check against the drain's virtual now — never wall time — so
  // expiry is independent of scheduling order and worker count.
  if (request.deadline != 0 && request.deadline < now) {
    execute_span.Detail("deadline_exceeded");
    response.outcome = ServeOutcome::kDeadlineExceeded;
    (void)registry_->WithTenant(request.tenant, [](Tenant& tenant) {
      tenant.stats().deadline_expired += 1;
      return Status::Ok();
    });
    return response;
  }

  const int64_t start_ns = obs::ScopedTimer::NowNs();
  const Status lookup =
      registry_->WithTenant(request.tenant, [&](Tenant& tenant) {
        Status work;
        switch (request.kind) {
          case RequestKind::kPlan:
            work = ExecutePlan(tenant, request, &response);
            break;
          case RequestKind::kCommand:
            work = ExecuteCommand(tenant, request, &response);
            break;
          case RequestKind::kQuery:
            work = ExecuteQuery(tenant, request, &response);
            break;
          case RequestKind::kMrtUpdate:
            work = ExecuteMrtUpdate(tenant, request, &response);
            break;
        }
        if (work.ok()) {
          // ExecuteMrtUpdate sets kConflictRejected itself; every other
          // clean completion is kOk.
          if (response.outcome != ServeOutcome::kConflictRejected) {
            response.outcome = ServeOutcome::kOk;
          }
        } else {
          response.outcome = ServeOutcome::kError;
          response.status = work;
        }
        return Status::Ok();
      });
  response.wall_ns = obs::ScopedTimer::NowNs() - start_ns;
  if (!lookup.ok()) {
    // Tenant removed between admission and execution.
    response.outcome = ServeOutcome::kTenantNotFound;
    response.status = lookup;
  }
  execute_span.Detail(ServeOutcomeName(response.outcome));
  return response;
}

std::vector<Response> FleetService::Drain(SimTime now) {
  // 1. Snapshot every shard queue (per-tenant FIFO is the shard order).
  // Queue wait is observed here, on the draining thread: it is a wall
  // measurement, so it feeds the per-shard histogram but never a span arg.
  const int64_t drain_start_ns = obs::ScopedTimer::NowNs();
  std::vector<QueuedItem> items;
  for (const auto& shard : queues_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    // Drain-rate bookkeeping for the shed path's retry-after hint: a
    // non-empty drain with an elapsed sim-time gap records (items, gap).
    // Pure sim-clock state, so hints stay deterministic.
    if (!shard->items.empty() && shard->last_drain_now != 0 &&
        now > shard->last_drain_now) {
      shard->drain_gap = now - shard->last_drain_now;
      shard->drain_items = static_cast<int64_t>(shard->items.size());
    }
    shard->last_drain_now = now;
    for (QueuedItem& item : shard->items) {
      shard_wait_ns_[static_cast<size_t>(item.shard)]->Observe(
          static_cast<double>(drain_start_ns - item.enqueue_ns));
#if IMCF_ACCOUNTING_ENABLED
      // Queue wait is charged here because no ScopedCost is open while the
      // request sits in the queue — the drain is the first point where both
      // the tenant and the wait are known.
      cost_ledger_->AddPhaseNs(item.shard, item.request.tenant,
                               obs::CostPhase::kQueueWait,
                               drain_start_ns - item.enqueue_ns);
#endif
      items.push_back(std::move(item));
    }
    shard->items.clear();
  }
  UpdateQueueDepthGauge();

  // 2. Sort by tenant id, then within a tenant deadline first, submission
  // order among equals. Request ids are unique, so the order is total and
  // deterministic.
  std::sort(items.begin(), items.end(),
            [](const QueuedItem& a, const QueuedItem& b) {
              if (a.request.tenant != b.request.tenant) {
                return a.request.tenant < b.request.tenant;
              }
              const SimTime da = DeadlineKey(a.request);
              const SimTime db = DeadlineKey(b.request);
              if (da != db) return da < db;
              return a.id < b.id;
            });

  // 3. One execution unit per tenant: a unit runs its tenant's items in
  // that order on one worker, so each request sees the effects of the ones
  // before it (an MRT update is in force for the plan after it), and no
  // two workers contend for one tenant. ParallelFor's dynamic claiming
  // balances the units. Each item writes only its own response slot.
  std::vector<size_t> unit_begin;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i == 0 || items[i].request.tenant != items[i - 1].request.tenant) {
      unit_begin.push_back(i);
    }
  }
  unit_begin.push_back(items.size());
  const int n_units = static_cast<int>(unit_begin.size()) - 1;
  std::vector<Response> responses(items.size());
  ParallelFor(pool_.get(), n_units, [&](int u) {
    const size_t end = unit_begin[static_cast<size_t>(u) + 1];
    for (size_t i = unit_begin[static_cast<size_t>(u)]; i < end; ++i) {
      responses[i] = Execute(items[i], now);
    }
  });

  // 4. Deterministic response order + metrics, on the draining thread.
  std::sort(responses.begin(), responses.end(),
            [](const Response& a, const Response& b) { return a.id < b.id; });
  for (const Response& response : responses) CountResponse(response);

  last_drain_now_.store(now, std::memory_order_relaxed);
  FeedSlo(responses, now);
  MaybeDumpSpike(responses);
  LogSlowRequests(responses);
  return responses;
}

void FleetService::MaybeDumpSpike(const std::vector<Response>& responses) {
  // Spike detector: a burst of shed/deadline-exceeded outcomes is exactly
  // the moment the flight recorder exists for — dump it before the rings
  // overwrite the evidence.
  int64_t spikes = sheds_since_check_.exchange(0, std::memory_order_relaxed);
  for (const Response& response : responses) {
    if (response.outcome == ServeOutcome::kDeadlineExceeded) ++spikes;
  }
  if (options_.spike_dump_threshold <= 0 || options_.trace_dump_dir.empty() ||
      spikes < options_.spike_dump_threshold) {
    return;
  }
  const int seq = spike_dumps_.fetch_add(1, std::memory_order_relaxed);
  const std::string path =
      options_.trace_dump_dir + StrFormat("/trace_spike_%d.json", seq);
  if (DumpTrace(path)) {
    IMCF_LOG(kWarning) << "serve spike (" << spikes
                       << " shed/deadline-exceeded): dumped trace to "
                       << path;
  } else {
    IMCF_LOG(kWarning) << "serve spike: failed to write trace to " << path;
  }
}

void FleetService::LogSlowRequests(const std::vector<Response>& responses) {
  if (options_.slow_request_wall_ns <= 0) return;
  // One recorder snapshot covers every outlier in this drain; the sampled
  // structured line carries the collapsed span tree (firewall verdicts
  // included as fw.drop events) so an outlier is explainable post hoc.
  std::vector<obs::SpanRecord> snapshot;
  bool snapshotted = false;
  for (const Response& response : responses) {
    if (response.wall_ns < options_.slow_request_wall_ns) continue;
    if (!snapshotted) {
      snapshot = obs::FlightRecorder::Default().Snapshot();
      snapshotted = true;
    }
    IMCF_LOG(kWarning) << "slow request id=" << response.id << " tenant="
                       << response.tenant << " kind="
                       << RequestKindName(response.kind) << " outcome="
                       << ServeOutcomeName(response.outcome) << " wall_ns="
                       << response.wall_ns << " vlat_s="
                       << response.virtual_latency_seconds << " spans="
                       << obs::CompactTraceLine(snapshot,
                                                ServeTraceId(response.id));
  }
}

bool FleetService::DumpTrace(const std::string& path) const {
  return obs::WriteTraceJson(obs::FlightRecorder::Default(), path);
}

Response FleetService::Call(Request request, SimTime now) {
  // RPC convenience: drains everything queued; intended for callers that
  // interleave submits and drains one request at a time.
  uint64_t id = 0;
  std::optional<Response> immediate = Submit(std::move(request), &id);
  if (immediate.has_value()) return *immediate;
  std::vector<Response> responses = Drain(now);
  for (Response& response : responses) {
    if (response.id == id) return std::move(response);
  }
  Response lost;
  lost.id = id;
  lost.outcome = ServeOutcome::kError;
  lost.status = Status::Internal("drained without a response");
  return lost;
}

Status FleetService::Checkpoint() {
  if (store_ == nullptr) return Status::Ok();
  return registry_->Save(store_.get());
}

Status FleetService::Stop(SimTime now) {
  (void)Drain(now);
  return Checkpoint();
}

size_t FleetService::queued() const {
  size_t n = 0;
  for (const auto& shard : queues_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->items.size();
  }
  return n;
}

std::vector<size_t> FleetService::queue_depths() const {
  std::vector<size_t> depths;
  depths.reserve(queues_.size());
  for (const auto& shard : queues_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    depths.push_back(shard->items.size());
  }
  return depths;
}

void FleetService::FeedSlo(const std::vector<Response>& responses,
                           SimTime now) {
#if IMCF_ACCOUNTING_ENABLED
  for (const Response& response : responses) {
    if (response.outcome == ServeOutcome::kTenantNotFound ||
        response.tenant.empty()) {
      continue;
    }
    obs::SloEvent event;
    event.sim_time = now;
    event.is_plan = response.kind == RequestKind::kPlan &&
                    response.outcome == ServeOutcome::kOk;
    event.plan_wall_ns = response.wall_ns;
    event.had_deadline = response.had_deadline;
    event.deadline_miss = response.outcome == ServeOutcome::kDeadlineExceeded;
    event.trace_id = ServeTraceId(response.id);
    slo_->Observe(response.tenant, event);
  }
  const std::vector<obs::BurnStatus> fresh = slo_->NewlyFiring(now);
  if (fresh.empty()) return;
  for (const obs::BurnStatus& burn : fresh) {
    IMCF_LOG(kWarning) << "SLO burn: tenant=" << burn.tenant << " objective="
                       << obs::SloObjectiveName(burn.objective)
                       << " short_burn=" << burn.short_burn << " long_burn="
                       << burn.long_burn << " exemplar_trace_id=0x"
                       << StrFormat("%016llx",
                                    static_cast<unsigned long long>(
                                        burn.exemplar_trace_id));
  }
  if (options_.trace_dump_dir.empty()) return;
  // A newly burning SLO triggers the same evidence-preservation move as a
  // shed spike: dump the flight recorder before the rings overwrite it.
  const int seq = slo_dumps_.fetch_add(1, std::memory_order_relaxed);
  const std::string path =
      options_.trace_dump_dir + StrFormat("/trace_slo_%d.json", seq);
  if (DumpTrace(path)) {
    IMCF_LOG(kWarning) << "SLO burn: dumped trace to " << path;
  } else {
    IMCF_LOG(kWarning) << "SLO burn: failed to write trace to " << path;
  }
#else
  (void)responses;
  (void)now;
#endif
}

void FleetService::CountResponse(const Response& response) {
  const ServeMetrics& metrics = ServeMetrics::Get();
  metrics.responses[static_cast<size_t>(response.outcome)]->Increment();
  if (response.outcome == ServeOutcome::kOk && response.wall_ns > 0) {
    // The request's trace id rides along as the bucket exemplar, so a
    // latency bucket on /metrics links straight to a /tracez span tree.
    metrics.latency_ns->Observe(static_cast<double>(response.wall_ns),
                                ServeTraceId(response.id));
  }
#if IMCF_ACCOUNTING_ENABLED
  // Outcome tallies (the deterministic half of the ledger). Unknown-tenant
  // responses have no row to charge.
  if (response.outcome != ServeOutcome::kTenantNotFound &&
      !response.tenant.empty()) {
    obs::TenantCost delta;
    switch (response.outcome) {
      case ServeOutcome::kOk:
        switch (response.kind) {
          case RequestKind::kPlan:
            delta.plans_ok = 1;
            break;
          case RequestKind::kCommand:
            delta.commands_ok = 1;
            break;
          case RequestKind::kQuery:
            delta.queries_ok = 1;
            break;
          case RequestKind::kMrtUpdate:
            // Accepted rule-set swap. Deliberately NOT plans_ok: the ledger
            // witness separates serving plans from mutating rule sets.
            delta.mrt_updates_ok = 1;
            break;
        }
        break;
      case ServeOutcome::kError:
        delta.errors = 1;
        break;
      case ServeOutcome::kShed:
        delta.sheds = 1;
        break;
      case ServeOutcome::kDeadlineExceeded:
        delta.deadline_misses = 1;
        break;
      case ServeOutcome::kConflictRejected:
        // A vetoed update is never charged as applied work of any kind.
        delta.conflict_rejections = 1;
        break;
      case ServeOutcome::kTenantNotFound:
        break;
    }
    cost_ledger_->Apply(registry_->ShardOf(response.tenant), response.tenant,
                        delta);
  }
#endif
  if (options_.per_tenant_metrics && !response.tenant.empty()) {
    obs::MetricRegistry::Default()
        .GetCounter("imcf_serve_tenant_responses_total",
                    "Responses produced, by tenant",
                    {{"tenant", response.tenant}})
        ->Increment();
  }
}

void FleetService::UpdateQueueDepthGauge() {
  size_t total = 0;
  for (size_t i = 0; i < queues_.size(); ++i) {
    size_t depth;
    {
      std::lock_guard<std::mutex> lock(queues_[i]->mu);
      depth = queues_[i]->items.size();
    }
    shard_depth_[i]->Set(static_cast<double>(depth));
    total += depth;
  }
  ServeMetrics::Get().queue_depth->Set(static_cast<double>(total));
}

}  // namespace serve
}  // namespace imcf
