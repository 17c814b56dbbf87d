// Wire-level benchmark of the fleet service.
//
//   perfbench --workload <interactive|replan|mixed> --seed <n>
//             --seconds <s> --trace <0|1>
//
// One process hosts both sides of loopback TCP: the service under test
// (FleetService with two drain workers behind the epoll WireServer) and one
// generator thread driving two client connections. Every tenant is pinned
// to one connection. The generator is open loop (Poisson arrivals, latency
// timed from each request's due time) on `interactive` and `mixed`, and
// closed loop (16 plans in flight per connection) on `replan`. README.md
// in this directory says why each workload exists and which layer each
// metric belongs to.
//
// After the wire phase the same request stream is replayed in-process on a
// second fleet built from the same configs. Every wire reply is checked
// against that replay (plans bit for bit) and against direct calls into
// the layers below (status fields, context snapshots, command delivery).
// With --trace 1 the replay also times each layer's public calls and the
// run prints the per-layer metrics; with --trace 0 it prints the
// end-to-end metrics. The last stdout line is one JSON object.

#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/plan_arena.h"
#include "fault/command_bus.h"
#include "firewall/conflict/dataflow_policy.h"
#include "harness.h"
#include "net/server.h"
#include "net/socket_util.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "serve/fleet_service.h"
#include "serve/tenant_registry.h"
#include "trace/dataset.h"

namespace perfbench {
namespace {

namespace serve = imcf::serve;
namespace net = imcf::net;
using imcf::SimTime;
using imcf::Status;

constexpr int kConnections = 2;
constexpr int kWorkers = 2;
/// Set-up is repeated and the median reported: single set-ups of identical
/// code vary by up to 70% in CPU time (README.md, fact F3).
constexpr int kSetupRepeats = 11;
constexpr double kWarmupSeconds = 1.0;
constexpr double kReplyGraceSeconds = 20.0;
constexpr int kClosedLoopInFlight = 16;  // per connection
constexpr int kPlanProbeRequests = 400;  // interactive's unloaded plan probe
constexpr int kWriterPairs = 4;
/// Per-layer call samples: a kind the stream sends fewer times than this
/// is topped up with seeded probe calls on the replay fleet.
constexpr size_t kMinLayerSamples = 64;
/// Plans whose child work the traced replay re-times (three Run calls
/// each); beyond it, whole drains are sampled at a fixed stride.
constexpr size_t kMaxTimedPlans = 1500;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Keeps every CPU the process may use out of idle halt while alive: one
/// spinner thread per CPU, pinned to it and scheduled SCHED_IDLE, so any
/// runnable thread of the benchmark or the service preempts it at once.
/// On a virtual machine a halted vCPU is woken by the host scheduler, which
/// takes from microseconds to milliseconds depending on the host's load;
/// without this, p50_ms of identical code drifted between 0.49 and 0.96 ms
/// from run to run (README.md, fact F2). It is the per-process equivalent
/// of booting with idle=poll, used on the open-loop workloads. The
/// spinners' CPU time is excluded from the server CPU the benchmark
/// reports.
class KeepAwake {
 public:
  KeepAwake() {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask)) {
        threads_.emplace_back([this, cpu] { Spin(cpu); });
      }
    }
  }
  ~KeepAwake() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
  }
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

  /// CPU time the spinners have used so far.
  int64_t CpuNs() {
    int64_t total = 0;
    for (std::thread& t : threads_) {
      clockid_t clock;
      if (pthread_getcpuclockid(t.native_handle(), &clock) == 0) {
        total += perfbench::CpuNs(clock);
      }
    }
    return total;
  }

 private:
  void Spin(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    (void)pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    sched_param param{};
    (void)pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
    while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }

  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

// ---------------------------------------------------------------------------
// Workloads and the fleet.

struct Workload {
  std::string name;
  int tenants = 0;
  bool writers = false;   ///< include the MRT-update tenant pairs
  bool open_loop = true;  ///< false: closed loop of plans
  OpenLoopMix mix;
};

Workload WorkloadNamed(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "interactive") {
    w.tenants = 256;
    w.writers = true;  // same fleet as `mixed`; the pairs stay idle here
    w.mix.rate_per_s = 1000.0;
    w.mix.share[static_cast<int>(Op::kStatus)] = 0.50;
    w.mix.share[static_cast<int>(Op::kContext)] = 0.20;
    w.mix.share[static_cast<int>(Op::kCommand)] = 0.30;
  } else if (name == "replan") {
    w.tenants = 64;
    w.open_loop = false;
  } else if (name == "mixed") {
    w.tenants = 256;
    w.writers = true;
    w.mix.rate_per_s = 500.0;
    // 85% interactive kinds in interactive's proportions, 14% plans, 1%
    // MRT updates.
    w.mix.share[static_cast<int>(Op::kStatus)] = 0.425;
    w.mix.share[static_cast<int>(Op::kContext)] = 0.170;
    w.mix.share[static_cast<int>(Op::kCommand)] = 0.255;
    w.mix.share[static_cast<int>(Op::kPlan)] = 0.14;
    w.mix.share[static_cast<int>(Op::kMrtUpdate)] = 0.01;
  } else {
    Die("unknown workload '" + name + "' (interactive, replan, mixed)");
  }
  return w;
}

/// The two halves of an inter-tenant command loop (HVAC output commands
/// the lights, light level commands the HVAC). An anchor tenant holds the
/// first; an updater in the same shard asking for the second is vetoed by
/// the conflict pass.
imcf::rules::TriggerRule HvacToLight() {
  return imcf::rules::TriggerRule::OnTemperature(
      imcf::rules::TriggerOp::kGreaterThan, 24.0,
      imcf::rules::RuleAction::kSetLight, 0.0);
}
imcf::rules::TriggerRule LightToHvac() {
  return imcf::rules::TriggerRule::OnLightLevel(
      imcf::rules::TriggerOp::kLessThan, 10.0,
      imcf::rules::RuleAction::kSetTemperature, 26.0);
}

serve::FleetOptions ServiceOptions() {
  serve::FleetOptions options;
  options.workers = kWorkers;
  // Far above the deepest backlog any workload builds: the benchmark
  // measures serving, so a shed is a failure, never a steady state.
  options.queue_capacity = 4096;
  // Transient device faults make the command bus retry.
  options.fault.enabled = true;
  options.fault.seed = 7;
  options.fault.device.transient_error_prob = 0.2;
  return options;
}

struct Fleet {
  std::vector<serve::TenantConfig> configs;
  std::vector<int> units;    ///< per config
  std::vector<int> readers;  ///< configs receiving reads, commands, plans
  std::vector<int> updaters; ///< configs receiving MRT updates
  /// Readers split by connection (closed-loop streams draw from these).
  std::vector<int> readers_on[kConnections];
  /// Plan targets: readers by dataset (flat, house, dorms), overall and
  /// per connection.
  std::vector<int> readers_by_dataset[3];
  std::vector<int> readers_on_by_dataset[kConnections][3];
};

const char* const kDatasets[] = {"flat", "flat", "house", "dorms"};

int DatasetIndex(const std::string& dataset) {
  if (dataset == "flat") return 0;
  if (dataset == "house") return 1;
  return 2;
}

/// Tenants are pinned to connections in groups of four consecutive ids, so
/// each connection carries every dataset of the flat/flat/house/dorms
/// cycle.
int ConnectionOf(int config_index) {
  return (config_index / 4) % kConnections;
}

Fleet MakeFleet(const Workload& workload) {
  Fleet fleet;
  for (int i = 0; i < workload.tenants; ++i) {
    serve::TenantConfig config;
    char id[32];
    std::snprintf(id, sizeof(id), "home%03d", i);
    config.id = id;
    config.dataset = kDatasets[i % 4];
    config.seed = static_cast<uint64_t>(i) + 1;
    config.hours = 24;
    fleet.configs.push_back(config);
  }
  std::vector<bool> writer(fleet.configs.size(), false);
  if (workload.writers) {
    // Anchor/updater pairs: two flat tenants sharing a registry shard
    // (the conflict graph is per shard), taken from the top of the fleet.
    const serve::TenantRegistry shards(ServiceOptions().shards);
    std::map<int, int> unpaired;  // shard -> config index
    for (int i = workload.tenants - 1;
         i >= 0 && static_cast<int>(fleet.updaters.size()) < kWriterPairs;
         --i) {
      if (fleet.configs[i].dataset != "flat") continue;
      const int shard = shards.ShardOf(fleet.configs[i].id);
      auto it = unpaired.find(shard);
      if (it == unpaired.end()) {
        unpaired[shard] = i;
        continue;
      }
      fleet.configs[it->second].extra_recipes = {HvacToLight()};
      writer[it->second] = writer[i] = true;
      fleet.updaters.push_back(i);
      unpaired.erase(it);
    }
  }
  for (size_t i = 0; i < fleet.configs.size(); ++i) {
    auto spec = serve::SpecForConfig(fleet.configs[i]);
    CheckOk(spec.status(), "dataset spec");
    fleet.units.push_back(spec->units);
    if (!writer[i]) {
      fleet.readers.push_back(static_cast<int>(i));
      const int c = ConnectionOf(static_cast<int>(i));
      const int d = DatasetIndex(fleet.configs[i].dataset);
      fleet.readers_on[c].push_back(static_cast<int>(i));
      fleet.readers_by_dataset[d].push_back(static_cast<int>(i));
      fleet.readers_on_by_dataset[c][d].push_back(static_cast<int>(i));
    }
  }
  return fleet;
}

// ---------------------------------------------------------------------------
// Requests.

/// One request the generator sent, and what came back.
struct Record {
  Arrival arrival;
  int config = 0;  ///< index into Fleet::configs
  serve::Request request;
  int64_t due_ns = 0;   ///< absolute; latency is timed from here
  int64_t recv_ns = 0;
  bool measured = false;  ///< inside the measured window
  bool traced = false;    ///< codec timed on the generator side
  bool probe = false;     ///< interactive's post-window plan probe
  int batch = -1;         ///< generator wake that read the reply
  bool replied = false;
  bool failed = false;
  std::string failure;
  net::FrameType reply_type = net::FrameType::kResponse;
  serve::Response response;
  std::string frame;        ///< request bytes (traced records only)
  double encode_us = 0.0;   ///< client encode (traced)
  double decode_us = 0.0;   ///< client decode (traced)
  /// Status queries: OK plans / delivered commands of the tenant whose
  /// replies had arrived when this query was sent (lower bounds).
  int64_t plans_before = 0;
  int64_t commands_before = 0;
};

serve::Request BuildRequest(const Fleet& fleet, const Arrival& arrival,
                            int config, int64_t seq) {
  serve::Request request;
  request.tenant = fleet.configs[static_cast<size_t>(config)].id;
  request.issue_time = imcf::trace::EvaluationStart() + seq;
  const uint64_t arg = arrival.arg;
  const int units = fleet.units[static_cast<size_t>(config)];
  switch (arrival.op) {
    case Op::kStatus:
      request.kind = serve::RequestKind::kQuery;
      request.query.kind = serve::QueryKind::kStatus;
      break;
    case Op::kContext:
      request.kind = serve::RequestKind::kQuery;
      request.query.kind = serve::QueryKind::kContext;
      request.query.unit = static_cast<int>(arg % static_cast<uint64_t>(units));
      break;
    case Op::kCommand:
      request.kind = serve::RequestKind::kCommand;
      request.command.unit =
          static_cast<int>(arg % static_cast<uint64_t>(units));
      if ((arg >> 20) & 1) {
        request.command.type = imcf::devices::CommandType::kSetLight;
        request.command.value = static_cast<double>((arg >> 24) % 101);
      } else {
        request.command.type = imcf::devices::CommandType::kSetTemperature;
        request.command.value = 18.0 + static_cast<double>((arg >> 24) % 9);
      }
      break;
    case Op::kPlan:
      request.kind = serve::RequestKind::kPlan;
      request.plan.policy = imcf::sim::Policy::kEnergyPlanner;
      request.plan.rep = static_cast<int>((arg >> 1) & 0x3fffffff);
      break;
    case Op::kMrtUpdate:
      request.kind = serve::RequestKind::kMrtUpdate;
      if (arg & 1) {
        request.mrt_update.set_recipes = true;
        request.mrt_update.extra_recipes = {LightToHvac()};
      } else {
        request.mrt_update.seed = 1000 + (arg >> 1) % 1'000'000;
      }
      break;
  }
  return request;
}

bool IsInteractiveKind(Op op) {
  return op == Op::kStatus || op == Op::kContext || op == Op::kCommand;
}

// ---------------------------------------------------------------------------
// The serving stack: service + wire server + two client sockets.

struct Stack {
  std::unique_ptr<serve::FleetService> service;
  std::unique_ptr<net::WireServer> server;
  int fds[kConnections] = {-1, -1};

  ~Stack() {
    for (int& fd : fds) {
      if (fd >= 0) net::CloseQuietly(fd);
      fd = -1;
    }
    if (server) server->Stop();
  }
};

std::unique_ptr<serve::FleetService> BuildService(const Fleet& fleet) {
  auto service = serve::FleetService::Create(ServiceOptions());
  CheckOk(service.status(), "create service");
  for (const serve::TenantConfig& config : fleet.configs) {
    CheckOk((*service)->AddTenant(config), "admit tenant");
  }
  return std::move(*service);
}

std::unique_ptr<Stack> BuildStack(const Fleet& fleet) {
  auto stack = std::make_unique<Stack>();
  stack->service = BuildService(fleet);
  auto server = net::WireServer::Start(stack->service.get(), {});
  CheckOk(server.status(), "start wire server");
  stack->server = std::move(*server);
  for (int& fd : stack->fds) {
    std::string error;
    fd = net::ConnectLoopback(stack->server->port(), &error);
    if (fd < 0) Die("connect: " + error);
    if (!net::SetNonBlocking(fd)) Die("O_NONBLOCK failed");
  }
  return stack;
}

// ---------------------------------------------------------------------------
// The generator: one thread, two non-blocking connections.

struct Conn {
  int fd = -1;
  std::string out;
  size_t off = 0;
  net::FrameReader reader;
};

class Generator {
 public:
  /// `first_wake` numbers this generator's reply batches after those of an
  /// earlier phase on the same records.
  Generator(const Fleet& fleet, Stack* stack, std::vector<Record>* records,
            int first_wake = 0)
      : records_(records), wake_(first_wake) {
    for (int c = 0; c < kConnections; ++c) conns_[c].fd = stack->fds[c];
    plans_ok_.assign(fleet.configs.size(), 0);
    commands_ok_.assign(fleet.configs.size(), 0);
  }

  /// Queues one request on its tenant's connection.
  void Send(size_t index) {
    Record& record = (*records_)[index];
    Conn& conn = conns_[ConnectionOf(record.config)];
    if (record.arrival.op == Op::kStatus) {
      record.plans_before = plans_ok_[static_cast<size_t>(record.config)];
      record.commands_before =
          commands_ok_[static_cast<size_t>(record.config)];
    }
    const int64_t t0 = record.traced ? NowNs() : 0;
    std::string payload;
    net::EncodeRequestPayload(index + 1, record.request, &payload);
    std::string frame = net::EncodeFrame(net::FrameType::kRequest, payload);
    if (record.traced) {
      record.encode_us = static_cast<double>(NowNs() - t0) / 1e3;
      record.frame = frame;
    }
    conn.out += frame;
    ++outstanding_;
  }

  /// Writes queued bytes as far as the sockets take them.
  void Flush() {
    for (Conn& conn : conns_) {
      while (conn.off < conn.out.size()) {
        const ssize_t sent = ::send(conn.fd, conn.out.data() + conn.off,
                                    conn.out.size() - conn.off, MSG_NOSIGNAL);
        if (sent < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          Die("send failed");
        }
        conn.off += static_cast<size_t>(sent);
      }
      if (conn.off == conn.out.size()) {
        conn.out.clear();
        conn.off = 0;
      }
    }
  }

  /// Waits for replies until `deadline_ns` (1 ms when negative), reads
  /// every available one, and appends the indexes of completed records.
  void Poll(int64_t deadline_ns, std::vector<size_t>* completed) {
    pollfd fds[kConnections];
    for (int c = 0; c < kConnections; ++c) {
      fds[c].fd = conns_[c].fd;
      fds[c].events = POLLIN;
      if (conns_[c].off < conns_[c].out.size()) fds[c].events |= POLLOUT;
      fds[c].revents = 0;
    }
    int64_t wait_ns = deadline_ns < 0 ? 1'000'000 : deadline_ns - NowNs();
    if (wait_ns < 0) wait_ns = 0;
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    const int n = ::ppoll(fds, kConnections, &ts, nullptr);
    if (n < 0 && errno != EINTR) Die("ppoll failed");
    if (n <= 0) return;
    ++wake_;
    for (int c = 0; c < kConnections; ++c) {
      if (fds[c].revents & (POLLERR | POLLHUP)) Die("connection closed");
      if (fds[c].revents & POLLIN) Read(conns_[c], c, completed);
    }
  }

  int64_t outstanding() const { return outstanding_; }

 private:
  void Read(Conn& conn, int c, std::vector<size_t>* completed) {
    char buf[64 * 1024];
    while (true) {
      const ssize_t got = ::recv(conn.fd, buf, sizeof(buf), 0);
      if (got < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        Die("recv failed");
      }
      if (got == 0) Die("server closed a connection");
      if (!conn.reader.Feed(std::string_view(buf, static_cast<size_t>(got)))) {
        Die("unframed server bytes");
      }
    }
    const int64_t now = NowNs();
    while (true) {
      auto next = conn.reader.Next();
      if (!next.ok()) Die("bad frame: " + next.status().ToString());
      if (!next->has_value()) break;
      const net::Frame& frame = **next;
      const int64_t t0 = NowNs();
      imcf::Result<net::WireResponse> decoded =
          frame.type == net::FrameType::kResponse
              ? net::DecodeResponsePayload(frame.payload)
          : frame.type == net::FrameType::kShed
              ? net::DecodeShedPayload(frame.payload)
              : net::DecodeErrorPayload(frame.payload);
      const double decode_us = static_cast<double>(NowNs() - t0) / 1e3;
      if (!decoded.ok()) {
        Die("undecodable reply: " + decoded.status().ToString());
      }
      const uint64_t client_id = decoded->client_id;
      if (client_id == 0 || client_id > records_->size()) {
        Die("reply with unknown correlation id");
      }
      const size_t index = client_id - 1;
      Record& record = (*records_)[index];
      if (record.replied || ConnectionOf(record.config) != c) {
        Die("reply correlated to the wrong request");
      }
      record.replied = true;
      record.recv_ns = now;
      record.batch = wake_;
      record.reply_type = frame.type;
      record.response = std::move(decoded->response);
      if (record.traced) record.decode_us = decode_us;
      --outstanding_;
      const auto& r = record.response;
      if (frame.type == net::FrameType::kResponse &&
          r.outcome == serve::ServeOutcome::kOk) {
        if (r.kind == serve::RequestKind::kPlan) {
          ++plans_ok_[static_cast<size_t>(record.config)];
        } else if (r.kind == serve::RequestKind::kCommand &&
                   r.command_delivered) {
          ++commands_ok_[static_cast<size_t>(record.config)];
        }
      }
      completed->push_back(index);
    }
  }

  std::vector<Record>* records_;
  Conn conns_[kConnections];
  std::vector<int64_t> plans_ok_;
  std::vector<int64_t> commands_ok_;
  int64_t outstanding_ = 0;
  int wake_;
};

constexpr int64_t kSliceNs = 1'000'000'000;

/// Server CPU (process minus the generator thread and the KeepAwake
/// spinners) sampled at each slice boundary of the measured window; ticked
/// from the generator loop.
class CpuSlices {
 public:
  /// `awake` may be null (no spinners running).
  CpuSlices(int64_t start_ns, int slices, KeepAwake* awake)
      : start_ns_(start_ns), slices_(slices), awake_(awake) {}

  void Tick(int64_t now) {
    while (!done() && now >= next_boundary()) {
      samples_.push_back(CpuNs(CLOCK_PROCESS_CPUTIME_ID) -
                         CpuNs(CLOCK_THREAD_CPUTIME_ID) -
                         (awake_ != nullptr ? awake_->CpuNs() : 0));
    }
  }
  bool done() const { return static_cast<int>(samples_.size()) > slices_; }
  int64_t next_boundary() const {
    return start_ns_ + static_cast<int64_t>(samples_.size()) * kSliceNs;
  }
  /// Server CPU spent in each slice.
  std::vector<int64_t> PerSlice() const {
    std::vector<int64_t> out;
    for (size_t i = 1; i < samples_.size(); ++i) {
      out.push_back(samples_[i] - samples_[i - 1]);
    }
    return out;
  }

 private:
  int64_t start_ns_;
  int slices_;
  KeepAwake* awake_;
  std::vector<int64_t> samples_;
};

struct WirePhase {
  int64_t measure_start_ns = 0;
  int slices = 0;  ///< one-second slices of the measured window
  std::vector<int64_t> slice_server_cpu_ns;
  std::vector<double> late_ms;  ///< generator lateness per open-loop send
  /// Queue-wait histogram totals over the traced part of the window.
  double queue_wait_sum_ns = 0.0;
  int64_t queue_wait_count = 0;
};

/// The serve layer's queue-wait histograms (imcf_serve_queue_wait_ns, one
/// per shard) summed over the traced part of a wire phase: Start() at the
/// first traced send, Finish() after the last reply.
class QueueWaitWindow {
 public:
  void Start() {
    if (started_) return;
    started_ = true;
    Totals(&sum0_, &count0_);
  }
  void Finish(WirePhase* phase) const {
    if (!started_) return;
    double sum = 0.0;
    int64_t count = 0;
    Totals(&sum, &count);
    phase->queue_wait_sum_ns = sum - sum0_;
    phase->queue_wait_count = count - count0_;
  }

 private:
  static void Totals(double* sum, int64_t* count) {
    for (const auto& metric :
         imcf::obs::MetricRegistry::Default().Snapshot()) {
      if (metric.name != "imcf_serve_queue_wait_ns") continue;
      *sum += metric.sum;
      *count += metric.count;
    }
  }

  bool started_ = false;
  double sum0_ = 0.0;
  int64_t count0_ = 0;
};

/// The tenant a plan goes to. Plans pick the dataset uniformly, then a
/// tenant of it (on `connection` when one is given): with one third of
/// plans per dataset the plan-time median sits inside the house cluster
/// instead of on the edge between the flat and house clusters, where it
/// would jump from run to run.
int PlanTarget(const Fleet& fleet, const Arrival& arrival, int connection) {
  const int dataset = static_cast<int>((arrival.arg >> 40) % 3);
  const std::vector<int>& pool =
      connection < 0 ? fleet.readers_by_dataset[dataset]
                     : fleet.readers_on_by_dataset[connection][dataset];
  return pool[static_cast<size_t>(arrival.tenant) % pool.size()];
}

/// The open-loop phase: sends `schedule` on time (or as soon after as the
/// generator can), never dropping a late send.
WirePhase RunOpenLoop(const Fleet& fleet, Stack* stack,
                      const std::vector<Arrival>& schedule, int seconds,
                      bool trace, KeepAwake* awake,
                      std::vector<Record>* records) {
  const int64_t warmup_ns = static_cast<int64_t>(kWarmupSeconds * 1e9);
  const int64_t traced_from_ns = warmup_ns + seconds * kSliceNs / 2;
  records->reserve(schedule.size() + kPlanProbeRequests);
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Arrival& arrival = schedule[i];
    Record record;
    record.arrival = arrival;
    record.config =
        arrival.op == Op::kMrtUpdate
            ? fleet.updaters[static_cast<size_t>(arrival.tenant)]
        : arrival.op == Op::kPlan
            ? PlanTarget(fleet, arrival, -1)
            : fleet.readers[static_cast<size_t>(arrival.tenant)];
    record.request = BuildRequest(fleet, arrival, record.config,
                                  static_cast<int64_t>(i));
    record.measured = arrival.due_ns >= warmup_ns;
    // With tracing, the second half of the measured window carries the
    // generator-side spans; the first half is the untraced reference for
    // bench.trace_overhead_pct.
    record.traced = trace && arrival.due_ns >= traced_from_ns;
    records->push_back(std::move(record));
  }

  WirePhase phase;
  Generator generator(fleet, stack, records);
  std::vector<size_t> completed;
  const int64_t t0 = NowNs() + 2'000'000;
  phase.measure_start_ns = t0 + warmup_ns;
  phase.slices = seconds;
  CpuSlices cpu(phase.measure_start_ns, seconds, awake);
  QueueWaitWindow queue_wait;
  size_t next = 0;
  int64_t last_due = t0;
  while (true) {
    int64_t now = NowNs();
    cpu.Tick(now);
    while (next < records->size() &&
           t0 + (*records)[next].arrival.due_ns <= now) {
      Record& record = (*records)[next];
      record.due_ns = t0 + record.arrival.due_ns;
      if (record.traced) queue_wait.Start();
      phase.late_ms.push_back(static_cast<double>(now - record.due_ns) / 1e6);
      generator.Send(next);
      last_due = record.due_ns;
      ++next;
      now = NowNs();
    }
    generator.Flush();
    const bool all_sent = next == records->size();
    if (all_sent && generator.outstanding() == 0 && cpu.done()) break;
    if (all_sent && now - last_due > kReplyGraceSeconds * 1e9) break;
    int64_t deadline = cpu.done() ? -1 : cpu.next_boundary();
    if (!all_sent) {
      const int64_t due = t0 + (*records)[next].arrival.due_ns;
      deadline = deadline < 0 ? due : std::min(deadline, due);
    }
    completed.clear();
    generator.Poll(deadline, &completed);
  }
  phase.slice_server_cpu_ns = cpu.PerSlice();
  queue_wait.Finish(&phase);
  return phase;
}

/// The closed-loop phase: `kClosedLoopInFlight` plans outstanding per
/// connection for `seconds` after the warm-up; a reply immediately
/// releases the next plan on its connection.
WirePhase RunClosedLoop(const Fleet& fleet, Stack* stack, uint64_t seed,
                        int seconds, bool trace, KeepAwake* awake,
                        std::vector<Record>* records) {
  std::vector<ClosedLoopStream> streams;
  for (int c = 0; c < kConnections; ++c) {
    streams.emplace_back(seed, c,
                         static_cast<int>(fleet.readers_on[c].size()));
  }
  records->reserve(static_cast<size_t>(seconds) * 20000 + 4096);
  WirePhase phase;
  Generator generator(fleet, stack, records);
  const int64_t t0 = NowNs();
  const int64_t warmup_end = t0 + static_cast<int64_t>(kWarmupSeconds * 1e9);
  const int64_t traced_from = warmup_end + seconds * kSliceNs / 2;
  const int64_t end = warmup_end + seconds * kSliceNs;
  phase.measure_start_ns = warmup_end;
  phase.slices = seconds;
  CpuSlices cpu(warmup_end, seconds, awake);
  QueueWaitWindow queue_wait;
  auto send_next = [&](int c, int64_t now) {
    const Arrival arrival = streams[static_cast<size_t>(c)].Next();
    Record record;
    record.arrival = arrival;
    record.arrival.due_ns = now - t0;
    record.config = PlanTarget(fleet, arrival, c);
    record.request = BuildRequest(fleet, arrival, record.config,
                                  static_cast<int64_t>(records->size()));
    record.due_ns = now;
    record.measured = now >= warmup_end;
    record.traced = trace && now >= traced_from;
    if (record.traced) queue_wait.Start();
    records->push_back(std::move(record));
    generator.Send(records->size() - 1);
  };
  for (int c = 0; c < kConnections; ++c) {
    for (int k = 0; k < kClosedLoopInFlight; ++k) send_next(c, t0);
  }
  std::vector<size_t> completed;
  while (true) {
    generator.Flush();
    int64_t now = NowNs();
    cpu.Tick(now);
    if (now >= end && generator.outstanding() == 0) break;
    if (now - end > kReplyGraceSeconds * 1e9) break;
    completed.clear();
    generator.Poll(cpu.done() ? -1 : cpu.next_boundary(), &completed);
    now = NowNs();
    for (size_t index : completed) {
      if (now < end) {
        send_next(ConnectionOf((*records)[index].config), now);
      }
    }
  }
  phase.slice_server_cpu_ns = cpu.PerSlice();
  queue_wait.Finish(&phase);
  return phase;
}

/// Interactive's plan probe: one plan in flight at a time after the
/// window, so plan_p50_ms reads the unloaded plan round trip that mixed's
/// plan_p50_ms is compared against.
void RunPlanProbe(const Fleet& fleet, Stack* stack, uint64_t seed,
                  std::vector<Record>* records) {
  SeqRng rng(seed ^ 0x50524f4245ULL);  // "PROBE"
  int last_batch = 0;
  for (const Record& r : *records) last_batch = std::max(last_batch, r.batch);
  Generator generator(fleet, stack, records, last_batch + 1);
  std::vector<size_t> completed;
  for (int k = 0; k < kPlanProbeRequests; ++k) {
    Arrival arrival;
    arrival.op = Op::kPlan;
    arrival.tenant = static_cast<int>(rng.Below(fleet.readers.size()));
    arrival.arg = rng.Next();
    Record record;
    record.arrival = arrival;
    record.config = PlanTarget(fleet, arrival, -1);
    record.request = BuildRequest(fleet, arrival, record.config,
                                  static_cast<int64_t>(records->size()));
    record.probe = true;
    const int64_t now = NowNs();
    record.due_ns = now;
    records->push_back(std::move(record));
    generator.Send(records->size() - 1);
    generator.Flush();
    const int64_t give_up =
        now + static_cast<int64_t>(kReplyGraceSeconds * 1e9);
    while (generator.outstanding() > 0 && NowNs() < give_up) {
      generator.Poll(-1, &completed);
    }
    if (generator.outstanding() > 0) break;
  }
}

// ---------------------------------------------------------------------------
// Replay and checks.

template <typename T>
bool Same(T a, T b) {
  if constexpr (std::is_same_v<T, double>) {
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
  } else {
    return a == b;
  }
}

struct Checker {
  int64_t mismatches = 0;  ///< replies whose content was wrong

  /// The request did not get its answer (shed, error, lost, unexpected
  /// outcome): it counts as failed and misses every latency limit.
  void Fail(Record* record, const std::string& why) {
    record->failed = true;
    if (record->failure.empty()) record->failure = why;
  }
  /// The reply disagrees with a reference: the output is wrong.
  void Mismatch(Record* record, const std::string& why) {
    if (!record->failed) ++mismatches;
    Fail(record, why);
  }
};

/// Compares the parts of two responses the determinism contract covers.
/// Status-query counters are excluded (they depend on how requests were
/// batched); they are bounded separately.
std::string ResponseDiff(const serve::Response& wire,
                         const serve::Response& replay) {
  if (wire.kind != replay.kind) return "kind differs from replay";
  if (wire.outcome != replay.outcome) {
    return std::string("outcome ") + serve::ServeOutcomeName(wire.outcome) +
           " vs replay " + serve::ServeOutcomeName(replay.outcome);
  }
  switch (wire.kind) {
    case serve::RequestKind::kPlan:
      if (!Same(wire.plan.fce_pct, replay.plan.fce_pct) ||
          !Same(wire.plan.fe_kwh, replay.plan.fe_kwh) ||
          wire.plan.within_budget != replay.plan.within_budget ||
          wire.plan.commands_issued != replay.plan.commands_issued ||
          wire.plan.commands_dropped != replay.plan.commands_dropped) {
        return "plan outcome differs from replay";
      }
      break;
    case serve::RequestKind::kCommand:
      if (wire.command_delivered != replay.command_delivered ||
          wire.command_attempts != replay.command_attempts) {
        return "command delivery differs from replay";
      }
      break;
    case serve::RequestKind::kQuery: {
      const auto& a = wire.context;
      const auto& b = replay.context;
      if (a.fields != b.fields || a.time != b.time || a.season != b.season ||
          a.sky != b.sky || !Same(a.outdoor_temp_c, b.outdoor_temp_c) ||
          !Same(a.daylight, b.daylight) ||
          !Same(a.ambient_temp_c, b.ambient_temp_c) ||
          !Same(a.ambient_light_pct, b.ambient_light_pct) ||
          a.door_open != b.door_open ||
          !Same(wire.tenant_status.budget_kwh,
                replay.tenant_status.budget_kwh) ||
          wire.tenant_status.devices != replay.tenant_status.devices ||
          wire.tenant_status.units != replay.tenant_status.units) {
        return "query answer differs from replay";
      }
      break;
    }
    case serve::RequestKind::kMrtUpdate:
      break;
  }
  return {};
}

/// Per-layer call timings gathered by the traced replay.
struct LayerSamples {
  std::vector<double> request_codec_us;
  std::vector<double> response_codec_us;
  std::vector<double> submit_us;
  std::vector<double> drain_us;
  std::vector<double> requests_per_drain;
  std::vector<DrainSample> timed_drains;
  std::vector<double> inprocess_us;  ///< Submit -> Drain end, traced records
  std::vector<double> slo_evaluate_us;
  std::vector<double> tenant_with_us;
  std::vector<double> run_us[3];  ///< warm EP runs by dataset
  std::vector<double> run_warm_us, run_norule_us, run_cold_us;
  int64_t plan_commands_issued = 0, plan_commands_dropped = 0;
  std::vector<double> mrt_update_us;
  int64_t mrt_rejected = 0;
  std::vector<double> context_filter_us;
  std::vector<double> deliver_us;
  std::vector<double> deliver_attempts;
};

class Replay {
 public:
  Replay(const Fleet& fleet, bool trace, uint64_t seed)
      : fleet_(fleet), trace_(trace), seed_(seed),
        service_(BuildService(fleet)) {
    fault_plan_ = imcf::fault::FaultPlan(service_->options().fault);
  }

  /// Replays `records` in the batches the generator observed and compares
  /// every reply with the replay's answer.
  void Run(std::vector<Record>* records, Checker* checker,
           LayerSamples* samples) {
    // Batches in reply order; records of one batch in send order. Per
    // tenant this is the send order, as on the wire.
    std::vector<size_t> order;
    for (size_t i = 0; i < records->size(); ++i) {
      if ((*records)[i].replied) order.push_back(i);
    }
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return (*records)[a].batch < (*records)[b].batch;
    });
    size_t plans = 0;
    for (const Record& r : *records) plans += r.arrival.op == Op::kPlan;
    const size_t stride =
        plans <= kMaxTimedPlans ? 1 : (plans + kMaxTimedPlans - 1) /
                                          kMaxTimedPlans;
    size_t drain_index = 0;
    for (size_t begin = 0; begin < order.size();) {
      size_t end = begin;
      while (end < order.size() && (*records)[order[end]].batch ==
                                       (*records)[order[begin]].batch) {
        ++end;
      }
      std::vector<size_t> batch(order.begin() + static_cast<long>(begin),
                                order.begin() + static_cast<long>(end));
      ReplayBatch(records, batch, trace_ && drain_index % stride == 0,
                  checker, samples);
      ++drain_index;
      begin = end;
    }
  }

  /// Direct-call checks that need no replay: status fields against the
  /// tenant's prepared simulator, counters against the generator's bounds.
  void CheckStatus(std::vector<Record>* records, Checker* checker) {
    std::vector<int64_t> plans_total(fleet_.configs.size(), 0);
    std::vector<int64_t> commands_total(fleet_.configs.size(), 0);
    for (const Record& r : *records) {
      if (!r.replied || r.reply_type != net::FrameType::kResponse) continue;
      if (r.response.outcome != serve::ServeOutcome::kOk) continue;
      if (r.response.kind == serve::RequestKind::kPlan) {
        ++plans_total[static_cast<size_t>(r.config)];
      }
      if (r.response.kind == serve::RequestKind::kCommand &&
          r.response.command_delivered) {
        ++commands_total[static_cast<size_t>(r.config)];
      }
    }
    for (Record& r : *records) {
      if (!r.replied || r.arrival.op != Op::kStatus || r.failed) continue;
      const serve::TenantStatus& got = r.response.tenant_status;
      double budget = 0.0;
      int devices = 0, units = 0;
      (void)service_->registry().WithTenant(
          r.request.tenant, [&](serve::Tenant& tenant) {
            budget = tenant.simulator().total_budget_kwh();
            devices = static_cast<int>(tenant.simulator().registry().size());
            units = tenant.simulator().options().spec.units;
            return Status::Ok();
          });
      const size_t t = static_cast<size_t>(r.config);
      if (!Same(got.budget_kwh, budget) || got.devices != devices ||
          got.units != units) {
        checker->Mismatch(&r, "status fields differ from the tenant's config");
      } else if (got.plans_served < r.plans_before ||
                 got.plans_served > plans_total[t] ||
                 got.commands_served < r.commands_before ||
                 got.commands_served > commands_total[t]) {
        checker->Mismatch(&r, "status counters out of bounds");
      }
    }
  }

  /// Seeded probe calls for layers the stream exercised fewer than
  /// kMinLayerSamples times, so every traced run reports every layer. Call
  /// it after the checks: its MRT updates change tenants' rule sets.
  void TopUp(LayerSamples* samples) {
    SeqRng rng(seed_ ^ 0x544f505550ULL);  // "TOPUP"
    std::vector<int> by_dataset[3];
    for (int config : fleet_.readers) {
      by_dataset[DatasetIndex(fleet_.configs[static_cast<size_t>(config)]
                                  .dataset)]
          .push_back(config);
    }
    auto probe = [&](int config, Op op) {
      Arrival arrival;
      arrival.op = op;
      arrival.arg = rng.Next();
      const serve::Request request = BuildRequest(
          fleet_, arrival, config, static_cast<int64_t>(rng.Below(80000)));
      (void)service_->registry().WithTenant(
          request.tenant, [&](serve::Tenant& tenant) {
            (void)TimeLayerCall(tenant, request, nullptr, nullptr, samples);
            return Status::Ok();
          });
    };
    for (int d = 0; d < 3; ++d) {
      while (samples->run_us[d].size() < kMinLayerSamples) {
        probe(by_dataset[d][rng.Below(by_dataset[d].size())], Op::kPlan);
      }
    }
    auto any_reader = [&] {
      return fleet_.readers[rng.Below(fleet_.readers.size())];
    };
    while (samples->deliver_us.size() < kMinLayerSamples) {
      probe(any_reader(), Op::kCommand);
    }
    while (samples->context_filter_us.size() < kMinLayerSamples) {
      probe(any_reader(), Op::kContext);
    }
    while (samples->tenant_with_us.size() < kMinLayerSamples) {
      const int64_t t0 = NowNs();
      (void)service_->registry().WithTenant(
          fleet_.configs[static_cast<size_t>(any_reader())].id,
          [](serve::Tenant&) { return Status::Ok(); });
      samples->tenant_with_us.push_back(static_cast<double>(NowNs() - t0) /
                                        1e3);
    }
    // Accepted seed changes on readers: this runs after every check, so
    // the state the checks read is already settled.
    while (samples->mrt_update_us.size() < kMinLayerSamples / 4) {
      const int config = any_reader();
      serve::MrtUpdateRequest update;
      update.seed = 1000 + rng.Below(1'000'000);
      (void)service_->registry().WithTenant(
          fleet_.configs[static_cast<size_t>(config)].id,
          [&](serve::Tenant& tenant) {
            imcf::firewall::conflict::ConflictReport report;
            const int64_t t0 = NowNs();
            (void)service_->registry().ApplyMrtUpdate(tenant, update, &report);
            samples->mrt_update_us.push_back(
                static_cast<double>(NowNs() - t0) / 1e3);
            return Status::Ok();
          });
    }
  }

 private:
  void ReplayBatch(std::vector<Record>* records,
                   const std::vector<size_t>& batch, bool time_children,
                   Checker* checker, LayerSamples* samples) {
    std::map<uint64_t, size_t> by_id;
    std::vector<int64_t> submit_start;
    SimTime now = 0;
    for (size_t index : batch) {
      Record& record = (*records)[index];
      now = std::max(now, record.request.issue_time);
      if (record.arrival.op == Op::kMrtUpdate) {
        ApplyMrtUpdate(&record, checker, samples);
        continue;
      }
      if (trace_ && record.traced) {
        const int64_t t0 = NowNs();
        net::FrameReader reader;
        reader.Feed(record.frame);
        auto frame = reader.Next();
        const bool decoded =
            frame.ok() && frame->has_value() &&
            net::DecodeRequestPayload((**frame).payload).ok();
        const double us = static_cast<double>(NowNs() - t0) / 1e3;
        if (!decoded) checker->Mismatch(&record, "request frame undecodable");
        samples->request_codec_us.push_back(record.encode_us + us);
      }
      uint64_t id = 0;
      const int64_t t0 = NowNs();
      std::optional<serve::Response> immediate =
          service_->Submit(record.request, &id);
      const int64_t t1 = NowNs();
      if (trace_) {
        samples->submit_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      }
      if (immediate.has_value()) {
        checker->Mismatch(&record, "replay rejected the request at admission");
        continue;
      }
      by_id[id] = index;
      submit_start.push_back(record.traced ? t0 : -1);
    }
    if (by_id.empty()) return;
    const int64_t d0 = NowNs();
    std::vector<serve::Response> responses = service_->Drain(now);
    const int64_t d1 = NowNs();
    DrainSample drain;
    if (trace_) {
      drain.drain_us = static_cast<double>(d1 - d0) / 1e3;
      samples->drain_us.push_back(drain.drain_us);
      samples->requests_per_drain.push_back(static_cast<double>(by_id.size()));
      for (int64_t start : submit_start) {
        if (start >= 0) {
          samples->inprocess_us.push_back(static_cast<double>(d1 - start) /
                                          1e3);
        }
      }
      const int64_t e0 = NowNs();
      (void)service_->slo_engine().Evaluate(now);
      samples->slo_evaluate_us.push_back(static_cast<double>(NowNs() - e0) /
                                         1e3);
    }
    for (serve::Response& response : responses) {
      auto it = by_id.find(response.id);
      if (it == by_id.end()) continue;
      Record& record = (*records)[it->second];
      if (trace_ && record.traced) {
        const int64_t t0 = NowNs();
        std::string payload;
        net::EncodeResponsePayload(it->second + 1, response, &payload);
        samples->response_codec_us.push_back(
            static_cast<double>(NowNs() - t0) / 1e3 + record.decode_us);
      }
      if (!record.failed) {
        const std::string diff = ResponseDiff(record.response, response);
        if (!diff.empty()) checker->Mismatch(&record, diff);
      }
      if (time_children) {
        drain.child_us.push_back(TimeChild(&record, checker, samples));
      }
      by_id.erase(it);
    }
    for (const auto& [id, index] : by_id) {
      checker->Mismatch(&(*records)[index], "replay drain lost the request");
    }
    if (time_children) samples->timed_drains.push_back(std::move(drain));
  }

  /// The writer tenants' updates replay as direct registry calls: the
  /// conflict pass is the layer under test, and the outcome must be the
  /// one the generator built the update to produce.
  void ApplyMrtUpdate(Record* record, Checker* checker,
                      LayerSamples* samples) {
    const bool want_reject = record->arrival.arg & 1;
    bool rejected = false;
    Status applied;
    (void)service_->registry().WithTenant(
        record->request.tenant, [&](serve::Tenant& tenant) {
          imcf::firewall::conflict::ConflictReport report;
          const int64_t t0 = NowNs();
          applied = service_->registry().ApplyMrtUpdate(
              tenant, record->request.mrt_update, &report);
          if (trace_) {
            samples->mrt_update_us.push_back(
                static_cast<double>(NowNs() - t0) / 1e3);
          }
          rejected = !applied.ok() && !report.ok();
          return Status::Ok();
        });
    if (rejected) ++samples->mrt_rejected;
    if (!applied.ok() && !rejected) {
      checker->Mismatch(record, "replayed MRT update failed: " +
                                applied.ToString());
      return;
    }
    const serve::ServeOutcome want =
        want_reject ? serve::ServeOutcome::kConflictRejected
                    : serve::ServeOutcome::kOk;
    if (rejected != want_reject || record->response.outcome != want) {
      checker->Mismatch(record, "unexpected conflict outcome");
    }
  }

  /// Times the record's child work (tenant lookup + its layer call) on the
  /// replay fleet and checks the wire reply against the direct result.
  double TimeChild(Record* record, Checker* checker,
                   LayerSamples* samples) {
    int64_t t0 = NowNs();
    (void)service_->registry().WithTenant(
        record->request.tenant, [](serve::Tenant&) { return Status::Ok(); });
    const double with_us = static_cast<double>(NowNs() - t0) / 1e3;
    samples->tenant_with_us.push_back(with_us);
    double work_us = 0.0;
    (void)service_->registry().WithTenant(
        record->request.tenant, [&](serve::Tenant& tenant) {
          work_us = TimeLayerCall(tenant, record->request, record, checker,
                                  samples);
          return Status::Ok();
        });
    return with_us + work_us;
  }

  /// One layer call for `request` on `tenant`, timed. When `record` is
  /// non-null the wire reply is checked against the call's result.
  double TimeLayerCall(serve::Tenant& tenant, const serve::Request& request,
                       Record* record, Checker* checker,
                       LayerSamples* samples) {
    const auto& sim = tenant.simulator();
    if (request.kind == serve::RequestKind::kPlan) {
      // Three runs of one (tenant, rep): warm-arena plan, no-rule run and
      // cold-arena plan. Their order rotates from plan to plan so the
      // first run's cache misses on the tenant's data spread evenly over
      // the three, and the paired differences carry no order bias.
      imcf::Result<imcf::sim::SimulationReport> runs[3] = {
          Status::Internal("not run"), Status::Internal("not run"),
          Status::Internal("not run")};
      double run_us[3] = {0, 0, 0};
      const size_t first = plan_runs_++ % 3;
      for (size_t k = 0; k < 3; ++k) {
        const size_t which = (first + k) % 3;
        imcf::core::PlanArena cold_arena;
        const int64_t t0 = NowNs();
        if (which == 0) {
          runs[0] = sim.Run(request.plan.policy, request.plan.rep, &arena_);
        } else if (which == 1) {
          runs[1] = sim.Run(imcf::sim::Policy::kNoRule, request.plan.rep,
                            &arena_);
        } else {
          runs[2] = sim.Run(request.plan.policy, request.plan.rep,
                            &cold_arena);
        }
        run_us[which] = static_cast<double>(NowNs() - t0) / 1e3;
      }
      CheckOk(runs[0].status(), "replay plan");
      CheckOk(runs[1].status(), "replay no-rule run");
      CheckOk(runs[2].status(), "replay cold plan");
      const auto& warm = runs[0];
      const auto& cold = runs[2];
      const double warm_us = run_us[0];
      samples->run_us[DatasetIndex(tenant.config().dataset)].push_back(
          warm_us);
      samples->run_warm_us.push_back(warm_us);
      samples->run_norule_us.push_back(run_us[1]);
      samples->run_cold_us.push_back(run_us[2]);
      samples->plan_commands_issued += warm->commands_issued;
      samples->plan_commands_dropped += warm->commands_dropped;
      if (record != nullptr) {
        const auto& got = record->response.plan;
        if (!Same(got.fce_pct, warm->fce_pct) ||
            !Same(got.fe_kwh, warm->fe_kwh) ||
            got.commands_issued != warm->commands_issued ||
            got.commands_dropped != warm->commands_dropped ||
            !Same(cold->fe_kwh, warm->fe_kwh)) {
          checker->Mismatch(record,
                            "plan differs from a direct Simulator::Run");
        }
      }
      return warm_us;
    }
    if (request.kind == serve::RequestKind::kCommand) {
      const auto kind =
          request.command.type == imcf::devices::CommandType::kSetLight
              ? imcf::devices::DeviceKind::kLight
              : imcf::devices::DeviceKind::kHvac;
      auto device = sim.registry().FindByUnitAndKind(request.command.unit,
                                                     kind);
      CheckOk(device.status(), "command device");
      imcf::devices::ActuationCommand cmd;
      cmd.device = *device;
      cmd.type = request.command.type;
      cmd.value = request.command.value;
      cmd.time = request.issue_time;
      cmd.source = "serve";
      imcf::fault::CommandBus bus(&fault_plan_, service_->options().retry,
                                  &sim.registry());
      const int64_t t0 = NowNs();
      const imcf::fault::Delivery delivery = bus.Deliver(cmd);
      const double us = static_cast<double>(NowNs() - t0) / 1e3;
      samples->deliver_us.push_back(us);
      samples->deliver_attempts.push_back(delivery.attempts);
      if (record != nullptr &&
          (record->response.command_delivered != delivery.delivered ||
           record->response.command_attempts != delivery.attempts)) {
        checker->Mismatch(record, "command differs from a direct Deliver");
      }
      return us;
    }
    if (request.kind == serve::RequestKind::kQuery &&
        request.query.kind == serve::QueryKind::kContext) {
      const int64_t t0 = NowNs();
      auto raw = sim.ContextAt(request.issue_time, request.query.unit);
      CheckOk(raw.status(), "context");
      const imcf::rules::EvaluationContext filtered =
          imcf::firewall::conflict::FilterContext(*raw,
                                                  tenant.dataflow_policy());
      const double us = static_cast<double>(NowNs() - t0) / 1e3;
      samples->context_filter_us.push_back(us);
      if (record != nullptr) {
        const auto& v = record->response.context;
        if (v.fields != tenant.dataflow_policy().fields ||
            v.time != filtered.time ||
            !Same(v.outdoor_temp_c, filtered.weather.outdoor_temp_c) ||
            !Same(v.ambient_temp_c, filtered.ambient_temp_c) ||
            !Same(v.ambient_light_pct, filtered.ambient_light_pct) ||
            v.door_open != filtered.door_open) {
          checker->Mismatch(record, "context differs from a direct ContextAt");
        }
      }
      return us;
    }
    return 0.0;  // status query: the tenant lookup is the whole child
  }

  const Fleet& fleet_;
  bool trace_;
  uint64_t seed_;
  std::unique_ptr<serve::FleetService> service_;
  imcf::fault::FaultPlan fault_plan_;
  imcf::core::PlanArena arena_;  ///< the warm arena of timed plan runs
  size_t plan_runs_ = 0;
};

/// Reply-level checks every run makes: each sent request got exactly one
/// well-formed reply with its kind, tenant and expected outcome.
void CheckReplies(std::vector<Record>* records, Checker* checker) {
  for (Record& r : *records) {
    if (!r.replied) {
      checker->Fail(&r, "no reply by the end of the run");
      continue;
    }
    if (r.reply_type == net::FrameType::kShed) {
      checker->Fail(&r, "shed");
      continue;
    }
    if (r.reply_type != net::FrameType::kResponse) {
      checker->Fail(&r, "error frame: " + r.response.status.ToString());
      continue;
    }
    if (r.response.kind != r.request.kind ||
        r.response.tenant != r.request.tenant) {
      checker->Mismatch(&r, "reply kind or tenant mismatch");
      continue;
    }
    const serve::ServeOutcome want =
        r.arrival.op == Op::kMrtUpdate && (r.arrival.arg & 1)
            ? serve::ServeOutcome::kConflictRejected
            : serve::ServeOutcome::kOk;
    if (r.response.outcome != want) {
      checker->Fail(&r, std::string("outcome ") +
                            serve::ServeOutcomeName(r.response.outcome));
      continue;
    }
    if (r.response.kind == serve::RequestKind::kPlan &&
        (r.response.plan.commands_dropped < 0 ||
         r.response.plan.commands_dropped > r.response.plan.commands_issued)) {
      checker->Mismatch(&r, "plan drops exceed commands issued");
    }
  }
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    double v = metrics[i].value;
    if (!std::isfinite(v)) v = -1.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!have_workload || args.seconds <= 0) {
    Die("usage: perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1>");
  }
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload workload = WorkloadNamed(args.workload);
  const Fleet fleet = MakeFleet(workload);
  // Nanosecond timer slack for the generator's ppoll deadlines.
  (void)prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  // Set-up, repeated; the last stack serves the run.
  std::vector<double> setup_s, setup_cpu_s;
  std::unique_ptr<Stack> stack;
  for (int k = 0; k < kSetupRepeats; ++k) {
    stack.reset();
    const int64_t t0 = NowNs();
    const int64_t c0 = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
    stack = BuildStack(fleet);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup_cpu_s.push_back(
        static_cast<double>(CpuNs(CLOCK_PROCESS_CPUTIME_ID) - c0) / 1e9);
  }

  std::vector<Record> records;
  WirePhase phase;
  std::unique_ptr<KeepAwake> awake;
  if (workload.open_loop) {
    awake = std::make_unique<KeepAwake>();
    const std::vector<Arrival> schedule = MakeOpenLoopSchedule(
        args.seed, workload.mix, kWarmupSeconds + args.seconds,
        static_cast<int>(fleet.readers.size()),
        static_cast<int>(fleet.updaters.size()));
    phase = RunOpenLoop(fleet, stack.get(), schedule, args.seconds,
                        args.trace, awake.get(), &records);
    if (workload.name == "interactive") {
      RunPlanProbe(fleet, stack.get(), args.seed, &records);
    }
  } else {
    // No spinners on the closed loop: its workers are busy anyway, and
    // spinners on every CPU only add host load, which measurably cost
    // throughput there.
    phase = RunClosedLoop(fleet, stack.get(), args.seed, args.seconds,
                          args.trace, nullptr, &records);
  }
  awake.reset();
  stack.reset();

  // Checks: reply shape, then the in-process replay, then direct calls.
  Checker checker;
  CheckReplies(&records, &checker);
  LayerSamples samples;
  Replay replay(fleet, args.trace, args.seed);
  replay.Run(&records, &checker, &samples);
  replay.CheckStatus(&records, &checker);
  if (args.trace) replay.TopUp(&samples);

  int64_t failed = 0;
  for (const Record& r : records) {
    if (r.failed) {
      if (failed < 5) {
        std::fprintf(stderr, "failed request %s kind=%s: %s\n",
                     r.request.tenant.c_str(),
                     serve::RequestKindName(r.request.kind),
                     r.failure.c_str());
      }
      ++failed;
    }
  }

  // Latency classes. A failed request misses every limit: +inf. Each
  // end-to-end figure is the median over the window's one-second slices
  // of that slice's figure, so a disturbance lasting a second or two moves
  // a few slices, not the result.
  const bool plans_are_latency = !workload.open_loop;
  const size_t slices = static_cast<size_t>(phase.slices);
  auto slice_of = [&](int64_t t) -> long {
    if (t < phase.measure_start_ns) return -1;
    const int64_t k = (t - phase.measure_start_ns) / kSliceNs;
    return k < phase.slices ? static_cast<long>(k) : -1;
  };
  std::vector<std::vector<double>> lat_slices(slices), plan_slices(slices);
  std::vector<double> completed_slices(slices, 0.0);
  double completed = 0.0;
  std::vector<double> lat_ms, lat_untraced_ms, lat_traced_ms, probe_ms;
  for (const Record& r : records) {
    const double ms = r.failed || !r.replied
                          ? INFINITY
                          : Ms(r.recv_ns - r.due_ns);
    if (r.probe) probe_ms.push_back(ms);
    if (r.replied && !r.failed) {
      if (const long k = slice_of(r.recv_ns); k >= 0) {
        completed_slices[static_cast<size_t>(k)] += 1;
        completed += 1;
      }
    }
    const long k = slice_of(r.due_ns);
    if (!r.measured || k < 0) continue;
    if (r.arrival.op == Op::kPlan) {
      plan_slices[static_cast<size_t>(k)].push_back(ms);
    }
    const bool in_class = plans_are_latency ? r.arrival.op == Op::kPlan
                                            : IsInteractiveKind(r.arrival.op);
    if (!in_class) continue;
    lat_slices[static_cast<size_t>(k)].push_back(ms);
    lat_ms.push_back(ms);
    (r.traced ? lat_traced_ms : lat_untraced_ms).push_back(ms);
  }
  for (auto* v : {&lat_ms, &lat_untraced_ms, &lat_traced_ms, &probe_ms}) {
    std::sort(v->begin(), v->end());
  }
  std::vector<double> cpu_per_req;
  for (size_t k = 0; k < phase.slice_server_cpu_ns.size() && k < slices;
       ++k) {
    if (completed_slices[k] > 0) {
      cpu_per_req.push_back(
          static_cast<double>(phase.slice_server_cpu_ns[k]) / 1e3 /
          completed_slices[k]);
    }
  }
  std::vector<double> late = phase.late_ms;
  std::sort(late.begin(), late.end());
  int64_t late_sends = 0;
  for (double l : late) late_sends += l > 1.0;
  const double plan_p50_ms = workload.name == "interactive"
                                 ? Percentile(probe_ms, 50)
                                 : SliceMedian(plan_slices, 50);

  // Human-readable summary (stdout lines before the JSON result).
  std::printf("workload=%s seed=%llu seconds=%d trace=%d tenants=%zu\n",
              workload.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, fleet.configs.size());
  std::printf("latency samples=%zu pooled p50=%.4f ms p90=%.4f ms",
              lat_ms.size(), Percentile(lat_ms, 50), Percentile(lat_ms, 90));
  if (auto q = HighestQuotablePercentile(lat_ms.size()); q && *q > 90) {
    std::printf(" p%g=%.4f ms (>=10 samples beyond)", *q,
                Percentile(lat_ms, *q));
  }
  std::printf("\nslice p50 ms:");
  for (std::vector<double> slice : lat_slices) {
    std::sort(slice.begin(), slice.end());
    if (!slice.empty()) std::printf(" %.3f", Percentile(slice, 50));
  }
  std::printf("\nset-up s:");
  for (double v : setup_s) std::printf(" %.4f", v);
  std::printf(" (cpu s:");
  for (double v : setup_cpu_s) std::printf(" %.4f", v);
  std::printf(")\n");
  if (!late.empty()) {
    std::printf("generator late: p99=%.4f ms max=%.4f ms sent>1ms late=%lld "
                "of %zu\n",
                Percentile(late, 99), late.back(),
                static_cast<long long>(late_sends), late.size());
  }
  std::printf("checks: %lld mismatched of %zu sent\n",
              static_cast<long long>(checker.mismatches), records.size());

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"p50_ms", SliceMedian(lat_slices, 50), "ms"},
        {"p90_ms", SliceMedian(lat_slices, 90), "ms"},
        {"plan_p50_ms", plan_p50_ms, "ms"},
        {"completed_per_s", completed / static_cast<double>(slices), "1/s"},
        {"cpu_us_per_req", Median(cpu_per_req), "us"},
        {"setup_s", Median(setup_s), "s"},
    };
  } else {
    const double wire_p50_us = Percentile(lat_traced_ms, 50) * 1e3;
    const std::vector<double> drain_self =
        DrainSelfUs(samples.timed_drains, kWorkers);
    const double untraced_p50 = Percentile(lat_untraced_ms, 50);
    metrics = {
        {"net.request_codec_us", Median(samples.request_codec_us), "us"},
        {"net.response_codec_us", Median(samples.response_codec_us), "us"},
        {"net.transport_us",
         TransportUs(wire_p50_us, Median(samples.inprocess_us)), "us"},
        {"serve.submit_us", Median(samples.submit_us), "us"},
        {"serve.drain_us", Median(samples.drain_us), "us"},
        {"serve.requests_per_drain", Mean(samples.requests_per_drain),
         "count"},
        {"serve.drain_self_us", Median(drain_self), "us"},
        {"serve.tenant_with_us", Median(samples.tenant_with_us), "us"},
        {"serve.queue_wait_us",
         phase.queue_wait_count > 0
             ? phase.queue_wait_sum_ns / 1e3 /
                   static_cast<double>(phase.queue_wait_count)
             : 0.0,
         "us"},
        {"obs.slo_evaluate_us", Median(samples.slo_evaluate_us), "us"},
        {"sim.run_us.flat", Median(samples.run_us[0]), "us"},
        {"sim.run_us.house", Median(samples.run_us[1]), "us"},
        {"sim.run_us.dorms", Median(samples.run_us[2]), "us"},
        {"core.plan_us",
         MeanPairedDifference(samples.run_warm_us, samples.run_norule_us),
         "us"},
        {"core.arena_cold_us",
         MeanPairedDifference(samples.run_cold_us, samples.run_warm_us),
         "us"},
        {"firewall.drop_ratio",
         samples.plan_commands_issued > 0
             ? static_cast<double>(samples.plan_commands_dropped) /
                   static_cast<double>(samples.plan_commands_issued)
             : 0.0,
         "ratio"},
        {"firewall.mrt_update_us", Median(samples.mrt_update_us), "us"},
        {"firewall.mrt_rejected", static_cast<double>(samples.mrt_rejected),
         "count"},
        {"firewall.context_filter_us", Median(samples.context_filter_us),
         "us"},
        {"fault.deliver_us", Median(samples.deliver_us), "us"},
        {"fault.attempts_per_command", Mean(samples.deliver_attempts),
         "count"},
        {"bench.generator_late_ms", Percentile(late, 99), "ms"},
        {"bench.generator_late_max_ms", late.empty() ? 0.0 : late.back(),
         "ms"},
        {"bench.late_sends", static_cast<double>(late_sends), "count"},
        {"bench.trace_overhead_pct",
         untraced_p50 > 0
             ? (Percentile(lat_traced_ms, 50) / untraced_p50 - 1.0) * 100.0
             : 0.0,
         "%"},
    };
  }
  PrintResult(checker.mismatches == 0,
              static_cast<int64_t>(records.size()), failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
