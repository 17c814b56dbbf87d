// Wire front-door throughput: framed query traffic over loopback TCP.
//
// Boots a FleetService behind the epoll WireServer on an ephemeral port,
// then drives it with {1, 4, 16, 64} concurrent client connections, each
// pipelining a window of query requests (the cheap deterministic kind —
// this measures the transport, not the planner). Reports frames/sec
// through the single epoll thread. It reports no latency: the loop is
// closed with a 32-deep window per connection, so a round trip here mostly
// measures the bench's own queue. Wire latency comes from the open-loop
// `perfbench` workloads (`interactive`, `mixed`).
//
// Every reply is checked: a non-kOk outcome or a shed (impossible at the
// configured queue capacity) fails the bench. Timing columns are
// measurements; the frames_total column is exact.

#include <cstdio>
#include <set>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/strings.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/tracer.h"
#include "serve/fleet_service.h"
#include "trace/dataset.h"

namespace imcf {
namespace {

constexpr int kTenants = 8;
constexpr int kWindow = 32;  ///< pipelined requests in flight per connection

serve::Request QueryReq(int tenant_index) {
  serve::Request request;
  request.tenant = StrFormat("home%03d", tenant_index);
  request.kind = serve::RequestKind::kQuery;
  request.issue_time = trace::EvaluationStart();
  return request;
}

struct SweepResult {
  double frames_per_sec = 0.0;
  int64_t frames = 0;
};

/// One client connection's closed-window pipelined load loop. Sets
/// `*received` to the replies it got; dies on any non-kOk reply.
void DriveConnection(net::WireClient* client, int tenant_index, int frames,
                     int64_t* received) {
  std::set<uint64_t> outstanding;
  int sent = 0;
  while (*received < frames) {
    while (sent < frames && sent - *received < kWindow) {
      auto id = client->Send(QueryReq(tenant_index));
      bench::CheckOk(id.status());
      outstanding.insert(*id);
      ++sent;
    }
    auto reply = client->Receive();
    bench::CheckOk(reply.status());
    if (outstanding.erase(reply->client_id) == 0 ||
        reply->response.outcome != serve::ServeOutcome::kOk) {
      std::fprintf(stderr, "bad reply: id=%llu outcome=%s\n",
                   static_cast<unsigned long long>(reply->client_id),
                   serve::ServeOutcomeName(reply->response.outcome));
      std::exit(1);
    }
    ++*received;
  }
}

SweepResult RunSweep(int port, int connections, int frames_per_connection) {
  // Connect everyone before the clock starts: this measures serving, not
  // handshakes.
  std::vector<std::unique_ptr<net::WireClient>> clients;
  for (int i = 0; i < connections; ++i) {
    auto client = net::WireClient::Connect(port);
    bench::CheckOk(client.status());
    clients.push_back(std::move(*client));
  }

  std::vector<int64_t> received(static_cast<size_t>(connections), 0);
  const int64_t t0 = obs::NowNs();
  std::vector<std::thread> threads;
  for (int i = 0; i < connections; ++i) {
    threads.emplace_back(DriveConnection, clients[i].get(), i % kTenants,
                         frames_per_connection, &received[i]);
  }
  for (std::thread& t : threads) t.join();
  const int64_t elapsed_ns = obs::NowNs() - t0;

  SweepResult result;
  for (int64_t frames : received) result.frames += frames;
  result.frames_per_sec = static_cast<double>(result.frames) /
                          (static_cast<double>(elapsed_ns) / 1e9);
  return result;
}

}  // namespace
}  // namespace imcf

int main() {
  using namespace imcf;
  bench::PrintHeader("Wire front-door throughput",
                     "network front door (ISSUE 10); not a paper figure");
  bench::Report report("wire_throughput");

  serve::FleetOptions options;
  options.shards = 8;
  // Far above the worst-case in-flight load (64 conns x 32 window): the
  // bench measures transport throughput, never admission shedding.
  options.queue_capacity = 16384;
  auto service = serve::FleetService::Create(options);
  bench::CheckOk(service.status());
  for (int i = 0; i < kTenants; ++i) {
    serve::TenantConfig config;
    config.id = StrFormat("home%03d", i);
    config.hours = 24;
    bench::CheckOk((*service)->AddTenant(config));
  }

  net::WireServerOptions server_options;
  server_options.epoll_wait_ms = 1;  // tight drain cadence
  auto server = net::WireServer::Start(service->get(), server_options);
  bench::CheckOk(server.status());

  const int frames_per_connection = bench::QuickMode() ? 400 : 2000;
  const std::vector<int> connection_counts = {1, 4, 16, 64};

  std::printf("%-18s %14s %12s\n", "cell", "frames/sec", "frames");
  for (int connections : connection_counts) {
    const SweepResult sweep =
        RunSweep((*server)->port(), connections, frames_per_connection);
    const std::string row = StrFormat("connections=%d", connections);
    std::printf(
        "%-18s %14s %12s\n", row.c_str(),
        report.Scalar("throughput", row, "frames_per_sec",
                      sweep.frames_per_sec, 0)
            .c_str(),
        report.Scalar("volume", row, "frames_total",
                      static_cast<double>(sweep.frames), 0)
            .c_str());
  }

  server.value()->Stop();
  report.WriteIfRequested();
  return 0;
}
