// Serving-layer tracing: the span-tree extension of the fleet determinism
// contract. Every drained request leaves one trace rooted at its submit
// span, and the canonical rendering (wall stamps, raw ids and thread
// indices masked) is bit-identical at 1, 4 and 8 workers — including
// fault-injected retry events and planted deadline expiries. Also covers
// the on-demand Perfetto dump and the shed-spike auto-dump.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "obs/flight_recorder.h"
#include "obs/trace_export.h"
#include "obs/tracer.h"
#include "serve/fleet_service.h"
#include "trace/dataset.h"

namespace imcf {
namespace serve {
namespace {

constexpr int kTenants = 4;
constexpr int kPlansPerTenant = 2;

TenantConfig ConfigAt(int index) {
  TenantConfig config;
  config.id = StrFormat("t%d", index);
  config.seed = 100 + static_cast<uint64_t>(index);
  config.hours = 24;
  config.appetite = 0.8 + 0.1 * index;
  return config;
}

/// Runs the reference workload at `workers` and returns the canonical
/// rendering of every span the run recorded. Clear() is safe here: the
/// previous service (and its worker threads) is destroyed before the next
/// run starts.
std::string CanonicalAt(int workers) {
  obs::FlightRecorder::Default().Clear();
  FleetOptions options;
  options.shards = 4;
  options.workers = workers;
  options.queue_capacity = kTenants * kPlansPerTenant + 4;
  // Fault injection on: retry/undeliverable bus events must replay too.
  options.fault = fault::FaultOptions::UniformRate(0.2, /*seed=*/7);
  auto service = FleetService::Create(options);
  EXPECT_TRUE(service.ok());
  for (int i = 0; i < kTenants; ++i) {
    EXPECT_TRUE((*service)->AddTenant(ConfigAt(i)).ok());
  }
  const SimTime start = trace::EvaluationStart();
  for (int rep = 0; rep < kPlansPerTenant; ++rep) {
    for (int i = 0; i < kTenants; ++i) {
      Request request;
      request.tenant = StrFormat("t%d", i);
      request.kind = RequestKind::kPlan;
      request.issue_time = start;
      // One planted expiry so the deadline path is part of the tree.
      if (rep == 1 && i == 0) request.deadline = start + 1;
      request.plan.policy = sim::Policy::kEnergyPlanner;
      request.plan.rep = rep;
      EXPECT_FALSE((*service)->Submit(std::move(request)).has_value());
    }
  }
  (void)(*service)->Drain(start + kSecondsPerHour);
  return obs::CanonicalTraceText(obs::FlightRecorder::Default().Snapshot());
}

TEST(FleetTraceTest, CanonicalSpanTreesIdenticalAtOneFourEightWorkers) {
  const std::string serial = CanonicalAt(1);
  // The serial tree must show real structure before comparing: request
  // roots, the enqueue->drain handoff, planner search and the planted
  // deadline expiry.
  EXPECT_NE(serial.find("serve.submit [serve]"), std::string::npos);
  EXPECT_NE(serial.find("serve.execute [serve]"), std::string::npos);
  EXPECT_NE(serial.find("tenant.with [serve]"), std::string::npos);
  EXPECT_NE(serial.find("sim.run [sim]"), std::string::npos);
  EXPECT_NE(serial.find("ep.search [core]"), std::string::npos);
  EXPECT_NE(serial.find("\"deadline_exceeded\""), std::string::npos);

  EXPECT_EQ(CanonicalAt(4), serial);
  EXPECT_EQ(CanonicalAt(8), serial);
}

TEST(FleetTraceTest, DumpTraceWritesPerfettoLoadableJson) {
  obs::FlightRecorder::Default().Clear();
  FleetOptions options;
  options.workers = 2;
  options.queue_capacity = 8;
  auto service = FleetService::Create(options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->AddTenant(ConfigAt(0)).ok());
  Request request;
  request.tenant = "t0";
  request.kind = RequestKind::kPlan;
  request.issue_time = trace::EvaluationStart();
  request.plan.policy = sim::Policy::kEnergyPlanner;
  EXPECT_FALSE((*service)->Submit(std::move(request)).has_value());
  (void)(*service)->Drain(trace::EvaluationStart() + kSecondsPerHour);

  const std::string path = ::testing::TempDir() + "fleet_trace_dump.json";
  ASSERT_TRUE((*service)->DumpTrace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream body;
  body << in.rdbuf();
  EXPECT_EQ(body.str().rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(body.str().find("\"serve.execute\""), std::string::npos);
  EXPECT_NE(body.str().find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(FleetTraceTest, ShedSpikeTriggersAutoDump) {
  obs::FlightRecorder::Default().Clear();
  FleetOptions options;
  options.shards = 1;
  options.workers = 1;
  options.queue_capacity = 1;  // everything beyond one request sheds
  options.trace_dump_dir = ::testing::TempDir();
  options.spike_dump_threshold = 2;
  auto service = FleetService::Create(options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->AddTenant(ConfigAt(0)).ok());
  int shed = 0;
  for (int i = 0; i < 6; ++i) {
    Request request;
    request.tenant = "t0";
    request.kind = RequestKind::kQuery;
    request.issue_time = trace::EvaluationStart();
    auto immediate = (*service)->Submit(std::move(request));
    if (immediate.has_value() &&
        immediate->outcome == ServeOutcome::kShed) {
      ++shed;
    }
  }
  ASSERT_GE(shed, 2);
  (void)(*service)->Drain(trace::EvaluationStart());

  const std::string path = ::testing::TempDir() + "trace_spike_0.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "expected spike dump at " << path;
  std::stringstream body;
  body << in.rdbuf();
  EXPECT_EQ(body.str().rfind("{\"traceEvents\":[", 0), 0u);
  std::remove(path.c_str());
}

TEST(FleetTraceTest, SlowRequestLoggingDoesNotDisturbResponses) {
  obs::FlightRecorder::Default().Clear();
  FleetOptions options;
  options.workers = 2;
  options.queue_capacity = 8;
  options.slow_request_wall_ns = 1;  // every request is an outlier
  auto service = FleetService::Create(options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->AddTenant(ConfigAt(0)).ok());
  for (int rep = 0; rep < 2; ++rep) {
    Request request;
    request.tenant = "t0";
    request.kind = RequestKind::kPlan;
    request.issue_time = trace::EvaluationStart();
    request.plan.policy = sim::Policy::kMetaRule;
    request.plan.rep = rep;
    EXPECT_FALSE((*service)->Submit(std::move(request)).has_value());
  }
  const std::vector<Response> responses =
      (*service)->Drain(trace::EvaluationStart() + kSecondsPerHour);
  ASSERT_EQ(responses.size(), 2u);
  for (const Response& response : responses) {
    EXPECT_EQ(response.outcome, ServeOutcome::kOk);
    EXPECT_TRUE(response.status.ok());
  }
}

}  // namespace
}  // namespace serve
}  // namespace imcf
