// Tracer + flight recorder + exporters + span sinks.
//
// The Perfetto golden is byte-exact over hand-built SpanRecords (the
// exporter sorts by wall start, formats doubles with %.15g); the live-span
// tests exercise the TLS ambient stack, cross-thread handoff, the
// recorder's wraparound and concurrent snapshots, filtering the shared
// Default() recorder by test-unique trace ids. TracerSinkTest covers the
// span as the one timing primitive: histograms, the F_T accumulator, the
// sim-seconds stamp and the phase self-time rule.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/accounting/cost_ledger.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"
#include "obs/tracer.h"

namespace imcf {
namespace obs {
namespace {

SpanRecord MakeRecord(uint64_t trace_id, uint64_t span_id, uint64_t parent,
                      const char* name, const char* category) {
  SpanRecord r;
  r.trace_id = trace_id;
  r.span_id = span_id;
  r.parent_span_id = parent;
  r.name = name;
  r.category = category;
  return r;
}

/// Spins until the wall clock has moved `ns` past now, so timed spans in
/// these tests have non-trivial durations.
void SpinNs(int64_t ns) {
  for (const int64_t until = NowNs() + ns; NowNs() < until;) {
  }
}

/// Record `i` of the concurrent-snapshot test: the first, a middle and
/// the last payload field the recorder stores are all derived from i.
SpanRecord Derived(uint64_t i) {
  SpanRecord r = MakeRecord(i, i * 3, 0, "s", "test");
  r.sim_end = static_cast<int64_t>(i * 11);
  std::snprintf(r.detail, sizeof(r.detail), "%llu",
                static_cast<unsigned long long>(i));
  return r;
}

TEST(TraceExportTest, PerfettoJsonGolden) {
  SpanRecord root = MakeRecord(0xab, 1, 0, "serve.execute", "serve");
  root.wall_start_ns = 1000;
  root.wall_end_ns = 3500;
  root.sim_start = 100;
  root.sim_end = 160;
  root.arg_name = "rep";
  root.arg_value = 2;
  std::strcpy(root.detail, "plan");

  SpanRecord drop = MakeRecord(0xab, 2, 1, "fw.drop", "firewall");
  drop.wall_start_ns = 2000;
  drop.wall_end_ns = 2000;  // instant event
  drop.thread_index = 1;
  drop.arg_name = "rule";
  drop.arg_value = 7;
  std::strcpy(drop.detail, "quiet-hours");

  // Deliberately out of wall order: the exporter sorts.
  EXPECT_EQ(
      TraceEventJson({drop, root}),
      "{\"traceEvents\":["
      "{\"name\":\"serve.execute\",\"cat\":\"serve\",\"ph\":\"X\","
      "\"ts\":1,\"dur\":2.5,\"pid\":1,\"tid\":0,"
      "\"args\":{\"trace_id\":\"0xab\",\"span_id\":\"0x1\","
      "\"sim_start\":100,\"sim_end\":160,\"rep\":2,\"detail\":\"plan\"}},"
      "{\"name\":\"fw.drop\",\"cat\":\"firewall\",\"ph\":\"i\","
      "\"ts\":2,\"s\":\"t\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"trace_id\":\"0xab\",\"span_id\":\"0x2\","
      "\"parent_span_id\":\"0x1\",\"rule\":7,"
      "\"detail\":\"quiet-hours\"}}"
      "],\"displayTimeUnit\":\"ms\"}");
}

TEST(TraceExportTest, CanonicalTextMasksMeasurementsAndIndentsChildren) {
  SpanRecord run = MakeRecord(0x2, 10, 0, "sim.run", "sim");
  run.sim_start = 0;
  run.sim_end = 3600;
  run.wall_start_ns = 555;  // masked
  std::strcpy(run.detail, "EP");
  SpanRecord slot1 = MakeRecord(0x2, 11, 10, "plan.slot", "sim");
  slot1.sim_start = 0;
  slot1.sim_end = 1800;
  SpanRecord search = MakeRecord(0x2, 13, 11, "ep.search", "core");
  search.arg_name = "iterations";
  search.arg_value = 5;
  SpanRecord slot2 = MakeRecord(0x2, 12, 10, "plan.slot", "sim");
  slot2.sim_start = 1800;
  slot2.sim_end = 3600;

  EXPECT_EQ(CanonicalTraceText({search, slot2, run, slot1}),
            "trace 0x2\n"
            "  sim.run [sim] sim=[0..3600] \"EP\"\n"
            "    plan.slot [sim] sim=[0..1800]\n"
            "      ep.search [core] iterations=5\n"
            "    plan.slot [sim] sim=[1800..3600]\n");
}

TEST(TraceExportTest, OrphanedSubtreeRootsItself) {
  // Parent span 999 was overwritten in the ring: the child still renders,
  // promoted to a root of its trace.
  SpanRecord orphan = MakeRecord(0x3, 20, 999, "ep.search", "core");
  EXPECT_EQ(CanonicalTraceText({orphan}),
            "trace 0x3\n"
            "  ep.search [core]\n");
}

TEST(TraceExportTest, CompactLineCollapsesIdenticalSiblingRuns) {
  SpanRecord root = MakeRecord(0x9, 1, 0, "serve.execute", "serve");
  std::strcpy(root.detail, "plan");
  std::vector<SpanRecord> records = {root};
  for (uint64_t i = 0; i < 3; ++i) {
    records.push_back(MakeRecord(0x9, 2 + i, 1, "plan.slot", "sim"));
  }
  SpanRecord search = MakeRecord(0x9, 5, 1, "ep.search", "core");
  std::strcpy(search.detail, "early_exit");
  records.push_back(search);
  // A record from another trace must not leak in.
  records.push_back(MakeRecord(0x7, 6, 0, "noise", "test"));

  EXPECT_EQ(CompactTraceLine(records, 0x9),
            "serve.execute(plan){plan.slot x3,ep.search(early_exit)}");
  EXPECT_EQ(CompactTraceLine(records, 0x1234), "");
}

TEST(TraceExportTest, ThreadNameMetadataEventsLeadTheStream) {
  // Records whose snapshot carried a thread name emit one Chrome metadata
  // event (ph "M") per lane, ahead of the span events, so Perfetto labels
  // the lane "pool-1" instead of a bare tid.
  SpanRecord root = MakeRecord(0xab, 1, 0, "serve.execute", "serve");
  root.wall_start_ns = 1000;
  root.wall_end_ns = 2000;
  root.thread_index = 1;
  root.thread_name = "pool-1";
  const std::string json = TraceEventJson({root});
  const size_t meta = json.find(
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"pool-1\"}}");
  const size_t span = json.find("\"name\":\"serve.execute\"");
  ASSERT_NE(meta, std::string::npos) << json;
  ASSERT_NE(span, std::string::npos) << json;
  EXPECT_LT(meta, span);
}

TEST(TraceExportTest, UnnamedThreadsEmitNoMetadata) {
  // The golden above stays byte-exact because nameless records add nothing.
  SpanRecord root = MakeRecord(0xab, 1, 0, "serve.execute", "serve");
  root.wall_start_ns = 1000;
  root.wall_end_ns = 2000;
  EXPECT_EQ(TraceEventJson({root}).find("\"ph\":\"M\""), std::string::npos);
}

TEST(FlightRecorderTest, ThreadNamesFlowIntoSnapshots) {
  FlightRecorder recorder(64);
  recorder.SetCurrentThreadName("drain");
  recorder.Record(MakeRecord(0x5, 1, 0, "s", "test"));
  const std::vector<SpanRecord> snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].thread_name, "drain");
  const std::vector<std::string> names = recorder.thread_names();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "drain");

  // Renaming is idempotent per thread: the ring keeps the latest name.
  recorder.SetCurrentThreadName("drain-2");
  EXPECT_EQ(recorder.Snapshot()[0].thread_name, "drain-2");
  EXPECT_EQ(recorder.ring_count(), 1u);
}

TEST(FlightRecorderTest, WraparoundKeepsNewestCapacitySpans) {
  FlightRecorder recorder(64);  // the smallest ring the clamp allows
  EXPECT_EQ(recorder.capacity(), 64u);
  for (uint64_t i = 1; i <= 150; ++i) {
    recorder.Record(MakeRecord(0x1, i, 0, "s", "test"));
  }
  EXPECT_EQ(recorder.total_recorded(), 150);
  EXPECT_EQ(recorder.ring_count(), 1u);
  const std::vector<SpanRecord> snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 64u);
  // Oldest-first within the ring: spans 87..150 survive, 1..86 were
  // overwritten.
  for (size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_EQ(snapshot[i].span_id, 87 + i);
  }
  recorder.Clear();
  EXPECT_TRUE(recorder.Snapshot().empty());
}

TEST(FlightRecorderTest, CapacityClampsAndRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(100).capacity(), 128u);  // round up
  EXPECT_EQ(FlightRecorder(10).capacity(), 64u);    // clamp to minimum
  EXPECT_EQ(FlightRecorder(0).capacity(), 8192u);   // default
}

TEST(TracerTest, SpanWithoutAmbientContextIsInert) {
  const int64_t before = FlightRecorder::Default().total_recorded();
  {
    ScopedSpan span("test.orphan", "test");
    EXPECT_FALSE(span.active());
    EXPECT_FALSE(span.context().valid());
  }
  EXPECT_EQ(FlightRecorder::Default().total_recorded(), before);
}

TEST(TracerTest, AmbientNestingLinksChildToInnermostSpan) {
  constexpr uint64_t kTrace = 0xa111;
  uint64_t root_id = 0;
  uint64_t child_id = 0;
  {
    ScopedSpan root("test.root", "test", Tracer::Root(kTrace));
    ASSERT_TRUE(root.active());
    root.SimSpan(10, 20);
    root.Arg("n", 1);
    root_id = root.context().span_id;
    EXPECT_EQ(Tracer::Current().span_id, root_id);
    {
      ScopedSpan child("test.child", "test");
      ASSERT_TRUE(child.active());
      child.Detail("leaf");
      child_id = child.context().span_id;
      EXPECT_EQ(child.context().trace_id, kTrace);
    }
    EXPECT_EQ(Tracer::Current().span_id, root_id);
  }
  EXPECT_FALSE(Tracer::Current().valid());
  EXPECT_GT(child_id, root_id);  // span ids are creation-ordered

  int found = 0;
  for (const SpanRecord& r : FlightRecorder::Default().Snapshot()) {
    if (r.trace_id != kTrace) continue;
    ++found;
    if (r.span_id == child_id) {
      EXPECT_EQ(r.parent_span_id, root_id);
      EXPECT_STREQ(r.detail, "leaf");
    } else {
      EXPECT_EQ(r.span_id, root_id);
      EXPECT_EQ(r.parent_span_id, 0u);
      EXPECT_EQ(r.sim_start, 10);
      EXPECT_EQ(r.sim_end, 20);
      EXPECT_GE(r.wall_end_ns, r.wall_start_ns);
    }
  }
  EXPECT_EQ(found, 2);
}

TEST(TracerTest, ExplicitContextCrossesThreads) {
  constexpr uint64_t kTrace = 0xa222;
  TraceContext handoff;
  uint64_t submit_id = 0;
  {
    ScopedSpan submit("test.submit", "test", Tracer::Root(kTrace));
    submit_id = submit.context().span_id;
    handoff = submit.context();
  }
  std::thread worker([handoff] {
    ScopedSpan execute("test.execute", "test", handoff);
    EXPECT_TRUE(execute.active());
    ScopedSpan inner("test.inner", "test");  // ambient works on the worker
    EXPECT_EQ(inner.context().trace_id, handoff.trace_id);
  });
  worker.join();

  int found = 0;
  for (const SpanRecord& r : FlightRecorder::Default().Snapshot()) {
    if (r.trace_id != kTrace) continue;
    ++found;
    if (std::string(r.name) == "test.execute") {
      EXPECT_EQ(r.parent_span_id, submit_id);
    }
  }
  EXPECT_EQ(found, 3);
}

TEST(TracerTest, TraceEventRecordsInstantUnderAmbient) {
  constexpr uint64_t kTrace = 0xa333;
  {
    ScopedSpan root("test.root", "test", Tracer::Root(kTrace));
    TraceEvent("test.event", "test", "why", "rule", 42);
  }
  bool seen = false;
  for (const SpanRecord& r : FlightRecorder::Default().Snapshot()) {
    if (r.trace_id != kTrace || std::string(r.name) != "test.event") continue;
    seen = true;
    EXPECT_EQ(r.wall_start_ns, r.wall_end_ns);
    EXPECT_STREQ(r.detail, "why");
    EXPECT_STREQ(r.arg_name, "rule");
    EXPECT_EQ(r.arg_value, 42);
  }
  EXPECT_TRUE(seen);

  // Without an ambient span the event is dropped, not a stray root.
  const int64_t before = FlightRecorder::Default().total_recorded();
  TraceEvent("test.dropped", "test");
  EXPECT_EQ(FlightRecorder::Default().total_recorded(), before);
}

TEST(TracerTest, DetailTruncatesAndExtraArgsAreDropped) {
  constexpr uint64_t kTrace = 0xa444;
  const std::string long_text(100, 'x');
  {
    ScopedSpan span("test.root", "test", Tracer::Root(kTrace));
    span.Detail(long_text);
    span.Arg("a", 1);
    span.Arg("b", 2);
    span.Arg("c", 3);  // dropped: first two win
  }
  for (const SpanRecord& r : FlightRecorder::Default().Snapshot()) {
    if (r.trace_id != kTrace) continue;
    EXPECT_EQ(std::string(r.detail), std::string(kSpanDetailBytes - 1, 'x'));
    EXPECT_STREQ(r.arg_name, "a");
    EXPECT_STREQ(r.arg2_name, "b");
    EXPECT_EQ(r.arg2_value, 2);
  }
}

TEST(FlightRecorderTest, ConcurrentSnapshotsSeeWholeRecords) {
  // A torn copy (payload from two different writes) disagrees with
  // Derived(trace_id). The ring is small so the writer laps the reader.
  FlightRecorder recorder(64);
  std::atomic<bool> done{false};
  std::thread writer([&recorder, &done] {
    for (uint64_t i = 1; i <= 200000; ++i) recorder.Record(Derived(i));
    done.store(true);
  });
  int64_t checked = 0;
  int64_t torn = 0;
  while (!done.load()) {
    for (const SpanRecord& r : recorder.Snapshot()) {
      const SpanRecord want = Derived(r.trace_id);
      torn += r.span_id != want.span_id || r.sim_end != want.sim_end ||
              std::strcmp(r.detail, want.detail) != 0;
      ++checked;
    }
  }
  writer.join();
  EXPECT_EQ(torn, 0) << "of " << checked << " records read concurrently";
}

// Writer threads that run one after another share one ring: each exiting
// thread retires its ring and the next new writer reuses it. A retired
// ring's spans stay readable, under the reusing thread's name.
TEST(FlightRecorderTest, RingsAreReusedAfterWriterThreadsExit) {
  constexpr uint64_t kTraceBase = 0x7e5e0000;
  FlightRecorder& recorder = FlightRecorder::Default();
  const size_t before = recorder.ring_count();
  for (int t = 0; t < 128; ++t) {
    std::thread writer([t] {
      FlightRecorder::Default().SetCurrentThreadName(
          "writer-" + std::to_string(t));
      ScopedSpan span("test.reuse", "test",
                      Tracer::Root(kTraceBase + static_cast<uint64_t>(t)));
    });
    writer.join();
  }
  EXPECT_LE(recorder.ring_count(), before + 2);

  std::map<uint64_t, std::string> writer_of;
  for (const SpanRecord& r : recorder.Snapshot()) {
    if (r.trace_id >= kTraceBase && r.trace_id < kTraceBase + 128) {
      writer_of[r.trace_id] = r.thread_name;
    }
  }
  ASSERT_TRUE(writer_of.count(kTraceBase)) << "first writer's span is gone";
  EXPECT_EQ(writer_of[kTraceBase], writer_of[kTraceBase + 127]);
  EXPECT_EQ(writer_of[kTraceBase + 127], "writer-127");

  // A recorder destroyed while its writer thread still runs: the thread's
  // exit must retire the ring without touching the dead recorder.
  std::atomic<int> phase{0};
  auto local = std::make_unique<FlightRecorder>(64);
  std::thread writer([&local, &phase] {
    local->Record(MakeRecord(0x1, 1, 0, "s", "test"));
    phase.store(1);
    while (phase.load() != 2) std::this_thread::yield();
  });
  while (phase.load() != 1) std::this_thread::yield();
  local.reset();
  phase.store(2);
  writer.join();
}

TEST(TracerTest, OverflowSpanDoesNotPopParentFrame) {
  // Fill the 32-deep ambient stack, then open and close one span past it:
  // the overflow span never pushed, so it must not pop its parent's frame.
  std::vector<std::unique_ptr<ScopedSpan>> open;
  open.push_back(std::make_unique<ScopedSpan>("test.root", "test",
                                              Tracer::Root(0xa555)));
  while (open.size() < 32) {
    open.push_back(std::make_unique<ScopedSpan>("test.nested", "test"));
  }
  const uint64_t innermost = open.back()->context().span_id;
  { ScopedSpan overflow("test.overflow", "test"); }
  EXPECT_EQ(Tracer::Current().span_id, innermost);
  while (!open.empty()) open.pop_back();  // LIFO close
  EXPECT_FALSE(Tracer::Current().valid());
}

TEST(TracerSinkTest, WallAndFtSinksFireWithoutTraceContext) {
  MetricRegistry registry;
  Histogram* wall = registry.GetHistogram("imcf_test_span_ns", "help",
                                          LatencyBoundsNs());
  double ft_seconds = 0.0;
  const int64_t recorded = FlightRecorder::Default().total_recorded();
  {
    ScopedSpan span("test.timed", "test",
                    {.wall_ns = wall, .wall_seconds = &ft_seconds});
    EXPECT_FALSE(span.active());  // no trace context: nothing recorded
    SpinNs(1000);
    EXPECT_EQ(wall->count(), 0);  // nothing observed until scope exit
  }
  EXPECT_EQ(FlightRecorder::Default().total_recorded(), recorded);
  EXPECT_EQ(wall->count(), 1);
  EXPECT_GE(wall->sum(), 1000.0);
  EXPECT_DOUBLE_EQ(ft_seconds * 1e9, wall->sum());  // one clock pair
}

TEST(TracerSinkTest, SimSecondsSinkObservesBoundClockDelta) {
  MetricRegistry registry;
  Histogram* sim = registry.GetHistogram("imcf_test_sim_seconds", "help",
                                         {60.0, 3600.0, 86400.0});
  int64_t sim_clock = 1000;
  {
    ScopedSpan span("test.advance", "test", {.sim_seconds = sim});
    span.BindSimClock(&sim_clock);
    sim_clock += 3600;  // the span advances the simulation by one hour
  }
  ASSERT_EQ(sim->count(), 1);
  EXPECT_DOUBLE_EQ(sim->sum(), 3600.0);
  EXPECT_EQ(sim->bucket_count(1), 1);  // le="3600"
}

TEST(TracerSinkTest, NullSinksAreSafe) {
  MetricRegistry registry;
  Histogram* sim = registry.GetHistogram("imcf_test_unbound_seconds", "help",
                                         {60.0});
  int64_t sim_clock = 0;
  { ScopedSpan span("test.none", "test", SpanSinks{}); }
  {
    ScopedSpan span("test.null_sim", "test", {.sim_seconds = nullptr});
    span.BindSimClock(&sim_clock);
  }
  { ScopedSpan span("test.unbound", "test", {.sim_seconds = sim}); }
  EXPECT_EQ(sim->count(), 0);  // never bound to a clock: never observed
  // A phase span with no ambient cost scope charges nobody.
  ASSERT_EQ(AmbientCost(), nullptr);
  { ScopedSpan span("test.phase", "test", {.phase = CostPhase::kPlan}); }
}

TEST(TracerSinkTest, NestedPhaseSpansChargeSelfTime) {
  // An outer kSim span, a non-phase span, and two kPlan spans inside: the
  // outer span is charged its duration minus the kPlan spans', each kPlan
  // span its own duration — the partition the recorded stamps give.
  constexpr uint64_t kTrace = 0xa777;
  CostLedger ledger(1);
  const std::string tenant = "tenant";
  {
    ScopedCost cost(&ledger, 0, tenant);
    ScopedSpan root("test.root", "test", Tracer::Root(kTrace));
    ScopedSpan outer("test.sim", "test", {.phase = CostPhase::kSim});
    SpinNs(2000);
    {
      ScopedSpan slot("test.slot", "test");  // not a phase span
      SpinNs(2000);
      ScopedSpan first("test.plan1", "test", {.phase = CostPhase::kPlan});
      SpinNs(2000);
    }
    ScopedSpan second("test.plan2", "test", {.phase = CostPhase::kPlan});
    SpinNs(2000);
  }
  std::map<std::string, int64_t> ns;  // recorded wall duration by name
  for (const SpanRecord& r : FlightRecorder::Default().Snapshot()) {
    if (r.trace_id == kTrace) ns[r.name] = r.wall_end_ns - r.wall_start_ns;
  }
  const int64_t plan_ns = ns["test.plan1"] + ns["test.plan2"];
  const TenantCost charged = ledger.Snapshot().at(0).cost;
  EXPECT_EQ(charged.phase_ns[static_cast<size_t>(CostPhase::kPlan)],
            plan_ns);
  EXPECT_EQ(charged.phase_ns[static_cast<size_t>(CostPhase::kSim)],
            ns["test.sim"] - plan_ns);
  EXPECT_GE(plan_ns, 4000);
  EXPECT_GE(ns["test.sim"] - plan_ns, 4000);  // outer + slot spins
}

}  // namespace
}  // namespace obs
}  // namespace imcf
