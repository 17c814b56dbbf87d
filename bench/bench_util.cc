#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <thread>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"

#ifndef IMCF_GIT_SHA
#define IMCF_GIT_SHA "unknown"
#endif
#ifndef IMCF_BUILD_TYPE
#define IMCF_BUILD_TYPE "unknown"
#endif

namespace imcf {
namespace bench {

namespace {

/// Current wall time as an RFC 3339 UTC stamp ("2026-08-08T12:34:56Z").
std::string UtcTimestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm parts{};
  gmtime_r(&now, &parts);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &parts);
  return buf;
}

/// Resolves an env-var path with the shared file-or-directory semantics:
/// ".json" suffix names the file, anything else is a directory receiving
/// `<prefix><name>.json`. Empty when the variable is unset.
std::string ReportPath(const char* env_var, const std::string& prefix,
                       const std::string& name) {
  const char* env = std::getenv(env_var);
  if (env == nullptr || env[0] == '\0') return "";
  std::string path(env);
  if (!EndsWith(path, ".json")) {
    if (!path.empty() && path.back() != '/') path += '/';
    path += prefix + name + ".json";
  }
  return path;
}

/// The first "model name" of /proc/cpuinfo, or "unknown" where there is
/// none (non-Linux hosts, some ARM kernels).
std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (!StartsWith(line, "model name")) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    return Trim(std::string_view(line).substr(colon + 1));
  }
  return "unknown";
}

}  // namespace

Report::Report(std::string name) : name_(std::move(name)) {}

Report::~Report() { WriteIfRequested(); }

std::string Report::Cell(const std::string& section, const std::string& row,
                         const std::string& metric, const RunningStat& stat,
                         int precision) {
  CellRecord record;
  record.section = section;
  record.row = row;
  record.metric = metric;
  record.formatted = stat.ToString(precision);
  record.mean = stat.mean();
  record.stddev = stat.stddev();
  record.min = stat.min();
  record.max = stat.max();
  record.count = stat.count();
  cells_.push_back(record);
  return record.formatted;
}

std::string Report::Scalar(const std::string& section, const std::string& row,
                           const std::string& metric, double value,
                           int precision) {
  CellRecord record;
  record.section = section;
  record.row = row;
  record.metric = metric;
  record.formatted = StrFormat("%.*f", precision, value);
  record.mean = value;
  record.min = value;
  record.max = value;
  record.count = 1;
  cells_.push_back(record);
  return record.formatted;
}

std::string Report::ToJsonString() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("bench").String(name_);
  // Run metadata so reports from different commits/machines compare
  // honestly: a 3% regression means nothing without the sha and build type
  // that produced each side.
  w.Key("meta").BeginObject();
  w.Key("git_sha").String(IMCF_GIT_SHA);
  w.Key("build_type").String(IMCF_BUILD_TYPE);
  w.Key("compiler").String(__VERSION__);
  w.Key("threads").Int(BenchThreads());
  w.Key("hw_threads").Int(
      static_cast<int64_t>(std::thread::hardware_concurrency()));
  w.Key("cpu_model").String(CpuModel());
  w.Key("timestamp_utc").String(UtcTimestamp());
  w.EndObject();
  w.Key("repetitions").Int(Repetitions());
  w.Key("quick").Bool(QuickMode());
  w.Key("threads").Int(BenchThreads());
  w.Key("cells").BeginArray();
  for (const CellRecord& cell : cells_) {
    w.BeginObject();
    w.Key("section").String(cell.section);
    w.Key("row").String(cell.row);
    w.Key("metric").String(cell.metric);
    w.Key("formatted").String(cell.formatted);
    w.Key("mean").Double(cell.mean);
    w.Key("stddev").Double(cell.stddev);
    w.Key("min").Double(cell.min);
    w.Key("max").Double(cell.max);
    w.Key("count").Int(cell.count);
    w.EndObject();
  }
  w.EndArray();
  // The instrumentation that produced the numbers above rides along.
  w.Key("metrics").Raw(obs::ToJson(obs::MetricRegistry::Default()));
  w.EndObject();
  return w.str();
}

void Report::WriteIfRequested() {
  if (written_) return;
  written_ = true;
  MaybeDumpTrace(name_);
  const std::string path = ReportPath("IMCF_BENCH_JSON", "BENCH_", name_);
  if (path.empty()) return;
  const std::string body = ToJsonString();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write report to %s\n", path.c_str());
    return;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("report written: %s\n", path.c_str());
}

int Repetitions() {
  const char* env = std::getenv("IMCF_BENCH_REPS");
  if (env != nullptr) {
    const auto parsed = ParseInt(env);
    if (parsed.ok() && *parsed > 0 && *parsed <= 100) {
      return static_cast<int>(*parsed);
    }
  }
  return 5;
}

bool QuickMode() {
  const char* env = std::getenv("IMCF_BENCH_QUICK");
  return env != nullptr && std::string(env) == "1";
}

int BenchThreads() {
  const char* env = std::getenv("IMCF_BENCH_THREADS");
  if (env != nullptr) {
    const auto parsed = ParseInt(env);
    if (parsed.ok() && *parsed > 0 && *parsed <= 256) {
      return static_cast<int>(*parsed);
    }
  }
  return ThreadPool::HardwareThreads();
}

void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::printf("=================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("repetitions per cell: %d (paper: 10; set IMCF_BENCH_REPS)\n",
              Repetitions());
  std::printf("=================================================================\n");
}

std::string Cell(const RunningStat& stat, int precision) {
  return stat.ToString(precision);
}

void CheckOk(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "bench failed: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

namespace {

/// The one pool every cell of a bench process fans out on.
ThreadPool& BenchPool() {
  static ThreadPool pool(BenchThreads());
  return pool;
}

}  // namespace

sim::RepeatedReport RunCell(const sim::Simulator& simulator,
                            sim::Policy policy) {
  auto result = simulator.RunRepeated(policy, Repetitions(), &BenchPool());
  CheckOk(result.status());
  return std::move(result).value();
}

std::vector<sim::RepeatedReport> RunCells(
    const sim::Simulator& simulator,
    const std::vector<sim::Policy>& policies) {
  auto result = simulator.RunGrid(policies, Repetitions(), &BenchPool());
  CheckOk(result.status());
  return std::move(result).value();
}

std::vector<trace::DatasetSpec> BenchSpecs() {
  if (QuickMode()) return {trace::FlatSpec()};
  return trace::AllSpecs();
}

void MaybeDumpTrace(const std::string& name) {
  const std::string path = ReportPath("IMCF_TRACE_JSON", "TRACE_", name);
  if (path.empty()) return;
  if (!obs::WriteTraceJson(obs::FlightRecorder::Default(), path)) {
    std::fprintf(stderr, "bench: cannot write trace to %s\n", path.c_str());
    return;
  }
  std::printf("trace written: %s (%lld spans recorded, ring capacity %zu)\n",
              path.c_str(),
              static_cast<long long>(
                  obs::FlightRecorder::Default().total_recorded()),
              obs::FlightRecorder::Default().capacity());
}

}  // namespace bench
}  // namespace imcf
