// Shared helpers for the figure/table reproduction benchmarks.
//
// Each bench binary regenerates one table or figure of the paper's
// evaluation section, printing the measured series next to the values the
// paper reports. Repetition count defaults to 5 for speed and can be set to
// the paper's 10 via IMCF_BENCH_REPS.

#ifndef IMCF_BENCH_BENCH_UTIL_H_
#define IMCF_BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "sim/simulation.h"

namespace imcf {
namespace bench {

/// Machine-readable run-report for one bench binary.
///
/// Every table cell the bench prints is recorded here through Cell() /
/// Scalar(), which return the exact formatted string the bench puts in the
/// table — so the JSON report and the printed table agree by construction.
/// Destruction (or an explicit WriteIfRequested()) writes BENCH_<name>.json
/// when IMCF_BENCH_JSON is set: a path ending in ".json" names the file
/// itself, anything else is a directory that receives BENCH_<name>.json.
/// The report also embeds the full metric-registry snapshot, so planner/
/// evaluator/pool counters ride along with the figures they explain.
class Report {
 public:
  explicit Report(std::string name);

  /// Not copyable (one report per bench run).
  Report(const Report&) = delete;
  Report& operator=(const Report&) = delete;

  ~Report();  ///< writes the JSON if still pending

  /// Records a repetition-aggregated cell; returns "mean ± stddev" at the
  /// given precision — print exactly this string in the table.
  std::string Cell(const std::string& section, const std::string& row,
                   const std::string& metric, const RunningStat& stat,
                   int precision = 2);

  /// Records a single-valued cell (no repetitions); returns the formatted
  /// value at the given precision.
  std::string Scalar(const std::string& section, const std::string& row,
                     const std::string& metric, double value,
                     int precision = 2);

  /// Writes the JSON report now if IMCF_BENCH_JSON is set, and the flight
  /// recorder as Perfetto JSON if IMCF_TRACE_JSON is set (idempotent).
  void WriteIfRequested();

  /// The report body as a JSON string (exposed for tests).
  std::string ToJsonString() const;

 private:
  struct CellRecord {
    std::string section;
    std::string row;
    std::string metric;
    std::string formatted;
    double mean = 0.0;
    double stddev = 0.0;
    double min = 0.0;
    double max = 0.0;
    int64_t count = 0;
  };

  std::string name_;
  std::vector<CellRecord> cells_;
  bool written_ = false;
};

/// Repetitions per experimental cell (env IMCF_BENCH_REPS, default 5; the
/// paper uses 10).
int Repetitions();

/// Quick mode (env IMCF_BENCH_QUICK=1): restricts sweeps to the flat
/// dataset for smoke runs.
bool QuickMode();

/// Executors of the one pool the process fans repetitions/cells out on
/// (env IMCF_BENCH_THREADS; default: hardware concurrency). Results are
/// bit-identical for every thread count; only the F_T timing columns are
/// measurements and thus vary. Set to 1 for uncontended F_T numbers.
int BenchThreads();

/// Prints the standard header for a bench binary.
void PrintHeader(const std::string& title, const std::string& paper_ref);

/// Prints one "mean ± stddev" cell.
std::string Cell(const RunningStat& stat, int precision = 2);

/// Dies with a message if `status` is not OK (benches have no error
/// recovery path worth writing).
void CheckOk(const Status& status);

/// Runs one (policy, simulator) cell with the standard repetitions,
/// fanning repetitions across BenchThreads() workers.
sim::RepeatedReport RunCell(const sim::Simulator& simulator,
                            sim::Policy policy);

/// Runs every (policy, repetition) cell of a figure row as one flat
/// parallel grid — keeps all cores busy across cheap (NR) and expensive
/// (EP) policies. Reports come back in `policies` order.
std::vector<sim::RepeatedReport> RunCells(
    const sim::Simulator& simulator, const std::vector<sim::Policy>& policies);

/// The datasets a sweep covers (flat only in quick mode).
std::vector<trace::DatasetSpec> BenchSpecs();

/// Dumps the process flight recorder as Chrome/Perfetto trace-event JSON
/// when IMCF_TRACE_JSON is set. Same path semantics as IMCF_BENCH_JSON: a
/// value ending in ".json" names the file, anything else is a directory
/// that receives TRACE_<name>.json. Called automatically by ~Report().
void MaybeDumpTrace(const std::string& name);

}  // namespace bench
}  // namespace imcf

#endif  // IMCF_BENCH_BENCH_UTIL_H_
