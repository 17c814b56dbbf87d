// Pure helpers of the wire-level benchmark: seeded input streams,
// percentiles and the arithmetic of the derived per-layer metrics.
//
// Everything here is a function of its arguments only (no clocks, no
// sockets), so harness_test.cc can pin it down exactly. The benchmark's
// inputs come from the seed alone: the request schedule and mix use the
// harness's own splitmix64 stream, never the program's RNG, so a change to
// the program cannot change what the benchmark sends.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// splitmix64: a tiny, fully specified generator.
class SeqRng {
 public:
  explicit SeqRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1) with 53 bits.
  double Uniform01();
  /// Uniform in [0, n); n >= 1.
  uint64_t Below(uint64_t n);

 private:
  uint64_t state_;
};

/// What one generated request asks for.
enum class Op : uint8_t {
  kStatus = 0,   ///< status query
  kContext = 1,  ///< context query (dataflow-filtered snapshot)
  kCommand = 2,  ///< actuation through the fault-gated command bus
  kPlan = 3,     ///< kEnergyPlanner plan
  kMrtUpdate = 4,
};
inline constexpr int kNumOps = 5;

/// One request of a stream. `tenant` indexes the benchmark's reader list
/// for kStatus..kPlan and its MRT-updater list for kMrtUpdate; `arg` is a
/// raw 64-bit draw the benchmark maps to a unit, a value or a plan rep,
/// and for kMrtUpdate its low bit selects a conflicting update (1) or a
/// seed change (0).
struct Arrival {
  int64_t due_ns = 0;  ///< offset from the start of the schedule
  Op op = Op::kStatus;
  int tenant = 0;
  uint64_t arg = 0;
};

/// Open-loop traffic: Poisson arrivals at `rate_per_s` with the given
/// share of each op (shares sum to 1).
struct OpenLoopMix {
  double rate_per_s = 1000.0;
  double share[kNumOps] = {0, 0, 0, 0, 0};
};

/// Poisson schedule covering [0, seconds), drawn from `seed` only.
/// `readers` and `updaters` size the tenant lists (updaters may be 0 when
/// the mix has no MRT updates). Conflicting MRT updates are exactly every
/// other update of each updater, starting with its second, so the
/// rejected share is fixed by construction.
std::vector<Arrival> MakeOpenLoopSchedule(uint64_t seed,
                                          const OpenLoopMix& mix,
                                          double seconds, int readers,
                                          int updaters);

/// Closed-loop plan stream of one connection: an endless, seed-determined
/// sequence of (tenant within the connection's list, rep).
class ClosedLoopStream {
 public:
  ClosedLoopStream(uint64_t seed, int connection, int tenants);
  Arrival Next();

 private:
  SeqRng rng_;
  int tenants_;
};

/// Nearest-rank percentile of ascending `sorted`, q in (0, 100]. Empty
/// input yields 0.
double Percentile(const std::vector<double>& sorted, double q);

/// True when at least ten samples of `n` lie strictly beyond the
/// nearest-rank q-th percentile: the rule for quoting a tail percentile.
bool HasTenBeyond(size_t n, double q);

/// The highest of 99.9 / 99 / 90 / 50 that HasTenBeyond allows for `n`
/// samples, or nullopt when none does.
std::optional<double> HighestQuotablePercentile(size_t n);

/// Median over the non-empty slices of each slice's q-th percentile (each
/// slice is sorted in place). 0 when every slice is empty.
double SliceMedian(std::vector<std::vector<double>>& slices, double q);

/// Median of an unsorted copy (0 when empty).
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// net.transport_us: the wire round trip minus the in-process
/// Submit -> Drain time of the same stream (both medians, in µs).
double TransportUs(double wire_p50_us, double inprocess_p50_us);

/// One replayed drain: its wall time and the replayed child work of every
/// request it executed (tenant lookup plus the kind's layer call).
struct DrainSample {
  double drain_us = 0.0;
  std::vector<double> child_us;
};

/// serve.drain_self_us samples: per drain, the drain time minus its
/// children's critical path. The drain fans its requests out on `workers`
/// threads, so a batch of n children takes at least sum / min(n, workers)
/// of wall time.
std::vector<double> DrainSelfUs(const std::vector<DrainSample>& drains,
                                int workers);

/// Mean of the paired differences a[i] - b[i] (core.plan_us: energy
/// planner minus no-rule runs; core.arena_cold_us: cold minus warm arena).
/// The vectors must have equal length; empty yields 0.
double MeanPairedDifference(const std::vector<double>& a,
                            const std::vector<double>& b);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
