#include "harness.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

uint64_t SeqRng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SeqRng::Uniform01() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t SeqRng::Below(uint64_t n) { return Next() % n; }

std::vector<Arrival> MakeOpenLoopSchedule(uint64_t seed,
                                          const OpenLoopMix& mix,
                                          double seconds, int readers,
                                          int updaters) {
  SeqRng rng(seed ^ 0x4f50454e4c4f4f50ULL);  // "OPENLOOP"
  std::vector<Arrival> schedule;
  schedule.reserve(static_cast<size_t>(mix.rate_per_s * seconds * 1.1) + 16);
  std::vector<int> updates_per_updater(static_cast<size_t>(updaters), 0);
  const double horizon_ns = seconds * 1e9;
  double t_ns = 0.0;
  while (true) {
    // Exponential inter-arrival gap; 1 - u keeps the log argument in (0, 1].
    t_ns += -std::log(1.0 - rng.Uniform01()) / mix.rate_per_s * 1e9;
    if (t_ns >= horizon_ns) break;
    Arrival arrival;
    arrival.due_ns = static_cast<int64_t>(t_ns);
    const double pick = rng.Uniform01();
    double cumulative = 0.0;
    arrival.op = Op::kStatus;
    for (int op = 0; op < kNumOps; ++op) {
      cumulative += mix.share[op];
      if (pick < cumulative) {
        arrival.op = static_cast<Op>(op);
        break;
      }
    }
    if (arrival.op == Op::kMrtUpdate && updaters == 0) {
      arrival.op = Op::kStatus;
    }
    arrival.arg = rng.Next();
    if (arrival.op == Op::kMrtUpdate) {
      arrival.tenant = static_cast<int>(rng.Below(updaters));
      int& count = updates_per_updater[static_cast<size_t>(arrival.tenant)];
      arrival.arg = (arrival.arg & ~1ULL) | static_cast<uint64_t>(count % 2);
      ++count;
    } else {
      arrival.tenant = static_cast<int>(rng.Below(readers));
    }
    schedule.push_back(arrival);
  }
  return schedule;
}

ClosedLoopStream::ClosedLoopStream(uint64_t seed, int connection,
                                   int tenants)
    : rng_(seed ^ (0x434c4f5345444c50ULL +  // "CLOSEDLP"
                   static_cast<uint64_t>(connection))),
      tenants_(tenants) {}

Arrival ClosedLoopStream::Next() {
  Arrival arrival;
  arrival.op = Op::kPlan;
  arrival.tenant = static_cast<int>(rng_.Below(tenants_));
  arrival.arg = rng_.Next();
  return arrival;
}

namespace {

/// ceil(q% of n), immune to q / 100 * n landing a rounding error above an
/// integer (99.9 / 100 * 10000 is 9990.000000000002).
size_t NearestRank(size_t n, double q) {
  return static_cast<size_t>(
      std::ceil(q * static_cast<double>(n) / 100.0 - 1e-9));
}

}  // namespace

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t rank =
      std::clamp<size_t>(NearestRank(sorted.size(), q), 1, sorted.size());
  return sorted[rank - 1];
}

bool HasTenBeyond(size_t n, double q) {
  const size_t rank = NearestRank(n, q);
  return n >= rank && n - rank >= 10;
}

std::optional<double> HighestQuotablePercentile(size_t n) {
  for (double q : {99.9, 99.0, 90.0, 50.0}) {
    if (HasTenBeyond(n, q)) return q;
  }
  return std::nullopt;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Percentile(values, 50.0);
}

double SliceMedian(std::vector<std::vector<double>>& slices, double q) {
  std::vector<double> per_slice;
  for (std::vector<double>& slice : slices) {
    if (slice.empty()) continue;
    std::sort(slice.begin(), slice.end());
    per_slice.push_back(Percentile(slice, q));
  }
  return Median(std::move(per_slice));
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double TransportUs(double wire_p50_us, double inprocess_p50_us) {
  return wire_p50_us - inprocess_p50_us;
}

std::vector<double> DrainSelfUs(const std::vector<DrainSample>& drains,
                                int workers) {
  std::vector<double> self;
  self.reserve(drains.size());
  for (const DrainSample& drain : drains) {
    const double children = std::accumulate(drain.child_us.begin(),
                                            drain.child_us.end(), 0.0);
    const size_t lanes = std::clamp<size_t>(
        drain.child_us.size(), 1, static_cast<size_t>(std::max(1, workers)));
    self.push_back(drain.drain_us - children / static_cast<double>(lanes));
  }
  return self;
}

double MeanPairedDifference(const std::vector<double>& a,
                            const std::vector<double>& b) {
  const size_t n = std::min(a.size(), b.size());
  if (n == 0) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += a[i] - b[i];
  return sum / static_cast<double>(n);
}

}  // namespace perfbench
