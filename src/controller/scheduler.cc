#include "controller/scheduler.h"

#include <algorithm>

#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace imcf {
namespace controller {

namespace {

/// Parses one cron field into a bitmask over [lo, hi]. Supports '*',
/// single values, comma lists and "*/n" steps.
Result<uint64_t> ParseField(const std::string& field, int lo, int hi) {
  uint64_t mask = 0;
  if (field == "*") {
    for (int v = lo; v <= hi; ++v) mask |= (1ULL << v);
    return mask;
  }
  if (StartsWith(field, "*/")) {
    IMCF_ASSIGN_OR_RETURN(int64_t step, ParseInt(field.substr(2)));
    if (step <= 0) return Status::InvalidArgument("cron step must be > 0");
    for (int v = lo; v <= hi; v += static_cast<int>(step)) {
      mask |= (1ULL << v);
    }
    return mask;
  }
  for (const std::string& part : Split(field, ',')) {
    IMCF_ASSIGN_OR_RETURN(int64_t value, ParseInt(part));
    if (value < lo || value > hi) {
      return Status::OutOfRange(
          StrFormat("cron value %lld outside [%d, %d]",
                    static_cast<long long>(value), lo, hi));
    }
    mask |= (1ULL << value);
  }
  return mask;
}

}  // namespace

Result<CronSpec> CronSpec::Parse(const std::string& expression) {
  std::vector<std::string> fields;
  for (const std::string& f : Split(Trim(expression), ' ')) {
    if (!f.empty()) fields.push_back(f);
  }
  if (fields.size() != 5) {
    return Status::InvalidArgument(
        "cron expression needs 5 fields (m h dom mon dow): '" + expression +
        "'");
  }
  CronSpec spec;
  spec.expression_ = expression;
  IMCF_ASSIGN_OR_RETURN(spec.minutes_[0], ParseField(fields[0], 0, 59));
  IMCF_ASSIGN_OR_RETURN(uint64_t hours, ParseField(fields[1], 0, 23));
  spec.hours_ = static_cast<uint32_t>(hours);
  IMCF_ASSIGN_OR_RETURN(uint64_t dom, ParseField(fields[2], 1, 31));
  spec.days_of_month_ = static_cast<uint32_t>(dom);
  IMCF_ASSIGN_OR_RETURN(uint64_t mon, ParseField(fields[3], 1, 12));
  spec.months_ = static_cast<uint16_t>(mon);
  IMCF_ASSIGN_OR_RETURN(uint64_t dow, ParseField(fields[4], 0, 6));
  spec.days_of_week_ = static_cast<uint8_t>(dow);
  return spec;
}

bool CronSpec::Matches(SimTime t) const {
  const CivilTime ct = ToCivil(t);
  if ((minutes_[0] & (1ULL << ct.minute)) == 0) return false;
  if ((hours_ & (1U << ct.hour)) == 0) return false;
  if ((days_of_month_ & (1U << ct.day)) == 0) return false;
  if ((months_ & (1U << ct.month)) == 0) return false;
  if ((days_of_week_ & (1U << DayOfWeek(t))) == 0) return false;
  return true;
}

SimTime CronSpec::Next(SimTime t) const {
  // Round up to the next whole minute, then scan. Any valid spec matches
  // within 4 years (leap-day corner); the scan is minute-granular but
  // skips within non-matching hours/days cheaply.
  SimTime candidate = ((t / kSecondsPerMinute) + 1) * kSecondsPerMinute;
  const SimTime limit = candidate + 4LL * 366 * kSecondsPerDay;
  while (candidate < limit) {
    if (Matches(candidate)) return candidate;
    candidate += kSecondsPerMinute;
  }
  return limit;
}

Status VirtualScheduler::Schedule(std::string name,
                                  const std::string& cron_expression,
                                  std::function<void(SimTime)> action) {
  IMCF_ASSIGN_OR_RETURN(CronSpec spec, CronSpec::Parse(cron_expression));
  obs::Counter* fires = obs::MetricRegistry::Default().GetCounter(
      "imcf_scheduler_job_fires_total", "Cron job firings", {{"job", name}});
  jobs_.push_back(CronJob{std::move(name), std::move(spec), std::move(action),
                          fires, /*last_fire=*/-1});
  return Status::Ok();
}

int64_t VirtualScheduler::AdvanceTo(SimTime until) {
  // Dual-stamp span: real latency of the advance (wall ns) and how much
  // virtual time it covered (sim seconds, read back from now_ at scope
  // exit). The gap between the two clocks is the whole point — a week of
  // simulated control typically costs milliseconds of wall time.
  auto& reg = obs::MetricRegistry::Default();
  static obs::Histogram* const wall_ns = reg.GetHistogram(
      "imcf_scheduler_advance_wall_ns",
      "Wall time of one VirtualScheduler::AdvanceTo call",
      obs::LatencyBoundsNs());
  static obs::Histogram* const sim_seconds = reg.GetHistogram(
      "imcf_scheduler_advance_sim_seconds",
      "Virtual time covered by one AdvanceTo call",
      obs::ExponentialBuckets(60.0, 4.0, 10));
  static obs::Histogram* const interfire = reg.GetHistogram(
      "imcf_scheduler_interfire_seconds",
      "Virtual gap between consecutive firings of the same job",
      obs::ExponentialBuckets(60.0, 4.0, 10));
  obs::ScopedSpan span("scheduler.advance", "controller",
                       {.wall_ns = wall_ns, .sim_seconds = sim_seconds});
  span.BindSimClock(&now_);

  int64_t fired = 0;
  while (now_ < until) {
    // Earliest next firing across jobs.
    SimTime next = until + 1;
    for (const CronJob& job : jobs_) {
      next = std::min(next, job.spec.Next(now_));
    }
    if (next > until) break;
    for (CronJob& job : jobs_) {
      if (job.spec.Matches(next)) {
        job.action(next);
        ++fired;
        job.fires->Increment();
        if (job.last_fire >= 0) {
          interfire->Observe(static_cast<double>(next - job.last_fire));
        }
        job.last_fire = next;
      }
    }
    now_ = next;
  }
  now_ = until;
  return fired;
}

}  // namespace controller
}  // namespace imcf
