#include "obs/tracer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>

#include "obs/metrics.h"

namespace imcf {
namespace obs {

namespace {

/// Span ids are process-unique and monotone: a span created after another
/// gets a larger id. Within one trace all spans are created on one logical
/// request path, so sorting children by span id recovers creation order —
/// that is what makes the canonical export deterministic even though the
/// raw ids are not.
std::atomic<uint64_t> g_next_span_id{1};

std::atomic<uint64_t> g_next_trace_id{1};

/// Fixed-depth ambient context stack per thread. Depth 32 is far beyond
/// the deepest real nesting (request -> plan -> search -> ...); overflow
/// spans still record, they just cannot parent further ambient children
/// (and, not having pushed, must not pop).
constexpr int kMaxContextDepth = 32;

struct ContextStack {
  TraceContext frames[kMaxContextDepth];
  int depth = 0;
};

thread_local ContextStack t_context_stack;

/// Wall nanoseconds of the phase spans that closed inside the innermost
/// open phase span on this thread (the phase rule's "children" total).
thread_local int64_t t_phase_child_ns = 0;

/// Copies `text` into a span's detail buffer, truncated to fit its NUL.
void CopyDetail(std::string_view text, char* detail) {
  const size_t n = std::min(text.size(), kSpanDetailBytes - 1);
  if (n > 0) std::memcpy(detail, text.data(), n);
  detail[n] = '\0';
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TraceContext Tracer::Current() {
  const ContextStack& stack = t_context_stack;
  if (stack.depth == 0) return {};
  return stack.frames[stack.depth - 1];
}

uint64_t Tracer::MintTraceId() {
  return g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
}

uint64_t Tracer::NextSpanId() {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

bool Tracer::Push(TraceContext context) {
  ContextStack& stack = t_context_stack;
  if (stack.depth >= kMaxContextDepth) return false;
  stack.frames[stack.depth++] = context;
  return true;
}

void Tracer::Pop() {
  ContextStack& stack = t_context_stack;
  if (stack.depth > 0) --stack.depth;
}

ScopedSpan::ScopedSpan(const char* name, const char* category,
                       SpanSinks sinks)
    : ScopedSpan(name, category, Tracer::Current(), sinks) {}

ScopedSpan::ScopedSpan(const char* name, const char* category,
                       TraceContext parent, SpanSinks sinks)
    : sinks_(sinks), active_(parent.valid()) {
  timed_ = active_ || sinks.wall_ns || sinks.wall_seconds ||
           sinks.sim_seconds || sinks.phase;
  if (!timed_) return;
  if (active_) {
    record_.trace_id = parent.trace_id;
    record_.span_id = Tracer::NextSpanId();
    record_.parent_span_id = parent.span_id;
    record_.name = name;
    record_.category = category;
  }
  if (sinks_.phase) {
    saved_phase_child_ns_ = t_phase_child_ns;
    t_phase_child_ns = 0;
  }
  record_.wall_start_ns = NowNs();
  if (active_) pushed_ = Tracer::Push({record_.trace_id, record_.span_id});
}

ScopedSpan::~ScopedSpan() {
  if (!timed_) return;
  if (pushed_) Tracer::Pop();
  record_.wall_end_ns = NowNs();
  if (sim_clock_ != nullptr) record_.sim_end = *sim_clock_;
  const int64_t wall_ns = record_.wall_end_ns - record_.wall_start_ns;
  if (Histogram* h = sinks_.wall_ns) h->Observe(static_cast<double>(wall_ns));
  if (double* total = sinks_.wall_seconds) *total += 1e-9 * wall_ns;
  if (Histogram* h = sinks_.sim_seconds; h != nullptr && sim_clock_) {
    h->Observe(static_cast<double>(record_.sim_end - record_.sim_start));
  }
  if (sinks_.phase) {
    const int64_t self_ns = wall_ns - t_phase_child_ns;
    t_phase_child_ns = saved_phase_child_ns_ + wall_ns;
    if (TenantCost* cost = AmbientCost()) {
      cost->phase_ns[static_cast<size_t>(*sinks_.phase)] += self_ns;
    }
  }
  if (active_) FlightRecorder::Default().Record(record_);
}

void ScopedSpan::Detail(std::string_view text) {
  if (active_) CopyDetail(text, record_.detail);
}

void ScopedSpan::Arg(const char* name, int64_t value) {
  if (!active_) return;
  if (record_.arg_name == nullptr) {
    record_.arg_name = name;
    record_.arg_value = value;
  } else if (record_.arg2_name == nullptr) {
    record_.arg2_name = name;
    record_.arg2_value = value;
  }
}

void ScopedSpan::SimSpan(int64_t sim_start, int64_t sim_end) {
  if (!active_) return;
  record_.sim_start = sim_start;
  record_.sim_end = sim_end;
  sim_clock_ = nullptr;
}

void ScopedSpan::BindSimClock(const int64_t* sim_clock) {
  if (!timed_ || sim_clock == nullptr) return;
  sim_clock_ = sim_clock;
  record_.sim_start = *sim_clock;
}

void TraceEvent(const char* name, const char* category,
                std::string_view detail, const char* arg_name,
                int64_t arg_value) {
  const TraceContext parent = Tracer::Current();
  if (!parent.valid()) return;
  SpanRecord record;
  record.trace_id = parent.trace_id;
  record.span_id = Tracer::NextSpanId();
  record.parent_span_id = parent.span_id;
  record.name = name;
  record.category = category;
  const int64_t now = NowNs();
  record.wall_start_ns = now;
  record.wall_end_ns = now;
  if (arg_name != nullptr) {
    record.arg_name = arg_name;
    record.arg_value = arg_value;
  }
  CopyDetail(detail, record.detail);
  FlightRecorder::Default().Record(record);
}

}  // namespace obs
}  // namespace imcf
