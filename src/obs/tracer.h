// Request-scoped span tracing.
//
// The metrics registry says how MUCH (counters, histograms); spans say
// WHERE one request spent its time. A TraceContext (trace id + parent span
// id) is minted per unit of root work — a FleetService request, a
// simulation grid cell, a CMC coordination round — and flows through the
// layers two ways:
//
//   * implicitly, via a thread-local context stack: a ScopedSpan opened
//     while another span is live on the same thread becomes its child
//     (firewall decisions under the planner under the simulator...);
//   * explicitly, across threads: the serving layer stores the submit
//     span's context() in the queued request, and the draining worker
//     opens its execute span with that context as parent — the
//     enqueue -> drain handoff keeps one request one tree.
//
// A span is also the one timing primitive: at close its one wall-clock
// pair (and its sim stamps, when bound) feeds every SpanSinks field it was
// given, whether or not it records. Phase rule: a span with a CostPhase
// charges its SELF time — its duration minus the durations of phase spans
// that closed inside it on the same thread — so nested phases (sim.run
// around ep.search) partition wall time. Completed spans land in the
// FlightRecorder (obs/flight_recorder.h); obs/trace_export.h renders them.
//
// Determinism contract: span *content* (names, details, args, sim stamps,
// parent links, per-trace creation order) is a pure function of the
// request stream for any worker count; only wall stamps, raw ids and
// thread indices are measurements. CanonicalTraceText masks the latter, so
// span trees are bit-comparable at 1/4/8 workers.
//
// Cost: one recorded span is ~105-150 ns on a 4-core Xeon, the planner
// step's three sinks adding ~10-20 ns (BM_TracedSpan; the spread is host
// load); a span with neither sinks nor a trace context costs one TLS read
// and a branch.
//
// Names, categories and arg names MUST be string literals — the flight
// recorder stores the pointers. Dynamic text goes in Detail() (48 bytes,
// truncated).

#ifndef IMCF_OBS_TRACER_H_
#define IMCF_OBS_TRACER_H_

#include <cstdint>
#include <optional>
#include <string_view>

#include "obs/accounting/cost_ledger.h"
#include "obs/flight_recorder.h"

namespace imcf {
namespace obs {

class Histogram;

/// Where a new span attaches: the trace it belongs to and the span that
/// becomes its parent (0 = the new span is the trace root).
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  bool valid() const { return trace_id != 0; }
};

/// Static tracer state: span-id minting and the thread-local ambient
/// context.
class Tracer {
 public:
  /// Ambient context: the innermost live span on this thread, or an
  /// invalid context when none is open.
  static TraceContext Current();

  /// Root context for an explicitly minted trace id.
  static TraceContext Root(uint64_t trace_id) { return {trace_id, 0}; }

  /// Fresh process-unique trace id for ad-hoc roots (examples, CMC runs).
  /// Deterministic callers (serve, sim grid) derive ids from request/cell
  /// coordinates instead — see DESIGN.md §11.
  static uint64_t MintTraceId();

 private:
  friend class ScopedSpan;
  friend void TraceEvent(const char* name, const char* category,
                         std::string_view detail, const char* arg_name,
                         int64_t arg_value);
  static uint64_t NextSpanId();
  /// Pushes onto the ambient stack; false (nothing pushed) when the stack
  /// is already at its fixed depth.
  static bool Push(TraceContext context);
  static void Pop();
};

/// Monotonic wall clock reading in nanoseconds.
int64_t NowNs();

/// Where a closing span's measurements go besides the flight recorder.
/// Every field is optional; a span with no sinks and no trace context
/// reads no clock at all.
struct SpanSinks {
  /// Observes wall_end - wall_start, in nanoseconds.
  Histogram* wall_ns = nullptr;
  /// Accumulates the same duration in seconds (a running F_T total).
  double* wall_seconds = nullptr;
  /// Observes sim_end - sim_start; needs BindSimClock().
  Histogram* sim_seconds = nullptr;
  /// Charges the span's self time to this phase of AmbientCost().
  std::optional<CostPhase> phase = std::nullopt;
};

/// RAII span. Construction stamps wall start and, under a trace context,
/// pushes the span onto the thread's context stack; destruction stamps
/// wall end, feeds `sinks` and, under a trace context, records into
/// FlightRecorder::Default(). A span with neither sinks nor a valid trace
/// context is inert (no stamps, no record).
class ScopedSpan {
 public:
  /// Child of the thread's ambient context (records only when there is
  /// one; the sinks are fed either way).
  ScopedSpan(const char* name, const char* category, SpanSinks sinks = {});

  /// Child of an explicit context — the cross-thread handoff constructor —
  /// or a trace root when `parent` is Tracer::Root(id).
  ScopedSpan(const char* name, const char* category, TraceContext parent,
             SpanSinks sinks = {});

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan();

  /// Sets the span's text annotation (truncated to 47 bytes).
  void Detail(std::string_view text);

  /// Attaches a numeric annotation; the first two calls win, later ones
  /// are dropped. `name` must be a string literal.
  void Arg(const char* name, int64_t value);

  /// Stamps the simulation-time interval the span covers (seconds).
  void SimSpan(int64_t sim_start, int64_t sim_end);

  /// Binds the span to a simulation clock (SimTime seconds, borrowed,
  /// must outlive the span): sim_start is read now, sim_end at
  /// destruction. Feeds SpanSinks::sim_seconds.
  void BindSimClock(const int64_t* sim_clock);

  /// Context for children of this span (cross-thread propagation).
  TraceContext context() const {
    return {record_.trace_id, record_.span_id};
  }

  /// Whether this span records into the flight recorder (false when it
  /// has no trace context).
  bool active() const { return active_; }

 private:
  SpanRecord record_;
  SpanSinks sinks_;
  const int64_t* sim_clock_ = nullptr;
  /// Phase spans only: the enclosing phase span's closed-child total,
  /// restored (plus this span's duration) at close.
  int64_t saved_phase_child_ns_ = 0;
  bool timed_ = false;  ///< reads the clock (has sinks or a context)
  bool active_ = false;
  bool pushed_ = false;
};

/// Records an instantaneous event (wall start == end) under the thread's
/// ambient context; dropped when there is none. Cheap enough for per-drop
/// firewall verdicts and per-retry bus annotations.
void TraceEvent(const char* name, const char* category,
                std::string_view detail = {},
                const char* arg_name = nullptr, int64_t arg_value = 0);

}  // namespace obs
}  // namespace imcf

#endif  // IMCF_OBS_TRACER_H_
