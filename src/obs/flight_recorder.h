// Always-on flight recorder: lock-free per-thread span ring-buffers.
//
// The tracer (obs/tracer.h) answers "where did THIS request spend its
// time"; the flight recorder is where its spans land. Design constraints,
// in order:
//
//   * Fixed memory, always on. Each writer thread owns one ring of
//     `capacity` slots (default 8192). New spans
//     overwrite the oldest (head-tail overwrite), so steady-state cost is
//     bounded no matter how long the service runs — exactly a black-box
//     flight recorder, dumpable after the fact. A thread that exits
//     retires its ring and the next new writer thread reuses it, so the
//     ring count follows the peak number of live writers, not thread
//     churn. A retired ring's spans stay readable until the reuser
//     overwrites them.
//   * Lock-free writers. A thread's ring is single-producer: recording a
//     span is a handful of release stores (plain moves on x86) bracketed
//     by a per-slot sequence number (seqlock), never a mutex. Writers on
//     different threads touch different rings and never contend.
//   * Readers are rare and best-effort. Snapshot() walks every ring under
//     the registry mutex (which only guards ring *enumeration*), copying
//     slots with bounded seqlock retries; a slot being overwritten mid-copy
//     is skipped rather than torn. Dumps happen on demand, on shed spikes
//     and at bench end — not on the hot path.
//
// Span names/categories/arg names must be string literals (static storage
// duration): rings store the pointers, not copies. The only dynamic
// payload is the fixed 48-byte `detail` buffer.

#ifndef IMCF_OBS_FLIGHT_RECORDER_H_
#define IMCF_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace imcf {
namespace obs {

/// Bytes of inline annotation per span (including the NUL).
inline constexpr size_t kSpanDetailBytes = 48;

/// One completed span, as read back out of a ring. All ids are opaque;
/// `sim_start`/`sim_end` are SimTime seconds (0 when the span was not bound
/// to the simulation clock). `name`, `category` and the arg names point at
/// string literals.
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;  ///< 0 for trace roots
  const char* name = "";
  const char* category = "";
  int64_t wall_start_ns = 0;
  int64_t wall_end_ns = 0;
  int64_t sim_start = 0;
  int64_t sim_end = 0;
  int thread_index = 0;  ///< ring index, stable per writer thread
  /// Registered name of the ring's current writer thread ("" when it never
  /// named itself; see SetCurrentThreadName). Filled in by Snapshot, not
  /// stored per slot.
  std::string thread_name;
  const char* arg_name = nullptr;  ///< optional numeric annotations
  int64_t arg_value = 0;
  const char* arg2_name = nullptr;
  int64_t arg2_value = 0;
  char detail[kSpanDetailBytes] = {};  ///< NUL-terminated annotation
};

/// The recorder: a registry of per-thread rings.
class FlightRecorder {
 public:
  /// Process-wide recorder every ScopedSpan records into, with the
  /// default capacity (8192 slots per thread).
  static FlightRecorder& Default();

  /// `capacity` slots per thread ring, clamped to [64, 1M] and rounded up
  /// to a power of two (0 selects the default). Tests build small
  /// recorders directly.
  explicit FlightRecorder(size_t capacity = 0);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Records one span into the calling thread's ring (creating the ring on
  /// first use). Lock-free after the first call per thread.
  void Record(const SpanRecord& record);

  /// Registers a human-readable name ("pool-3", "drain") for the calling
  /// thread, so dumps label lanes instead of showing bare ring indices.
  /// Applies to this recorder's ring immediately (creating it if needed)
  /// and is remembered thread-locally, so rings this thread later creates
  /// in OTHER recorder instances inherit the name too. Typically called
  /// once at thread start (the thread pool names its helpers).
  void SetCurrentThreadName(const std::string& name);

  /// Registered writer names indexed by SpanRecord::thread_index ("" for
  /// threads that never named themselves) — the dump-header lane table.
  std::vector<std::string> thread_names() const;

  /// Best-effort consistent copy of every ring, oldest first within each
  /// ring. Slots under concurrent overwrite are skipped.
  std::vector<SpanRecord> Snapshot() const;

  /// Drops all recorded spans. Only safe when writer threads are quiesced
  /// (tests, between bench cells); concurrent writers may resurrect slots.
  void Clear();

  /// Slots per thread ring.
  size_t capacity() const { return capacity_; }

  /// Spans ever recorded (monotonic; exceeds capacity once rings wrap).
  int64_t total_recorded() const;

  /// Rings allocated so far, live or retired: at most the peak number of
  /// writer threads alive at once.
  size_t ring_count() const;

 private:
  struct Slot;
  struct Ring;
  struct ThreadRings;

  Ring* RingForThisThread();

  const uint64_t instance_id_;  ///< keys the thread-local ring cache
  size_t capacity_;             ///< power of two
  mutable std::mutex mu_;       ///< guards rings_ enumeration and reuse
  /// Shared with each writer thread's ThreadRings, which retires the ring
  /// at thread exit even when this recorder has already been destroyed.
  std::vector<std::shared_ptr<Ring>> rings_;
};

}  // namespace obs
}  // namespace imcf

#endif  // IMCF_OBS_FLIGHT_RECORDER_H_
