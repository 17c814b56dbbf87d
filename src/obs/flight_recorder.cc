#include "obs/flight_recorder.h"

#include <cstdlib>
#include <cstring>

namespace imcf {
namespace obs {

namespace {

constexpr size_t kDefaultCapacity = 8192;
constexpr size_t kMinCapacity = 64;
constexpr size_t kMaxCapacity = size_t{1} << 20;

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

size_t ClampCapacity(size_t requested) {
  if (requested == 0) requested = kDefaultCapacity;
  if (requested < kMinCapacity) requested = kMinCapacity;
  if (requested > kMaxCapacity) requested = kMaxCapacity;
  return RoundUpPow2(requested);
}

size_t CapacityFromEnv() {
  const char* env = std::getenv("IMCF_TRACE_RING");
  if (env != nullptr && env[0] != '\0') {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && parsed > 0) {
      return ClampCapacity(static_cast<size_t>(parsed));
    }
  }
  return ClampCapacity(kDefaultCapacity);
}

std::atomic<uint64_t> g_next_instance_id{1};

/// The calling thread's registered name, inherited by rings it creates
/// later (in any recorder instance).
std::string& CurrentThreadNameSlot() {
  thread_local std::string name;
  return name;
}

}  // namespace

/// One ring slot. Every payload field is an atomic so seqlock readers
/// racing a writer read *stale or mixed* values, never undefined ones;
/// `seq` (odd while a write is in flight) lets readers detect and
/// retry/skip the mix. Plain stores would be UB under the data race.
struct FlightRecorder::Slot {
  std::atomic<uint64_t> seq{0};  ///< even: stable; odd: write in flight
  std::atomic<uint64_t> trace_id{0};
  std::atomic<uint64_t> span_id{0};
  std::atomic<uint64_t> parent_span_id{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<const char*> category{nullptr};
  std::atomic<int64_t> wall_start_ns{0};
  std::atomic<int64_t> wall_end_ns{0};
  std::atomic<int64_t> sim_start{0};
  std::atomic<int64_t> sim_end{0};
  std::atomic<const char*> arg_name{nullptr};
  std::atomic<int64_t> arg_value{0};
  std::atomic<const char*> arg2_name{nullptr};
  std::atomic<int64_t> arg2_value{0};
  std::atomic<uint64_t> detail[kSpanDetailBytes / 8];
};

struct FlightRecorder::Ring {
  explicit Ring(size_t capacity, int index)
      : slots(new Slot[capacity]), mask(capacity - 1), thread_index(index) {}

  std::unique_ptr<Slot[]> slots;
  const size_t mask;
  const int thread_index;
  std::string name;  ///< writer's registered name; guarded by recorder mu_
  std::atomic<uint64_t> head{0};  ///< next write position (monotonic)
};

FlightRecorder& FlightRecorder::Default() {
  static FlightRecorder* const recorder =
      new FlightRecorder(CapacityFromEnv());
  return *recorder;
}

FlightRecorder::FlightRecorder(size_t capacity)
    : instance_id_(g_next_instance_id.fetch_add(1, std::memory_order_relaxed)),
      capacity_(ClampCapacity(capacity)) {}

FlightRecorder::~FlightRecorder() = default;

FlightRecorder::Ring* FlightRecorder::RingForThisThread() {
  // Per-thread cache of (recorder instance id -> ring). Instance ids are
  // never reused, so a cached entry for a destroyed recorder simply never
  // matches again; the vector stays tiny (one entry per recorder this
  // thread has written to).
  struct CacheEntry {
    uint64_t instance_id;
    Ring* ring;
  };
  thread_local std::vector<CacheEntry> cache;
  for (const CacheEntry& entry : cache) {
    if (entry.instance_id == instance_id_) return entry.ring;
  }
  Ring* ring = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rings_.push_back(std::make_unique<Ring>(
        capacity_, static_cast<int>(rings_.size())));
    ring = rings_.back().get();
    ring->name = CurrentThreadNameSlot();
  }
  cache.push_back(CacheEntry{instance_id_, ring});
  return ring;
}

void FlightRecorder::SetCurrentThreadName(const std::string& name) {
  CurrentThreadNameSlot() = name;
  Ring* ring = RingForThisThread();
  std::lock_guard<std::mutex> lock(mu_);
  ring->name = name;
}

std::vector<std::string> FlightRecorder::thread_names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(rings_.size());
  // Rings are appended in thread_index order, so position == index.
  for (const auto& ring : rings_) names.push_back(ring->name);
  return names;
}

void FlightRecorder::Record(const SpanRecord& record) {
  Ring* ring = RingForThisThread();
  const uint64_t h = ring->head.load(std::memory_order_relaxed);
  Slot& slot = ring->slots[h & ring->mask];

  const uint64_t seq0 = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(seq0 + 1, std::memory_order_release);  // mark in-flight
  // Payload stores are releases (plain moves on x86): a release store of
  // the odd mark does not keep later relaxed stores from moving above it,
  // so a reader could see new payload with the old even mark. A reader
  // that acquires any new payload value also sees the odd mark (Boehm,
  // "Can seqlocks get along with programming language memory models?";
  // a fence would do too, but GCC's TSan build rejects fences).
  slot.trace_id.store(record.trace_id, std::memory_order_release);
  slot.span_id.store(record.span_id, std::memory_order_release);
  slot.parent_span_id.store(record.parent_span_id,
                            std::memory_order_release);
  slot.name.store(record.name, std::memory_order_release);
  slot.category.store(record.category, std::memory_order_release);
  slot.wall_start_ns.store(record.wall_start_ns, std::memory_order_release);
  slot.wall_end_ns.store(record.wall_end_ns, std::memory_order_release);
  slot.sim_start.store(record.sim_start, std::memory_order_release);
  slot.sim_end.store(record.sim_end, std::memory_order_release);
  slot.arg_name.store(record.arg_name, std::memory_order_release);
  slot.arg_value.store(record.arg_value, std::memory_order_release);
  slot.arg2_name.store(record.arg2_name, std::memory_order_release);
  slot.arg2_value.store(record.arg2_value, std::memory_order_release);
  uint64_t packed[kSpanDetailBytes / 8];
  std::memcpy(packed, record.detail, kSpanDetailBytes);
  for (size_t i = 0; i < kSpanDetailBytes / 8; ++i) {
    slot.detail[i].store(packed[i], std::memory_order_release);
  }

  slot.seq.store(seq0 + 2, std::memory_order_release);  // stable again
  ring->head.store(h + 1, std::memory_order_release);
}

std::vector<SpanRecord> FlightRecorder::Snapshot() const {
  std::vector<SpanRecord> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& ring : rings_) {
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    const uint64_t n = std::min<uint64_t>(head, ring->mask + 1);
    out.reserve(out.size() + n);
    for (uint64_t i = head - n; i < head; ++i) {
      const Slot& slot = ring->slots[i & ring->mask];
      SpanRecord record;
      bool stable = false;
      for (int attempt = 0; attempt < 4 && !stable; ++attempt) {
        const uint64_t s1 = slot.seq.load(std::memory_order_acquire);
        if (s1 & 1) continue;  // write in flight
        record.trace_id = slot.trace_id.load(std::memory_order_acquire);
        record.span_id = slot.span_id.load(std::memory_order_acquire);
        record.parent_span_id =
            slot.parent_span_id.load(std::memory_order_acquire);
        record.name = slot.name.load(std::memory_order_acquire);
        record.category = slot.category.load(std::memory_order_acquire);
        record.wall_start_ns =
            slot.wall_start_ns.load(std::memory_order_acquire);
        record.wall_end_ns = slot.wall_end_ns.load(std::memory_order_acquire);
        record.sim_start = slot.sim_start.load(std::memory_order_acquire);
        record.sim_end = slot.sim_end.load(std::memory_order_acquire);
        record.arg_name = slot.arg_name.load(std::memory_order_acquire);
        record.arg_value = slot.arg_value.load(std::memory_order_acquire);
        record.arg2_name = slot.arg2_name.load(std::memory_order_acquire);
        record.arg2_value = slot.arg2_value.load(std::memory_order_acquire);
        uint64_t packed[kSpanDetailBytes / 8];
        for (size_t d = 0; d < kSpanDetailBytes / 8; ++d) {
          packed[d] = slot.detail[d].load(std::memory_order_acquire);
        }
        std::memcpy(record.detail, packed, kSpanDetailBytes);
        // The payload loads are acquires, so none of them can sink below
        // this re-check.
        const uint64_t s2 = slot.seq.load(std::memory_order_acquire);
        stable = (s1 == s2);
      }
      if (!stable || record.name == nullptr) continue;
      record.detail[kSpanDetailBytes - 1] = '\0';
      record.thread_index = ring->thread_index;
      record.thread_name = ring->name;
      out.push_back(record);
    }
  }
  return out;
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& ring : rings_) {
    ring->head.store(0, std::memory_order_release);
    for (size_t i = 0; i <= ring->mask; ++i) {
      ring->slots[i].name.store(nullptr, std::memory_order_relaxed);
    }
  }
}

int64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& ring : rings_) {
    total += static_cast<int64_t>(ring->head.load(std::memory_order_acquire));
  }
  return total;
}

size_t FlightRecorder::ring_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rings_.size();
}

}  // namespace obs
}  // namespace imcf
