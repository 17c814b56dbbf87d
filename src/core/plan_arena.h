// Bump allocator backing the planner's per-slot columnar state.
//
// The slot evaluator flattens a SlotProblem into a handful of parallel
// arrays whose lifetime is exactly one planning pass. Allocating them
// individually costs a dozen heap round trips per slot and scatters the
// columns across the heap; the arena packs them back to back in
// cache-line-aligned blocks and recycles the blocks across slots via
// Reset().
//
// Lifetime rules (see DESIGN.md §12):
//  * An evaluator borrows the arena; it never outlives the memory. Reset()
//    or destruction of the arena invalidates every evaluator built on it —
//    callers reset once per slot, *before* constructing the slot's
//    evaluators, and never mid-plan.
//  * Reset() keeps the blocks, so a steady-state simulation performs zero
//    allocations after the first slot warms the arena up.
//  * Only trivially-destructible types may be placed in the arena; nothing
//    is destroyed on Reset().
//
// Thread-safety: none. One arena per thread, like the evaluators it backs.

#ifndef IMCF_CORE_PLAN_ARENA_H_
#define IMCF_CORE_PLAN_ARENA_H_

#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

namespace imcf {
namespace core {

/// Cache-line-aligned bump allocator with block recycling.
class PlanArena {
 public:
  /// Every allocation is aligned to this many bytes (one x86 cache line).
  static constexpr size_t kAlignment = 64;

  explicit PlanArena(size_t first_block_bytes = 16 * 1024);
  ~PlanArena();

  PlanArena(const PlanArena&) = delete;
  PlanArena& operator=(const PlanArena&) = delete;

  /// Returns `bytes` of uninitialized, kAlignment-aligned storage valid
  /// until the next Reset() (or destruction). bytes == 0 yields a valid
  /// non-null pointer.
  void* AllocateBytes(size_t bytes);

  /// Typed array allocation; the memory is uninitialized.
  template <typename T>
  T* AllocateArray(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is reclaimed without running destructors");
    static_assert(alignof(T) <= kAlignment, "over-aligned type");
    return static_cast<T*>(AllocateBytes(n * sizeof(T)));
  }

  /// Reclaims every allocation but keeps the blocks for reuse, so the next
  /// fill performs no heap traffic until it outgrows the high-water mark.
  void Reset();

  /// Bytes handed out since the last Reset() (before alignment rounding).
  size_t allocated_bytes() const { return allocated_bytes_; }
  /// Largest allocated_bytes() ever observed.
  size_t high_water_bytes() const { return high_water_bytes_; }
  /// Bytes handed out over the arena's whole life — NOT reset by Reset().
  /// Deltas of this counter attribute arena traffic to a unit of work
  /// independently of how work is grouped into passes, which is what the
  /// cost ledger's determinism contract needs (high_water_bytes depends on
  /// batch composition; this does not).
  size_t lifetime_allocated_bytes() const { return lifetime_allocated_bytes_; }
  /// Blocks currently owned (retained across Reset()).
  size_t block_count() const { return blocks_.size(); }

 private:
  struct Block {
    char* data = nullptr;  ///< kAlignment-aligned storage
    size_t size = 0;
    size_t used = 0;
  };

  /// Appends a block of at least `min_bytes`, growing geometrically.
  Block& AddBlock(size_t min_bytes);

  std::vector<Block> blocks_;
  size_t current_ = 0;  ///< index of the block being bumped
  size_t allocated_bytes_ = 0;
  size_t high_water_bytes_ = 0;
  size_t lifetime_allocated_bytes_ = 0;
};

}  // namespace core
}  // namespace imcf

#endif  // IMCF_CORE_PLAN_ARENA_H_
