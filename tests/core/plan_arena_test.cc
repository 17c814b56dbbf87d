// PlanArena contract tests: alignment, accounting, block retention across
// Reset() (also under the slot evaluator's real allocation pattern), and
// non-overlap of handed-out regions (the lifetime rules are documented in
// plan_arena.h and DESIGN.md §12).

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/evaluator.h"
#include "core/hill_climber.h"
#include "core/plan_arena.h"
#include "random_problem.h"

namespace imcf {
namespace core {
namespace {

bool IsAligned(const void* p) {
  return reinterpret_cast<uintptr_t>(p) % PlanArena::kAlignment == 0;
}

TEST(PlanArenaTest, EveryAllocationIsCacheLineAligned) {
  PlanArena arena;
  // Deliberately awkward sizes so the bump pointer lands off-alignment
  // between calls and has to round back up.
  const size_t sizes[] = {1, 3, 64, 65, 7, 1000, 13, 4096, 1};
  for (size_t bytes : sizes) {
    void* p = arena.AllocateBytes(bytes);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(IsAligned(p)) << "allocation of " << bytes << " bytes";
  }
  EXPECT_TRUE(IsAligned(arena.AllocateArray<double>(17)));
  EXPECT_TRUE(IsAligned(arena.AllocateArray<int32_t>(3)));
}

TEST(PlanArenaTest, ZeroByteAllocationIsValidAndNonNull) {
  PlanArena arena;
  void* a = arena.AllocateBytes(0);
  EXPECT_NE(a, nullptr);
  EXPECT_TRUE(IsAligned(a));
}

TEST(PlanArenaTest, RegionsDoNotOverlap) {
  PlanArena arena(256);  // small first block to force several growths
  std::vector<std::pair<char*, size_t>> regions;
  const size_t sizes[] = {32, 100, 256, 7, 512, 64, 2048, 1, 300};
  for (size_t bytes : sizes) {
    char* p = static_cast<char*>(arena.AllocateBytes(bytes));
    std::memset(p, 0xAB, bytes);
    regions.emplace_back(p, bytes);
  }
  for (size_t i = 0; i < regions.size(); ++i) {
    for (size_t j = i + 1; j < regions.size(); ++j) {
      const char* a_lo = regions[i].first;
      const char* a_hi = a_lo + regions[i].second;
      const char* b_lo = regions[j].first;
      const char* b_hi = b_lo + regions[j].second;
      EXPECT_TRUE(a_hi <= b_lo || b_hi <= a_lo)
          << "regions " << i << " and " << j << " overlap";
    }
  }
  // Writes through one region must not have corrupted another: fill each
  // with a distinct byte, then verify all of them.
  for (size_t i = 0; i < regions.size(); ++i) {
    std::memset(regions[i].first, static_cast<int>(i + 1),
                regions[i].second);
  }
  for (size_t i = 0; i < regions.size(); ++i) {
    for (size_t b = 0; b < regions[i].second; ++b) {
      ASSERT_EQ(regions[i].first[b], static_cast<char>(i + 1))
          << "region " << i << " byte " << b;
    }
  }
}

TEST(PlanArenaTest, AccountingTracksAllocationsAndHighWater) {
  PlanArena arena;
  EXPECT_EQ(arena.allocated_bytes(), 0u);
  arena.AllocateBytes(100);
  arena.AllocateBytes(28);
  EXPECT_EQ(arena.allocated_bytes(), 128u);
  EXPECT_GE(arena.high_water_bytes(), 128u);
  const size_t high = arena.high_water_bytes();
  arena.Reset();
  EXPECT_EQ(arena.allocated_bytes(), 0u);
  EXPECT_EQ(arena.high_water_bytes(), high) << "high water survives Reset";
  arena.AllocateBytes(16);
  EXPECT_EQ(arena.allocated_bytes(), 16u);
  EXPECT_EQ(arena.high_water_bytes(), high);
}

TEST(PlanArenaTest, ResetRetainsBlocksSoSteadyStateDoesNotAllocate) {
  PlanArena arena(1024);
  // Warm up well past the first block.
  for (int i = 0; i < 16; ++i) arena.AllocateBytes(1024);
  const size_t warmed_blocks = arena.block_count();
  EXPECT_GE(warmed_blocks, 1u);
  // Steady state: the same fill pattern after Reset() must be served
  // entirely from retained blocks.
  for (int round = 0; round < 10; ++round) {
    arena.Reset();
    for (int i = 0; i < 16; ++i) {
      void* p = arena.AllocateBytes(1024);
      ASSERT_NE(p, nullptr);
      ASSERT_TRUE(IsAligned(p));
    }
    EXPECT_EQ(arena.block_count(), warmed_blocks) << "round " << round;
  }
}

TEST(PlanArenaTest, OversizedRequestGetsItsOwnBlock) {
  PlanArena arena(64);
  // Far larger than the first block: must still succeed, aligned.
  char* p = static_cast<char*>(arena.AllocateBytes(1 << 20));
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(IsAligned(p));
  std::memset(p, 0x5C, 1 << 20);  // the whole region must be writable
  EXPECT_EQ(arena.allocated_bytes(), static_cast<size_t>(1 << 20));
}

// The simulator's per-slot pattern: reset, build the slot's evaluator on
// the arena, plan. Once the first plan has grown the arena, same-shaped
// slots are served from retained blocks.
TEST(PlanArenaTest, ArenaStopsGrowingOnceWarm) {
  const HillClimbingPlanner planner;
  Rng problem_rng(0xAEA0);
  const SlotProblem problem = testutil::RandomProblem(&problem_rng, 4, 4);
  PlanArena arena;
  size_t warmed_blocks = 0;
  size_t high_water = 0;
  for (int i = 0; i < 21; ++i) {
    arena.Reset();
    const SlotEvaluator evaluator(&problem, &arena);
    Rng rng(MixHash(2, static_cast<uint64_t>(i)));
    planner.PlanSlot(evaluator, &rng);
    if (i == 0) {
      warmed_blocks = arena.block_count();
      high_water = arena.high_water_bytes();
      continue;
    }
    EXPECT_EQ(arena.block_count(), warmed_blocks) << "plan " << i;
    EXPECT_EQ(arena.high_water_bytes(), high_water) << "plan " << i;
  }
}

TEST(PlanArenaTest, TypedArraysAreUsable) {
  PlanArena arena;
  double* d = arena.AllocateArray<double>(33);
  int32_t* i32 = arena.AllocateArray<int32_t>(7);
  uint64_t* u64 = arena.AllocateArray<uint64_t>(5);
  for (int i = 0; i < 33; ++i) d[i] = 1.5 * i;
  for (int i = 0; i < 7; ++i) i32[i] = -i;
  for (int i = 0; i < 5; ++i) u64[i] = ~static_cast<uint64_t>(i);
  for (int i = 0; i < 33; ++i) ASSERT_EQ(d[i], 1.5 * i);
  for (int i = 0; i < 7; ++i) ASSERT_EQ(i32[i], -i);
  for (int i = 0; i < 5; ++i) ASSERT_EQ(u64[i], ~static_cast<uint64_t>(i));
}

}  // namespace
}  // namespace core
}  // namespace imcf
