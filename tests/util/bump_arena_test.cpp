// util::BumpArena: the fixed-capacity staging allocator the whtd client
// lays over its shared-memory region.  Offsets, 64-byte rounding and the
// reconnect check (contains) are what the other process relies on.
#include "util/bump_arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "util/aligned_buffer.hpp"

namespace whtlab::util {
namespace {

bool line_aligned(const double* p) {
  return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
}

TEST(BumpArena, RoundsEveryAllocationUpToACacheLine) {
  AlignedBuffer storage(256);
  BumpArena arena;
  arena.attach(storage.data(), storage.size());
  double* a = arena.allocate(1);
  double* b = arena.allocate(9);
  double* c = arena.allocate(8);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(a, storage.data());
  EXPECT_EQ(b, a + 8);   // 1 double takes a whole 64-byte line
  EXPECT_EQ(c, b + 16);  // 9 doubles take two
  EXPECT_TRUE(line_aligned(a));
  EXPECT_TRUE(line_aligned(b));
  EXPECT_TRUE(line_aligned(c));
  EXPECT_EQ(arena.used(), 32u);
}

TEST(BumpArena, ReturnsNullWhenARequestDoesNotFit) {
  AlignedBuffer storage(64);
  BumpArena arena;
  arena.attach(storage.data(), storage.size());
  ASSERT_NE(arena.allocate(60), nullptr);  // rounds to all 64
  EXPECT_EQ(arena.allocate(1), nullptr);
  EXPECT_EQ(arena.used(), 64u);            // a failed request takes nothing
  arena.reset();
  EXPECT_EQ(arena.allocate(65), nullptr);  // 72 after rounding
  EXPECT_EQ(arena.used(), 0u);
}

TEST(BumpArena, ResetReclaimsTheWholeArena) {
  AlignedBuffer storage(128);
  BumpArena arena;
  arena.attach(storage.data(), storage.size());
  double* first = arena.allocate(100);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(arena.allocate(100), nullptr);
  arena.reset();
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_EQ(arena.allocate(100), first);  // same storage, from the base again
}

TEST(BumpArena, OffsetsRoundTripThroughAt) {
  AlignedBuffer storage(512);
  BumpArena arena;
  arena.attach(storage.data(), storage.size());
  arena.allocate(3);
  double* p = arena.allocate(40);
  ASSERT_NE(p, nullptr);
  const std::size_t offset = arena.offset_of(p);
  EXPECT_EQ(offset, 8u);
  EXPECT_EQ(arena.at(offset), p);
  EXPECT_EQ(arena.offset_of(arena.at(200)), 200u);
}

TEST(BumpArena, ContainsFollowsTheCurrentAttachment) {
  BumpArena arena;
  EXPECT_FALSE(arena.attached());
  AlignedBuffer old_region(64);
  EXPECT_FALSE(arena.contains(old_region.data()));  // nothing attached yet

  arena.attach(old_region.data(), old_region.size());
  EXPECT_TRUE(arena.attached());
  double* staged = arena.allocate(8);
  ASSERT_NE(staged, nullptr);
  EXPECT_TRUE(arena.contains(staged));
  EXPECT_TRUE(arena.contains(old_region.data() + 63));
  EXPECT_FALSE(arena.contains(old_region.data() + 64));  // one past the end

  // A reconnect attaches a fresh region: pointers staged before it are
  // foreign now, and the cursor starts over.
  AlignedBuffer new_region(64);
  arena.attach(new_region.data(), new_region.size());
  EXPECT_FALSE(arena.contains(staged));
  EXPECT_TRUE(arena.contains(new_region.data()));
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_EQ(arena.allocate(8), new_region.data());
}

TEST(BumpArena, MaxAllocationIsTheCapacityInWholeLines) {
  AlignedBuffer storage(100);
  BumpArena arena;
  arena.attach(storage.data(), storage.size());
  EXPECT_EQ(arena.capacity(), 100u);
  EXPECT_EQ(arena.max_allocation(), 96u);
  EXPECT_EQ(arena.allocate(97), nullptr);  // would round to 104
  EXPECT_NE(arena.allocate(96), nullptr);

  BumpArena tiny;
  tiny.attach(storage.data(), 7);
  EXPECT_EQ(tiny.max_allocation(), 0u);
  EXPECT_EQ(tiny.allocate(1), nullptr);
}

}  // namespace
}  // namespace whtlab::util
