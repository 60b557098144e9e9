#include "rtcore/cache_sim.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"

namespace rtnn::rt {
namespace {

TEST(CacheSim, ColdMissThenHit) {
  Cache cache(CacheConfig{1024, 64, 2});
  EXPECT_FALSE(cache.access(0x100));
  EXPECT_TRUE(cache.access(0x100));
  EXPECT_TRUE(cache.access(0x13f));  // same 64B line
  EXPECT_FALSE(cache.access(0x140));  // next line
  EXPECT_EQ(cache.stats().accesses, 4u);
  EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(CacheSim, LruEvictionWithinSet) {
  // 2-way cache, 8 sets of 64B lines: addresses with the same set index
  // but different tags compete for 2 ways.
  Cache cache(CacheConfig{1024, 64, 2});
  const std::uint64_t stride = 8 * 64;  // same set, different tag
  EXPECT_FALSE(cache.access(0 * stride));
  EXPECT_FALSE(cache.access(1 * stride));
  EXPECT_TRUE(cache.access(0 * stride));   // both resident
  EXPECT_FALSE(cache.access(2 * stride));  // evicts LRU (= 1*stride)
  EXPECT_FALSE(cache.access(1 * stride));  // 1 was evicted
  EXPECT_TRUE(cache.access(2 * stride));
}

TEST(CacheSim, CapacityWorkingSetFits) {
  // A working set equal to the cache size should hit ~100% after warmup.
  const CacheConfig cfg{4096, 64, 4};
  Cache cache(cfg);
  const int lines = 4096 / 64;
  for (int pass = 0; pass < 3; ++pass) {
    for (int l = 0; l < lines; ++l) {
      cache.access(static_cast<std::uint64_t>(l) * 64);
    }
  }
  // First pass misses, the rest hit.
  EXPECT_EQ(cache.stats().accesses, static_cast<std::uint64_t>(3 * lines));
  EXPECT_EQ(cache.stats().hits, static_cast<std::uint64_t>(2 * lines));
}

TEST(CacheSim, StreamingThrashesWhenLarger) {
  const CacheConfig cfg{4096, 64, 4};
  Cache cache(cfg);
  const int lines = 4 * (4096 / 64);
  for (int pass = 0; pass < 3; ++pass) {
    for (int l = 0; l < lines; ++l) {
      cache.access(static_cast<std::uint64_t>(l) * 64);
    }
  }
  EXPECT_EQ(cache.stats().hits, 0u);  // pure LRU streaming, 4x capacity
}

TEST(CacheSim, ResetClears) {
  Cache cache(CacheConfig{1024, 64, 2});
  cache.access(0);
  cache.reset();
  EXPECT_EQ(cache.stats().accesses, 0u);
  EXPECT_FALSE(cache.access(0));  // cold again
}

TEST(CacheSim, RejectsBadGeometry) {
  EXPECT_THROW(Cache(CacheConfig{1024, 60, 2}), Error);   // non-pow2 line
  EXPECT_THROW(Cache(CacheConfig{64, 64, 2}), Error);     // smaller than a set
}

TEST(MemoryHierarchySim, L2CatchesL1Misses) {
  MemoryHierarchy mem(CacheConfig{1024, 64, 2}, CacheConfig{16 * 1024, 64, 4});
  // Touch 64 lines (4 KiB): overflows L1 (1 KiB) but fits L2.
  for (int pass = 0; pass < 2; ++pass) {
    for (int l = 0; l < 64; ++l) {
      mem.access(static_cast<std::uint64_t>(l) * 64);
    }
  }
  EXPECT_GT(mem.l2_stats().accesses, 0u);
  // Second pass should hit in L2 for lines that missed L1.
  EXPECT_GT(mem.l2_stats().hits, 0u);
  EXPECT_LT(mem.l1_stats().hit_rate(), 1.0);
}

TEST(MemoryHierarchySim, AccessRangeTouchesEveryCoveredLine) {
  // 128 B L1 lines: the line accounting of multi-line fetches. A 256 B
  // wide node spans 2 lines; an aligned 80 B object spans 1; a small
  // range straddling a boundary spans 2; an empty range touches nothing.
  const CacheConfig l1{2048, 128, 2};
  const CacheConfig l2{16 * 1024, 128, 4};
  {
    MemoryHierarchy mem(l1, l2);
    mem.access_range(0, 256);
    EXPECT_EQ(mem.l1_stats().accesses, 2u);
  }
  {
    MemoryHierarchy mem(l1, l2);
    mem.access_range(0, 80);
    EXPECT_EQ(mem.l1_stats().accesses, 1u);
  }
  {
    MemoryHierarchy mem(l1, l2);
    mem.access_range(120, 16);  // 8 bytes before the boundary, 8 after
    EXPECT_EQ(mem.l1_stats().accesses, 2u);
  }
  {
    MemoryHierarchy mem(l1, l2);
    mem.access_range(64, 0);
    EXPECT_EQ(mem.l1_stats().accesses, 0u);
  }
}

TEST(CacheStatsArith, Accumulate) {
  CacheStats a{10, 5};
  const CacheStats b{20, 10};
  a += b;
  EXPECT_EQ(a.accesses, 30u);
  EXPECT_EQ(a.hits, 15u);
  EXPECT_DOUBLE_EQ(a.hit_rate(), 0.5);
  EXPECT_DOUBLE_EQ(CacheStats{}.hit_rate(), 0.0);
}

}  // namespace
}  // namespace rtnn::rt
