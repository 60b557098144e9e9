// BVH traversal engine — the RT-core substitute.
//
// Two execution models:
//
//  * kIndependent — every ray traverses on its own stack; rays are spread
//    across OpenMP threads. This is the fast path used for wall-clock
//    performance measurements. It traverses either the binary LBVH or —
//    the production configuration — the flattened 8-wide SoA WideBvh,
//    where one ray-vs-node step tests all eight child AABBs with AVX2
//    (scalar fallback when built with RTNN_ENABLE_AVX2=OFF). Rays are
//    batched into chunks that reuse one per-thread traversal stack, and
//    chunks inherit the caller's Morton ordering so consecutive rays walk
//    overlapping subtrees.
//
//  * kWarpLockstep — rays are grouped into 32-lane warps that advance in
//    lockstep, the way the SIMT hardware schedules them (paper section
//    3.2.1: "OptiX groups every 32 adjacent rays generated in the RG
//    shader into a warp"). In each lockstep iteration every active lane
//    pops one node; lanes that popped *different* nodes serialize into
//    sub-steps (control-flow divergence), and each unique node fetch is
//    replayed through the cache simulator. Incoherent rays therefore cost
//    more sub-steps, idle more lane slots (lower occupancy) and miss the
//    caches more — exactly the effects of paper Figures 5 and 6. This
//    model always walks the binary BVH so its step/cache/occupancy
//    figures stay bit-identical to the hardware characterization.
//
// Every walk tests each node and primitive box grown by the launch's AABB
// half-width h (TraceConfig::aabb_half_width) as [fl(lo - h), fl(hi + h)].
// FP32 rounding is monotone, so over a bare-point tree these are bitwise
// the bounds the same tree holds after a refit to Aabb::cube(p, 2h); h = 0
// tests the stored boxes as they are.
//
// A program may also narrow its rays (NarrowingProgram): the independent
// walks re-read its per-ray cull half-width after every IS call and test
// every later box at min(h, cull), and the wide walk then handles a
// node's hits nearest-first so the cull falls early. The warp-lockstep
// model keeps the launch width: RT hardware cannot shrink a ray's boxes
// mid-traversal, and its counters are the hardware figures.
//
// Stats are accumulated in per-worker slots (StatsAccumulator) and summed
// once per launch — no locks on the hot path.
//
// The `Program` template parameter plays the role of the compiled shader
// kernel: `program.intersect(ray_id, prim_id)` is the IS shader, invoked
// for each primitive whose AABB the ray intersects; returning
// TraceAction::kTerminate is the AH shader's optixTerminateRay (used by
// RTNN when K neighbors have been found, and by the scheduling pass to
// stop at the first hit).
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <optional>
#include <span>

#ifdef RTNN_HAVE_AVX2
#include <immintrin.h>
#endif

#include "core/aabb.hpp"
#include "core/error.hpp"
#include "core/parallel.hpp"
#include "rtcore/bvh.hpp"
#include "rtcore/cache_sim.hpp"
#include "rtcore/launch_stats.hpp"
#include "rtcore/tlas.hpp"
#include "rtcore/wide_bvh.hpp"

namespace rtnn::rt {

enum class TraceAction : std::uint8_t { kContinue = 0, kTerminate = 1 };

enum class ExecutionModel : std::uint8_t { kIndependent = 0, kWarpLockstep = 1 };

struct TraceConfig {
  ExecutionModel model = ExecutionModel::kIndependent;
  /// Run the launch across threads. Disable for bit-exact cache-simulation
  /// experiments (one shared memory hierarchy).
  bool parallel = true;
  /// Attach the cache simulator to node/primitive fetches. Supported by
  /// the warp-lockstep model only (the paper-characterization path). Adds
  /// overhead; meant for characterization runs.
  bool simulate_caches = false;
  CacheConfig l1{64 * 1024, 128, 4};
  CacheConfig l2{4 * 1024 * 1024, 128, 16};
  /// Collect LaunchStats counters. Disabling removes the accounting from
  /// the hot loop for pure wall-clock runs.
  bool collect_stats = true;
  /// Half the AABB width the launch searches at (see the file comment).
  float aabb_half_width = 0.0f;
};

/// Software prefetch for the traversal inner loop: read-intent, keep in
/// all cache levels. A hint only — no-op where unsupported.
#if defined(__GNUC__) || defined(__clang__)
#define RTNN_PREFETCH(addr) __builtin_prefetch((addr), 0, 3)
#else
#define RTNN_PREFETCH(addr) ((void)0)
#endif

/// A program that narrows its rays: cull_half_width(ray) bounds, per axis,
/// how far from the ray's origin a primitive can lie and still matter to
/// the ray (+inf until the program knows such a bound). It may only fall
/// as the ray's IS calls proceed.
template <typename Program>
concept NarrowingProgram = requires(const Program& program, std::uint32_t ray) {
  { program.cull_half_width(ray) } -> std::same_as<float>;
};

namespace detail {

/// The half-width a ray's next box test uses: the launch's h, or the
/// program's cull once that is smaller. Constant h for other programs.
template <typename Program>
float narrowed_half_width(const Program& program, std::uint32_t ray_id, float h) {
  if constexpr (NarrowingProgram<Program>) {
    return std::min(h, program.cull_half_width(ray_id));
  } else {
    return h;
  }
}

constexpr std::uint32_t kMaxStackDepth = 128;
/// The wide stack holds up to (width-1) net pushes per level.
constexpr std::uint32_t kWideStackDepth = (kWideBvhWidth - 1) * kMaxStackDepth + 1;
constexpr std::uint32_t kWarpSize = 32;
// Pretend-device addresses for the cache simulator: BVH nodes and
// primitive AABBs live in distinct regions with GPU-like strides.
constexpr std::uint64_t kNodeStride = 64;
constexpr std::uint64_t kPrimRegionBase = std::uint64_t{1} << 40;
constexpr std::uint64_t kPrimStride = 32;

/// Per-ray traversal state for the lockstep engine.
struct LaneState {
  std::uint32_t stack[kMaxStackDepth];
  std::uint32_t sp = 0;
  std::uint32_t ray_id = 0;
  bool terminated = false;

  bool active() const { return !terminated && sp > 0; }
};

/// The warp-lockstep model's view of a program: the IS shader alone, so
/// the lockstep walk never narrows (see the file comment).
template <typename Program>
struct FixedWidth {
  Program& inner;

  TraceAction intersect(std::uint32_t ray_id, std::uint32_t prim) {
    return inner.intersect(ray_id, prim);
  }
};

/// Tests a binary leaf's primitives at `hw` and runs the IS shader on the
/// hits; `hw` narrows from the launch's `h` after every IS call.
template <typename Program>
TraceAction process_leaf(const Bvh& bvh, const BvhNode& node, const Ray& ray, float h,
                         float& hw, std::uint32_t ray_id, Program& program,
                         LaunchStats* stats, MemoryHierarchy* mem) {
  const auto prim_order = bvh.prim_order();
  const auto prim_aabbs = bvh.prim_aabbs();
  for (std::uint32_t s = node.first; s < node.first + node.count; ++s) {
    const std::uint32_t prim = prim_order[s];
    if (mem) mem->access(kPrimRegionBase + prim * kPrimStride);
    if (stats) ++stats->aabb_tests;
    if (!ray_intersects_aabb(ray, prim_aabbs[prim].expanded(hw))) continue;
    if (stats) ++stats->is_calls;
    if (program.intersect(ray_id, prim) == TraceAction::kTerminate) {
      return TraceAction::kTerminate;
    }
    hw = narrowed_half_width(program, ray_id, h);
  }
  return TraceAction::kContinue;
}

/// Classic single-ray stack traversal.
template <typename Program>
void trace_one(const Bvh& bvh, const Ray& ray, float h, std::uint32_t ray_id,
               Program& program, LaunchStats* stats) {
  if (bvh.empty()) return;
  std::uint32_t stack[kMaxStackDepth];
  std::uint32_t sp = 0;
  stack[sp++] = bvh.root();
  const auto nodes = bvh.nodes();
  float hw = narrowed_half_width(program, ray_id, h);
  while (sp > 0) {
    const BvhNode& node = nodes[stack[--sp]];
    if (stats) {
      ++stats->node_visits;
      ++stats->aabb_tests;
    }
    if (!ray_intersects_aabb(ray, node.bounds.expanded(hw))) continue;
    if (node.is_leaf()) {
      if (process_leaf(bvh, node, ray, h, hw, ray_id, program, stats, nullptr) ==
          TraceAction::kTerminate) {
        if (stats) ++stats->terminated_rays;
        return;
      }
    } else {
      RTNN_DCHECK(sp + 2 <= kMaxStackDepth, "traversal stack overflow");
      stack[sp++] = node.left;
      stack[sp++] = node.right;
    }
  }
}

/// Tests `ray` against all eight child slots of `node`, grown by `h`, in
/// one step and returns the bitmask of intersected slots (bit i = slot i).
/// Must agree bit-for-bit with ray_intersects_aabb on every grown slot box;
/// empty slots may report spurious hits and are masked off by the caller
/// via valid_mask(). `inv_dir` is the precomputed 1/dir (±inf for zero
/// components), hoisted out of the per-node loop.
#ifdef RTNN_HAVE_AVX2
/// Lane i of each register holds child i's coordinate, grown by `h` with
/// the single subtract/add Aabb::expanded() rounds; NaN semantics match
/// the scalar test.
inline std::uint32_t wide_node_hits(const WideBvhNode& node, const Ray& ray,
                                    const Vec3& inv_dir, float h) {
  const __m256 hv = _mm256_set1_ps(h);
  const __m256 minx = _mm256_sub_ps(_mm256_load_ps(node.minx), hv);
  const __m256 miny = _mm256_sub_ps(_mm256_load_ps(node.miny), hv);
  const __m256 minz = _mm256_sub_ps(_mm256_load_ps(node.minz), hv);
  const __m256 maxx = _mm256_add_ps(_mm256_load_ps(node.maxx), hv);
  const __m256 maxy = _mm256_add_ps(_mm256_load_ps(node.maxy), hv);
  const __m256 maxz = _mm256_add_ps(_mm256_load_ps(node.maxz), hv);
  const __m256 ox = _mm256_set1_ps(ray.origin.x);
  const __m256 oy = _mm256_set1_ps(ray.origin.y);
  const __m256 oz = _mm256_set1_ps(ray.origin.z);

  // Condition 2 of paper Figure 2: the origin lies inside the box.
  __m256 inside = _mm256_and_ps(_mm256_cmp_ps(ox, minx, _CMP_GE_OQ),
                                _mm256_cmp_ps(ox, maxx, _CMP_LE_OQ));
  inside = _mm256_and_ps(inside, _mm256_and_ps(_mm256_cmp_ps(oy, miny, _CMP_GE_OQ),
                                               _mm256_cmp_ps(oy, maxy, _CMP_LE_OQ)));
  inside = _mm256_and_ps(inside, _mm256_and_ps(_mm256_cmp_ps(oz, minz, _CMP_GE_OQ),
                                               _mm256_cmp_ps(oz, maxz, _CMP_LE_OQ)));

  // Condition 1: the slab test, with the scalar path's exact NaN
  // semantics. `tnear > tfar` with a NaN is false (no swap), and
  // vmaxps/vminps return their *second* operand when the first is NaN —
  // matching the scalar `t > t0 ? t : t0` that keeps t0.
  __m256 t0 = _mm256_set1_ps(ray.tmin);
  __m256 t1 = _mm256_set1_ps(ray.tmax);
  const auto slab_axis = [&](__m256 lo, __m256 hi, __m256 o, float inv) {
    const __m256 invv = _mm256_set1_ps(inv);
    const __m256 tn = _mm256_mul_ps(_mm256_sub_ps(lo, o), invv);
    const __m256 tf = _mm256_mul_ps(_mm256_sub_ps(hi, o), invv);
    const __m256 swap = _mm256_cmp_ps(tn, tf, _CMP_GT_OQ);
    const __m256 tnear = _mm256_blendv_ps(tn, tf, swap);
    const __m256 tfar = _mm256_blendv_ps(tf, tn, swap);
    t0 = _mm256_max_ps(tnear, t0);
    t1 = _mm256_min_ps(tfar, t1);
  };
  slab_axis(minx, maxx, ox, inv_dir.x);
  slab_axis(miny, maxy, oy, inv_dir.y);
  slab_axis(minz, maxz, oz, inv_dir.z);
  const __m256 slab = _mm256_cmp_ps(t0, t1, _CMP_LE_OQ);

  return static_cast<std::uint32_t>(_mm256_movemask_ps(_mm256_or_ps(inside, slab)));
}
#else
inline std::uint32_t wide_node_hits(const WideBvhNode& node, const Ray& ray,
                                    const Vec3& inv_dir, float h) {
  std::uint32_t mask = 0;
  for (std::uint32_t i = 0; i < kWideBvhWidth; ++i) {
    const Aabb box{{node.minx[i], node.miny[i], node.minz[i]},
                   {node.maxx[i], node.maxy[i], node.maxz[i]}};
    if (ray_intersects_aabb(ray, box.expanded(h), inv_dir)) mask |= 1u << i;
  }
  return mask;
}
#endif

/// Writes the slots set in `mask` to `order` nearest-first: ascending
/// squared gap between `origin` and the slot's stored box, ties in slot
/// order. Returns how many were written.
inline std::uint32_t nearest_first(const WideBvhNode& node, const Vec3& origin,
                                   std::uint32_t mask, std::uint32_t* order) {
  float key[kWideBvhWidth];
  std::uint32_t n = 0;
  while (mask != 0) {
    const auto slot = static_cast<std::uint32_t>(std::countr_zero(mask));
    mask &= mask - 1;
    const float dx = std::max({node.minx[slot] - origin.x, origin.x - node.maxx[slot], 0.0f});
    const float dy = std::max({node.miny[slot] - origin.y, origin.y - node.maxy[slot], 0.0f});
    const float dz = std::max({node.minz[slot] - origin.z, origin.z - node.maxz[slot], 0.0f});
    const float gap2 = dx * dx + dy * dy + dz * dz;
    std::uint32_t i = n++;
    for (; i > 0 && key[i - 1] > gap2; --i) {
      key[i] = key[i - 1];
      order[i] = order[i - 1];
    }
    key[i] = gap2;
    order[i] = slot;
  }
  return n;
}

/// Single-ray traversal of the 8-wide SoA BVH. `stack` is the caller's
/// reusable per-thread buffer (kWideStackDepth entries).
///
/// Inner-loop micro-optimizations:
///  * after each pop, the next stack entry's node line is prefetched — by
///    the time this node's 8-box test and leaf work retire, the next
///    node's first line is usually in flight;
///  * interior children are buffered and pushed in reverse slot order, so
///    pops proceed in ascending slot order — each BFS block of the build
///    allocates a parent's children at consecutive indices, making
///    consecutive pops walk consecutive node addresses.
/// A NarrowingProgram instead handles a node's hits nearest-first: leaves
/// in that order, and the nearest interior child is popped first.
template <typename Program>
void trace_one_wide(const WideBvh& bvh, const Ray& ray, float h, std::uint32_t ray_id,
                    Program& program, LaunchStats* stats, std::uint32_t* stack) {
  const auto nodes = bvh.nodes();
  const auto leaves = bvh.leaves();
  const auto prim_order = bvh.prim_order();
  const auto prim_aabbs = bvh.prim_aabbs();
  const Vec3 inv_dir = reciprocal_dir(ray);
  float hw = narrowed_half_width(program, ray_id, h);
  std::uint32_t sp = 0;
  stack[sp++] = bvh.root();
  while (sp > 0) {
    const std::uint32_t node_id = stack[--sp];
    if (sp > 0) RTNN_PREFETCH(&nodes[stack[sp - 1]]);
    const WideBvhNode& node = nodes[node_id];
    if (stats) {
      ++stats->node_visits;
      stats->aabb_tests += node.count;
    }
    std::uint32_t mask = wide_node_hits(node, ray, inv_dir, hw) & node.valid_mask();
    std::uint32_t pushes[kWideBvhWidth];
    std::uint32_t n_push = 0;
    // Buffers an interior child or runs a leaf's primitives through the
    // IS shader; false once the ray terminated.
    const auto visit = [&](std::uint32_t slot) {
      const std::uint32_t child = node.child[slot];
      if (!(child & WideBvhNode::kLeafBit)) {
        pushes[n_push++] = child;
        return true;
      }
      const WideLeaf leaf = leaves[child & ~WideBvhNode::kLeafBit];
      // Single-primitive leaves (the RTNN configuration) were already
      // tested: the slot box *is* the primitive's AABB. Wider leaves
      // re-test each primitive against the ray like the binary path.
      for (std::uint32_t s = leaf.first; s < leaf.first + leaf.count; ++s) {
        const std::uint32_t prim = prim_order[s];
        if (leaf.count > 1) {
          if (stats) ++stats->aabb_tests;
          if (!ray_intersects_aabb(ray, prim_aabbs[prim].expanded(hw), inv_dir)) continue;
        }
        if (stats) ++stats->is_calls;
        if (program.intersect(ray_id, prim) == TraceAction::kTerminate) {
          if (stats) ++stats->terminated_rays;
          return false;
        }
        hw = narrowed_half_width(program, ray_id, h);
      }
      return true;
    };
    if constexpr (NarrowingProgram<Program>) {
      std::uint32_t order[kWideBvhWidth];
      const std::uint32_t n_hits = nearest_first(node, ray.origin, mask, order);
      for (std::uint32_t i = 0; i < n_hits; ++i) {
        if (!visit(order[i])) return;
      }
    } else {
      while (mask != 0) {
        const auto slot = static_cast<std::uint32_t>(std::countr_zero(mask));
        mask &= mask - 1;
        if (!visit(slot)) return;
      }
    }
    RTNN_DCHECK(sp + n_push <= kWideStackDepth, "wide traversal stack overflow");
    for (std::uint32_t i = n_push; i > 0; --i) stack[sp++] = pushes[i - 1];
  }
}

/// Shader shim between a tile's bottom-level walk and the caller's
/// program: BLAS primitive ids are tile-local slots, so intersect()
/// remaps them through the tile's id list before forwarding. kTerminate
/// is latched so the TLAS walk can stop popping top-level nodes — the
/// inner walk already returned, and its stats (including
/// terminated_rays) were counted exactly once. A narrowing program's cull
/// is per ray and passes through unchanged.
template <typename Program>
struct TileProgram {
  Program& inner;
  const std::uint32_t* to_global;
  bool terminated = false;

  TraceAction intersect(std::uint32_t ray_id, std::uint32_t local_prim) {
    const TraceAction action = inner.intersect(ray_id, to_global[local_prim]);
    if (action == TraceAction::kTerminate) terminated = true;
    return action;
  }

  float cull_half_width(std::uint32_t ray_id) const
    requires NarrowingProgram<Program>
  {
    return inner.cull_half_width(ray_id);
  }
};

/// Single-ray two-level traversal: a binary stack walk of the top tree
/// culls whole tiles; each intersected tile leaf lazily builds (first
/// route) and then runs the ordinary wide BLAS walk with ids
/// remapped to global. Candidate sets match the monolithic path because
/// tile bounds contain every member AABB — top-level culling only skips
/// tiles the ray provably misses — and tiles partition the primitives, so
/// the union of per-tile candidates is exactly the monolithic candidate
/// set. `wide_stack` is the caller's kWideStackDepth scratch reused by
/// every BLAS walk (tiles traverse one at a time). A narrowing program's
/// cull carries from tile to tile: top-level tests after a BLAS walk use
/// the width it narrowed to.
template <typename Program>
void trace_one_tiled(const TiledBvh& tlas, const Ray& ray, float h, std::uint32_t ray_id,
                     Program& program, LaunchStats* stats, std::uint32_t* wide_stack) {
  const Bvh& top = tlas.top();
  if (top.empty()) return;
  std::uint32_t stack[kMaxStackDepth];
  std::uint32_t sp = 0;
  stack[sp++] = top.root();
  const auto nodes = top.nodes();
  const auto tile_order = top.prim_order();
  float hw = narrowed_half_width(program, ray_id, h);
  while (sp > 0) {
    const BvhNode& node = nodes[stack[--sp]];
    if (stats) {
      ++stats->node_visits;
      ++stats->aabb_tests;
    }
    if (!ray_intersects_aabb(ray, node.bounds.expanded(hw))) continue;
    if (node.is_leaf()) {
      for (std::uint32_t s = node.first; s < node.first + node.count; ++s) {
        const TiledBvh::Tile& tile = tlas.tile(tile_order[s]);
        const TiledBvh::TileIndex& index = tile.ensure_index(tlas.leaf_size());
        TileProgram<Program> tp{program, tile.prim_ids().data()};
        trace_one_wide(index.wide, ray, h, ray_id, tp, stats, wide_stack);
        if (tp.terminated) return;
        hw = narrowed_half_width(program, ray_id, h);
      }
    } else {
      RTNN_DCHECK(sp + 2 <= kMaxStackDepth, "traversal stack overflow");
      stack[sp++] = node.left;
      stack[sp++] = node.right;
    }
  }
}

/// Lockstep traversal of one warp of (up to 32) rays.
template <typename Program>
void trace_warp(const Bvh& bvh, std::span<const Ray> rays, float h, std::uint32_t first_ray,
                std::uint32_t lane_count, Program& program, LaunchStats& stats,
                MemoryHierarchy* mem) {
  FixedWidth<Program> fixed{program};
  LaneState lanes[kWarpSize];
  for (std::uint32_t l = 0; l < lane_count; ++l) {
    lanes[l].ray_id = first_ray + l;
    lanes[l].stack[lanes[l].sp++] = bvh.root();
  }
  ++stats.warps;
  const auto nodes = bvh.nodes();

  for (;;) {
    // Each active lane pops its next node; the warp then serializes over
    // the set of distinct nodes popped this iteration.
    std::uint32_t popped[kWarpSize];
    std::uint32_t active_lanes[kWarpSize];
    std::uint32_t n_active = 0;
    for (std::uint32_t l = 0; l < lane_count; ++l) {
      if (!lanes[l].active()) continue;
      popped[n_active] = lanes[l].stack[--lanes[l].sp];
      active_lanes[n_active] = l;
      ++n_active;
    }
    if (n_active == 0) break;
    ++stats.warp_iterations;

    std::uint32_t done[kWarpSize] = {};  // lanes already handled this iteration
    for (std::uint32_t i = 0; i < n_active; ++i) {
      if (done[i]) continue;
      const std::uint32_t node_id = popped[i];
      // One serialized sub-step: every lane that wants this node executes
      // together. Each lane issues its own node fetch — lanes sharing the
      // line hit in cache, which is how coalescing shows up as the high
      // hit rates of coherent warps (paper Figure 6).
      ++stats.warp_substeps;
      const BvhNode& node = nodes[node_id];
      for (std::uint32_t j = i; j < n_active; ++j) {
        if (done[j] || popped[j] != node_id) continue;
        done[j] = 1;
        ++stats.active_lane_slots;
        if (mem) mem->access(node_id * kNodeStride);
        LaneState& lane = lanes[active_lanes[j]];
        ++stats.node_visits;
        ++stats.aabb_tests;
        const Ray& ray = rays[lane.ray_id];
        if (!ray_intersects_aabb(ray, node.bounds.expanded(h))) continue;
        if (node.is_leaf()) {
          float hw = h;
          if (process_leaf(bvh, node, ray, h, hw, lane.ray_id, fixed, &stats, mem) ==
              TraceAction::kTerminate) {
            lane.terminated = true;
            ++stats.terminated_rays;
          }
        } else {
          RTNN_DCHECK(lane.sp + 2 <= kMaxStackDepth, "traversal stack overflow");
          lane.stack[lane.sp++] = node.left;
          lane.stack[lane.sp++] = node.right;
        }
      }
    }
  }
}

/// The counters of a launch against an empty index: every ray, no work.
inline LaunchStats untraced(std::span<const Ray> rays) {
  LaunchStats stats;
  stats.rays = rays.size();
  return stats;
}

/// The launch loop every walk shares: `items` work items (rays, or warps
/// for the lockstep model) are split into chunks, spread across threads
/// unless config.parallel is off; ray chunks inherit the caller's Morton
/// ordering, so consecutive rays walk overlapping subtrees. Each chunk
/// bumps a stack-local LaunchStats (handed to `body` as null when
/// `collect` is off), owns its cache hierarchy when config.simulate_caches
/// is on, and reuses one traversal stack; counters fold into a per-worker
/// slot once per chunk. `body(item, stats, stack, mem)` runs one item.
template <typename Body>
LaunchStats run_launch(std::span<const Ray> rays, std::int64_t items, std::int64_t grain,
                       const TraceConfig& config, bool collect, Body&& body) {
  LaunchStats total = untraced(rays);
  // Lazily sized so stats-off launches (pure wall-clock runs, often many
  // tiny per-partition launches) skip the slot allocation entirely. Cache
  // stats travel inside LaunchStats, so simulation forces collection.
  std::optional<StatsAccumulator> accumulator;
  if (collect || config.simulate_caches) accumulator.emplace();
  auto run_chunk = [&](std::int64_t lo, std::int64_t hi) {
    LaunchStats local;
    std::optional<MemoryHierarchy> mem;
    if (config.simulate_caches) mem.emplace(config.l1, config.l2);
    std::uint32_t stack[kWideStackDepth];
    for (std::int64_t i = lo; i < hi; ++i) {
      body(static_cast<std::uint32_t>(i), collect ? &local : nullptr, stack,
           mem ? &*mem : nullptr);
    }
    if (mem) {
      local.l1 = mem->l1_stats();
      local.l2 = mem->l2_stats();
    }
    if (accumulator) accumulator->local() += local;
  };
  if (config.parallel) {
    parallel_for_chunks(0, items, run_chunk, grain);
  } else {
    run_chunk(0, items);
  }
  if (accumulator) total += accumulator->reduce();
  return total;
}

}  // namespace detail

/// Launches `rays` against `bvh`, invoking `program.intersect(ray_id,
/// prim_id)` per candidate primitive. The Program object must be safe to
/// call concurrently for different ray_ids (each ray writes its own
/// output slots, the same contract a CUDA kernel has).
template <typename Program>
LaunchStats trace(const Bvh& bvh, std::span<const Ray> rays, Program& program,
                  const TraceConfig& config = {}) {
  if (rays.empty() || bvh.empty()) return detail::untraced(rays);
  const float h = config.aabb_half_width;
  if (config.model == ExecutionModel::kIndependent) {
    RTNN_CHECK(!config.simulate_caches,
               "cache simulation requires the warp-lockstep execution model");
    return detail::run_launch(
        rays, rays.size(), grain::kTrace, config, config.collect_stats,
        [&](std::uint32_t i, LaunchStats* stats, std::uint32_t*, MemoryHierarchy*) {
          detail::trace_one(bvh, rays[i], h, i, program, stats);
        });
  }

  // Warp-lockstep model (always collects: its counters are the figures).
  const auto n = static_cast<std::int64_t>(rays.size());
  const std::int64_t n_warps =
      (n + detail::kWarpSize - 1) / static_cast<std::int64_t>(detail::kWarpSize);
  return detail::run_launch(
      rays, n_warps, grain::kWarp, config, /*collect=*/true,
      [&](std::uint32_t w, LaunchStats* stats, std::uint32_t*, MemoryHierarchy* mem) {
        const std::uint32_t first = w * detail::kWarpSize;
        const auto lanes =
            static_cast<std::uint32_t>(std::min<std::int64_t>(detail::kWarpSize, n - first));
        detail::trace_warp(bvh, rays, h, first, lanes, program, *stats, mem);
      });
}

/// Wide-BVH overload: the wall-clock independent path.
template <typename Program>
LaunchStats trace(const WideBvh& bvh, std::span<const Ray> rays, Program& program,
                  const TraceConfig& config = {}) {
  RTNN_CHECK(config.model == ExecutionModel::kIndependent,
             "the wide BVH serves only the independent execution model; "
             "warp-lockstep simulation walks the binary BVH");
  RTNN_CHECK(!config.simulate_caches,
             "cache simulation requires the warp-lockstep execution model");
  if (rays.empty() || bvh.empty()) return detail::untraced(rays);
  const float h = config.aabb_half_width;
  return detail::run_launch(
      rays, rays.size(), grain::kTrace, config, config.collect_stats,
      [&](std::uint32_t i, LaunchStats* stats, std::uint32_t* stack, MemoryHierarchy*) {
        detail::trace_one_wide(bvh, rays[i], h, i, program, stats, stack);
      });
}

/// Two-level overload: the TLAS walk over a tiled index. Independent
/// model only, same chunking/stats shape as the WideBvh overload. Lazy
/// tiles are built on first route from inside the launch (thread-safe,
/// built once regardless of how many chunks race to the same tile).
template <typename Program>
LaunchStats trace(const TiledBvh& tlas, std::span<const Ray> rays, Program& program,
                  const TraceConfig& config = {}) {
  RTNN_CHECK(config.model == ExecutionModel::kIndependent,
             "the tiled BVH serves only the independent execution model; "
             "warp-lockstep simulation walks the monolithic binary BVH");
  RTNN_CHECK(!config.simulate_caches,
             "cache simulation requires the warp-lockstep execution model");
  if (rays.empty() || tlas.empty()) return detail::untraced(rays);
  const float h = config.aabb_half_width;
  return detail::run_launch(
      rays, rays.size(), grain::kTrace, config, config.collect_stats,
      [&](std::uint32_t i, LaunchStats* stats, std::uint32_t* stack, MemoryHierarchy*) {
        detail::trace_one_tiled(tlas, rays[i], h, i, program, stats, stack);
      });
}
/// Convenience for tests: trace a single ray with stats.
template <typename Program>
LaunchStats trace_ray(const Bvh& bvh, const Ray& ray, Program& program) {
  LaunchStats stats;
  stats.rays = 1;
  detail::trace_one(bvh, ray, 0.0f, 0, program, &stats);
  return stats;
}

}  // namespace rtnn::rt
