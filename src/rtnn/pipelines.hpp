// The OptiX shader pipelines of the RTNN algorithm.
//
// These are the direct ports of paper Listing 1 (range search), its KNN
// variant ("the IS shader would operate a priority queue"), and the
// truncated first-hit pipeline of Listing 2 used for query scheduling.
//
// Each pipeline's raygen() emits the paper's degenerate short ray from the
// query (tmin = 0, tmax = 1e-16, direction [1,0,0]) so that only AABBs
// *containing* the query intersect (Condition 2 of Figure 2); its
// intersection() is the IS shader performing the exact sphere test; and
// returning TraceAction::kTerminate plays the AH shader's role of killing
// the ray once K neighbors are found.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>

#include "core/aabb.hpp"
#include "core/flat_knn.hpp"
#include "core/neighbor_result.hpp"
#include "core/vec3.hpp"
#include "optix/optix.hpp"

namespace rtnn::pipelines {

/// Range search (paper Listing 1). One launch index = one query = one ray.
/// `query_ids` maps launch index -> original query index, so partitioned /
/// reordered launches write results into the right rows.
class RangePipeline {
 public:
  RangePipeline(std::span<const Vec3> points, std::span<const Vec3> queries,
                std::span<const std::uint32_t> query_ids, float radius, std::uint32_t k,
                bool skip_sphere_test, NeighborResult& result)
      : points_(points),
        queries_(queries),
        query_ids_(query_ids),
        radius2_(radius * radius),
        k_(k),
        skip_sphere_test_(skip_sphere_test),
        result_(result) {}

  Ray raygen(std::uint32_t index) const {
    return Ray::short_ray(queries_[query_ids_[index]]);
  }

  ox::TraceAction intersection(std::uint32_t index, std::uint32_t prim) {
    const std::uint32_t query = query_ids_[index];
    // Step 2, the sphere test — elided when the partition's megacell is
    // strictly inside the search sphere (section 5.1: "the IS shader does
    // not have to perform the sphere test anymore").
    if (!skip_sphere_test_ &&
        distance2(points_[prim], queries_[query]) > radius2_) {
      return ox::TraceAction::kContinue;
    }
    const std::uint32_t count = result_.record(query, prim);
    // AH shader: terminate once K neighbors are recorded.
    return count >= k_ ? ox::TraceAction::kTerminate : ox::TraceAction::kContinue;
  }

 private:
  std::span<const Vec3> points_;
  std::span<const Vec3> queries_;
  std::span<const std::uint32_t> query_ids_;
  float radius2_;
  std::uint32_t k_;
  bool skip_sphere_test_;
  NeighborResult& result_;
};

/// KNN search: the IS shader maintains a bounded max-heap per ray. Rays
/// are never terminated early — the K *nearest* neighbors can improve
/// until the traversal exhausts the tree (this is why KNN does more
/// traversal work than range search; paper section 6.3). They narrow
/// instead: once the heap holds K entries, cull_half_width() reports the
/// K-th distance and the walk shrinks the ray's boxes to it (a cull RT
/// hardware cannot make; the warp-lockstep model ignores it).
class KnnPipeline {
 public:
  /// Heap capacity (the K bound) lives in the heap pool; launch setup
  /// asserts it matches `SearchParams::k` before constructing pipelines.
  KnnPipeline(std::span<const Vec3> points, std::span<const Vec3> queries,
              std::span<const std::uint32_t> query_ids, float radius, FlatKnnHeaps& heaps)
      : points_(points),
        queries_(queries),
        query_ids_(query_ids),
        radius2_(radius * radius),
        heaps_(&heaps) {}

  Ray raygen(std::uint32_t index) const {
    return Ray::short_ray(queries_[query_ids_[index]]);
  }

  ox::TraceAction intersection(std::uint32_t index, std::uint32_t prim) {
    const std::uint32_t query = query_ids_[index];
    const float d2 = distance2(points_[prim], queries_[query]);
    if (d2 <= radius2_ && d2 < heaps_->worst_dist2(query)) heaps_->push(query, d2, prim);
    return ox::TraceAction::kContinue;
  }

  /// c = fl(fl(sqrt(w)) * (1 + 2^-20)) for the heap's worst distance² w
  /// (+inf until the heap is full, 0 when K copies of the query exist).
  /// Exact: sqrt is correctly rounded, so c >= sqrt(w) * (1 + 13u) with
  /// u = 2^-24, and fl(c * c) >= w. A box test at c misses a point p only
  /// if some axis has |p - q| > c exactly (rounding is monotone, so the
  /// grown bound fl(p + c) below q means p + c < q), hence the rounded
  /// difference is >= c, and every rounded square and sum distance2
  /// forms from it is >= fl(c * c) >= w. Such a p fails `d2 < worst`
  /// above, now and later, since worst only falls.
  float cull_half_width(std::uint32_t index) const {
    return std::sqrt(heaps_->worst_dist2(query_ids_[index])) * kCullMargin;
  }

 private:
  static constexpr float kCullMargin = 1.0f + 0x1p-20f;

  std::span<const Vec3> points_;
  std::span<const Vec3> queries_;
  std::span<const std::uint32_t> query_ids_;
  float radius2_;
  FlatKnnHeaps* heaps_;
};

/// The scheduling pre-pass of paper Listing 2: "initial search with K=1"
/// that terminates each ray at its first intersected leaf AABB, recording
/// which primitive was hit. Extremely cheap: one IS call per ray.
class FirstHitPipeline {
 public:
  static constexpr std::uint32_t kNoHit = 0xffffffffu;

  FirstHitPipeline(std::span<const Vec3> queries, std::span<std::uint32_t> first_hit)
      : queries_(queries), first_hit_(first_hit) {}

  Ray raygen(std::uint32_t index) const { return Ray::short_ray(queries_[index]); }

  ox::TraceAction intersection(std::uint32_t index, std::uint32_t prim) {
    // Any enclosing AABB is an equally useful spatial hint (section 4:
    // "we are not interested in a particular enclosing AABB").
    first_hit_[index] = prim;
    return ox::TraceAction::kTerminate;  // AH shader: stop at first hit
  }

 private:
  std::span<const Vec3> queries_;
  std::span<std::uint32_t> first_hit_;
};

}  // namespace rtnn::pipelines
