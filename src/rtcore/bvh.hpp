// Bounding Volume Hierarchy over axis-aligned bounding boxes.
//
// This is the data structure the RT cores traverse in hardware (paper
// section 2.2/2.3). We build a binary LBVH: primitives are sorted by the
// 63-bit Morton code of their AABB centroid and the tree is formed by
// recursively splitting the sorted range at the highest differing Morton
// bit (Karras 2012-style top-down formulation), then node bounds are
// computed bottom-up. Construction cost is dominated by the radix sort and
// is linear in the number of AABBs — matching the paper's empirical
// observation (Figure 15, R² = 0.996) which RTNN's bundling cost model
// depends on (T_build = k1 · M, paper equation (3)).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/aabb.hpp"
#include "core/no_init_vector.hpp"

namespace rtnn::rt {

/// One BVH node. Layout note: `count == 0` marks an interior node whose
/// children are `left`/`right`; `count > 0` marks a leaf holding `count`
/// primitive slots starting at `first` in Bvh::prim_order().
struct BvhNode {
  Aabb bounds;
  std::uint32_t left = 0;   // interior: left child index
  std::uint32_t right = 0;  // interior: right child index
  std::uint32_t first = 0;  // leaf: first slot in prim_order()
  std::uint32_t count = 0;  // leaf: number of primitives (0 = interior)

  bool is_leaf() const { return count > 0; }
};

struct BvhBuildOptions {
  /// Max primitives per leaf. The paper notes "more primitives per leaf
  /// node is possible" (Figure 1a); 1 reproduces the RTNN setup where each
  /// leaf stores one point's AABB.
  std::uint32_t leaf_size = 1;
};

/// Subtree task size of the parallel index build. Bvh::build splits the
/// sorted range, and WideBvh::build cuts the binary tree, into subtrees of
/// at most this many primitives, each built by its own task. The cut is a
/// function of the tree alone, never of the worker count, so both node
/// arrays are the same bytes at any thread count; a cloud this small is a
/// single task.
inline constexpr std::uint32_t kBuildTaskPrims = 4 * 1024;

struct BvhStats {
  std::uint32_t node_count = 0;
  std::uint32_t leaf_count = 0;
  std::uint32_t max_depth = 0;
  double sah_cost = 0.0;  // relative surface-area-heuristic cost
};

class Bvh {
 public:
  Bvh() = default;

  /// Builds the hierarchy over `prims`. The Bvh keeps its own copy of the
  /// primitive AABBs (like a GPU acceleration structure, which owns its
  /// device-side geometry snapshot).
  void build(std::span<const Aabb> prims, const BvhBuildOptions& options = {});

  /// Refits the tree to moved primitives without rebuilding: `prims` must
  /// have the same count (and mean the same primitive ids) as the last
  /// build(). Leaf bounds are recomputed from the moved boxes and interior
  /// bounds re-united bottom-up in a parallel level sweep; topology,
  /// prim_order() and Morton layout are untouched. This is the driver-side
  /// AS *update* of the RT stack (OPTIX_BUILD_OPERATION_UPDATE): linear,
  /// sort-free, several times cheaper than build() — the right move for
  /// dynamic clouds whose frame-to-frame motion is small. Quality erodes
  /// as points drift from where the topology was decided; sah_inflation()
  /// makes that observable so callers can schedule a rebuild. On failure
  /// (empty input box) the tree's bounds are unspecified; rebuild.
  void refit(std::span<const Aabb> prims);

  /// Point-cloud fast path: refit over the bare moved points without
  /// materializing the box array — the RTNN frame shape.
  void refit(std::span<const Vec3> points);

  /// Surface-area-heuristic cost of the current bounds relative to the
  /// bounds this topology was built for, every box grown by `half_width`
  /// (the half-width the tree is searched at; bare leaves have no area):
  /// 1.0 after build(), growing as successive refit()s stretch the boxes.
  /// The rebuild policy's quality signal (CostModel::max_sah_inflation).
  double sah_inflation(float half_width) const;

  bool empty() const { return nodes_.empty(); }
  std::uint32_t root() const { return 0; }

  /// The node array. Node 0 is the root and every child comes after its
  /// parent. build() splits the Morton-sorted range top-down until each
  /// piece holds at most kBuildTaskPrims primitives (a function of the
  /// range alone, never of the worker count): the nodes above the cut come
  /// first in pre-order, then each piece's subtree as one contiguous
  /// pre-order block, written by its own task, every slot exactly once.
  /// The array is therefore the same bytes at any thread count, and every
  /// subtree covers one contiguous slot range of prim_order().
  std::span<const BvhNode> nodes() const { return nodes_; }
  /// Primitive ids in leaf order: leaf node [first, first+count) indexes
  /// into this array, which maps slots back to caller primitive ids.
  std::span<const std::uint32_t> prim_order() const { return prim_order_; }
  std::span<const Aabb> prim_aabbs() const { return prim_aabbs_; }

  std::uint32_t prim_count() const { return static_cast<std::uint32_t>(prim_aabbs_.size()); }
  const Aabb& scene_bounds() const { return scene_bounds_; }

  BvhStats stats() const;

  /// Structural invariant check (used by tests): every primitive appears in
  /// exactly one leaf slot, every interior node's bounds contain both
  /// children's bounds, every leaf's bounds contain its primitives' AABBs,
  /// child indices are in range and acyclic. Throws rtnn::Error on failure.
  void validate() const;

 private:
  void ensure_levels() const;

  /// Weighted surface-area sums that price any half-width h: a box grown
  /// by h on each face has area A + 8h·E + 24h², E = ex + ey + ez.
  struct SahSums {
    double area = 0.0, extent = 0.0, weight = 0.0;  // Σ w·A, Σ w·E, Σ w
    void add(const Aabb& box, double w);
    double at(double h) const { return area + 8.0 * h * extent + 24.0 * h * h * weight; }
    SahSums& operator+=(const SahSums& o) {
      area += o.area;
      extent += o.extent;
      weight += o.weight;
      return *this;
    }
  };
  /// Sums over the nodes, weighted as in stats().sah_cost.
  SahSums sah_sums() const;

  /// Shared refit engine: `prim_box(id)` yields primitive id's moved box.
  template <typename PrimBox>
  void refit_impl(std::size_t prim_count, PrimBox prim_box);

  NoInitVector<BvhNode> nodes_;
  std::vector<std::uint32_t> prim_order_;
  NoInitVector<Aabb> prim_aabbs_;
  Aabb scene_bounds_;
  std::uint32_t leaf_size_ = 1;
  std::uint32_t max_depth_seen_ = 0;

  // Refit state. The level schedule (node ids bucketed by depth, deepest
  // first) depends only on topology, so it is computed on the first refit
  // and reused until the next build(); baseline_sah_ / baseline_root_ sum
  // the fresh-build bounds the inflation metric is measured against.
  mutable std::vector<std::uint32_t> level_nodes_;    // ids, deepest level first
  mutable std::vector<std::uint32_t> level_offsets_;  // level l = [l, l+1) slice
  bool refitted_ = false;  // since the last build()
  SahSums baseline_sah_, baseline_root_, refit_sah_;
};

}  // namespace rtnn::rt
