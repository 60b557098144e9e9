// WideBvh collapse invariants and binary-vs-wide traversal parity: the
// wall-clock 8-wide path must find exactly the primitives the binary
// simulation path finds, whichever of the AVX2 / scalar node tests this
// build selected — on regular clouds and on the degenerate shapes
// (coincident, collinear, planar, extreme-scale, clustered).
#include "rtcore/wide_bvh.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "core/flat_knn.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "rtcore/traversal.hpp"
#include "test_util.hpp"

namespace rtnn::rt {
namespace {

using rtnn::testing::CloudKind;

struct Scene {
  std::vector<Vec3> points;
  std::vector<Aabb> aabbs;
  Bvh bvh;
  WideBvh wide;
};

Scene build_scene(std::vector<Vec3> points, float width, std::uint32_t leaf_size = 1) {
  Scene scene;
  scene.points = std::move(points);
  scene.aabbs.reserve(scene.points.size());
  for (const Vec3& p : scene.points) scene.aabbs.push_back(Aabb::cube(p, width));
  scene.bvh.build(scene.aabbs, BvhBuildOptions{leaf_size});
  scene.wide.build(scene.bvh);
  return scene;
}

Scene make_scene(CloudKind kind, std::size_t n, float width, std::uint64_t seed,
                 std::uint32_t leaf_size = 1) {
  return build_scene(rtnn::testing::make_cloud(kind, n, seed), width, leaf_size);
}

// Degenerate point sets mirroring the generator shapes of
// test_differential.cpp (that file's generators live in its anonymous
// namespace): coincident sites, exactly collinear, exactly planar, large
// coordinate magnitudes, and isolated dense clusters.
struct DegenerateSet {
  std::string name;
  std::vector<Vec3> points;
  float radius;
};

std::vector<DegenerateSet> degenerate_sets(std::uint64_t seed) {
  constexpr std::size_t kN = 384;
  std::vector<DegenerateSet> sets;
  {
    Pcg32 rng(seed);
    DegenerateSet s{.name = "coincident", .points = {}, .radius = 0.05f};
    std::vector<Vec3> sites;
    for (int i = 0; i < 12; ++i) {
      sites.push_back({rng.next_float(), rng.next_float(), rng.next_float()});
    }
    for (std::size_t i = 0; i < kN; ++i) {
      s.points.push_back(sites[rng.next_bounded(static_cast<std::uint32_t>(sites.size()))]);
    }
    sets.push_back(std::move(s));
  }
  {
    Pcg32 rng(seed + 1);
    DegenerateSet s{.name = "collinear", .points = {}, .radius = 0.04f};
    const Vec3 origin{rng.next_float(), rng.next_float(), rng.next_float()};
    const Vec3 dir{1.0f, 0.5f, -0.25f};
    for (std::size_t i = 0; i < kN; ++i) {
      const float t = rng.next_float();
      s.points.push_back({origin.x + t * dir.x, origin.y + t * dir.y, origin.z + t * dir.z});
    }
    s.points[5] = s.points[4];
    sets.push_back(std::move(s));
  }
  {
    Pcg32 rng(seed + 2);
    DegenerateSet s{.name = "planar", .points = {}, .radius = 0.12f};
    const float z = rng.next_float();
    for (std::size_t i = 0; i < kN; ++i) {
      s.points.push_back({rng.next_float(), rng.next_float(), z});
    }
    sets.push_back(std::move(s));
  }
  {
    Pcg32 rng(seed + 3);
    DegenerateSet s{.name = "extreme", .points = {}, .radius = 1.0e6f * 1.5e-4f};
    const float scale = 1.0e6f;
    for (std::size_t i = 0; i < kN; ++i) {
      s.points.push_back({scale + scale * 0.001f * rng.next_float(),
                          -scale + scale * 0.001f * rng.next_float(),
                          scale * 0.001f * rng.next_float()});
    }
    sets.push_back(std::move(s));
  }
  {
    Pcg32 rng(seed + 4);
    DegenerateSet s{.name = "clustered", .points = {}, .radius = 0.08f};
    std::vector<Vec3> centers;
    for (int c = 0; c < 6; ++c) {
      centers.push_back(
          {10.0f * rng.next_float(), 10.0f * rng.next_float(), 10.0f * rng.next_float()});
    }
    for (std::size_t i = 0; i < kN; ++i) {
      const Vec3& c = centers[rng.next_bounded(static_cast<std::uint32_t>(centers.size()))];
      s.points.push_back({c.x + 0.1f * (rng.next_float() - 0.5f),
                          c.y + 0.1f * (rng.next_float() - 0.5f),
                          c.z + 0.1f * (rng.next_float() - 0.5f)});
    }
    sets.push_back(std::move(s));
  }
  return sets;
}

/// Records every primitive the IS stage sees, per ray.
struct Collector {
  std::vector<std::set<std::uint32_t>> hits;
  explicit Collector(std::size_t rays) : hits(rays) {}
  TraceAction intersect(std::uint32_t ray, std::uint32_t prim) {
    hits[ray].insert(prim);
    return TraceAction::kContinue;
  }
};

/// KNN program over a heap pool — K-nearest results are traversal-order
/// independent, so binary and wide launches must agree id-for-id after
/// sorting, for any K.
struct KnnProgram {
  std::span<const Vec3> points;
  std::span<const Vec3> queries;
  float radius2;
  FlatKnnHeaps* heaps;
  TraceAction intersect(std::uint32_t ray, std::uint32_t prim) {
    const float d2 = distance2(points[prim], queries[ray]);
    if (d2 <= radius2 && d2 < heaps->worst_dist2(ray)) heaps->push(ray, d2, prim);
    return TraceAction::kContinue;
  }
};

std::vector<Ray> short_rays(std::span<const Vec3> queries) {
  std::vector<Ray> rays;
  rays.reserve(queries.size());
  for (const Vec3& q : queries) rays.push_back(Ray::short_ray(q));
  return rays;
}

TEST(WideBvh, CollapseInvariants) {
  for (const std::size_t n : {1u, 2u, 7u, 8u, 9u, 63u, 1000u, 5000u}) {
    const Scene scene = make_scene(CloudKind::kUniform, n, 0.05f, n);
    ASSERT_NO_THROW(scene.wide.validate()) << "n=" << n;
    const WideBvhStats stats = scene.wide.stats();
    const BvhStats bin_stats = scene.bvh.stats();
    EXPECT_LE(stats.node_count, bin_stats.node_count) << "n=" << n;
    EXPECT_EQ(scene.wide.prim_count(), scene.bvh.prim_count());
    if (n >= 64) {
      // A healthy collapse beats the binary branching factor comfortably;
      // bottom-of-tree subtrees with < 8 leaves keep the average below 8.
      EXPECT_GT(stats.avg_children, 3.0) << "n=" << n;
      EXPECT_LE(stats.max_depth, bin_stats.max_depth) << "n=" << n;
    }
  }
}

/// Every meaningful byte of a wide node (lanes, children, count); the
/// alignment padding after `count` is never written.
bool same_node_bytes(const WideBvhNode& a, const WideBvhNode& b) {
  return std::memcmp(&a, &b, offsetof(WideBvhNode, count) + sizeof(a.count)) == 0;
}

/// The collapse cuts large trees into subtree tasks by size alone and
/// every task writes its own slots once, so one Bvh collapses to the same
/// wide tree at any thread count: for a lidar cloud on the multi-task path
/// and a tile-sized cloud on the single-task path. Refit reuses the
/// recorded slot sources, so it must keep the tree valid and the wide
/// walk's candidate sets equal to the binary walk's.
TEST(WideBvh, CollapseLayoutIndependentOfThreadCount) {
  static_assert(4000u <= kBuildTaskPrims && 120000u > 8 * kBuildTaskPrims);
  for (const std::size_t n : {120000u, 4000u}) {
    const float width = 2.0f * rtnn::testing::typical_radius(CloudKind::kLidar);
    Scene scene = make_scene(CloudKind::kLidar, n, width, 41);
    WideBvh serial;
    set_num_threads(1);
    serial.build(scene.bvh);
    set_num_threads(4);
    WideBvh& parallel = scene.wide;
    parallel.build(scene.bvh);
    ASSERT_NO_THROW(serial.validate()) << "n=" << n;
    ASSERT_NO_THROW(parallel.validate()) << "n=" << n;

    ASSERT_EQ(serial.nodes().size(), parallel.nodes().size()) << "n=" << n;
    for (std::size_t i = 0; i < serial.nodes().size(); ++i) {
      ASSERT_TRUE(same_node_bytes(serial.nodes()[i], parallel.nodes()[i]))
          << "n=" << n << " node " << i;
    }
    ASSERT_EQ(serial.leaves().size(), parallel.leaves().size()) << "n=" << n;
    EXPECT_EQ(std::memcmp(serial.leaves().data(), parallel.leaves().data(),
                          serial.leaves().size_bytes()),
              0)
        << "n=" << n;
    EXPECT_TRUE(std::equal(serial.prim_order().begin(), serial.prim_order().end(),
                           parallel.prim_order().begin(), parallel.prim_order().end()));
    const WideBvhStats a = serial.stats();
    const WideBvhStats b = parallel.stats();
    EXPECT_EQ(a.node_count, b.node_count);
    EXPECT_EQ(a.leaf_count, b.leaf_count);
    EXPECT_EQ(a.max_depth, b.max_depth);
    EXPECT_EQ(a.avg_children, b.avg_children);
    EXPECT_EQ(a.total_index_bytes, b.total_index_bytes);

    // Move every point a little, refit both trees, and compare walks.
    Pcg32 rng(n);
    for (std::size_t i = 0; i < scene.points.size(); ++i) {
      Vec3& p = scene.points[i];
      p = {p.x + 0.5f * width * (rng.next_float() - 0.5f),
           p.y + 0.5f * width * (rng.next_float() - 0.5f), p.z};
      scene.aabbs[i] = Aabb::cube(p, width);
    }
    scene.bvh.refit(scene.aabbs);
    parallel.refit_from(scene.bvh);
    set_num_threads(0);
    ASSERT_NO_THROW(scene.bvh.validate()) << "n=" << n;
    ASSERT_NO_THROW(parallel.validate()) << "n=" << n;
    std::vector<Vec3> queries;
    for (std::size_t i = 0; i < scene.points.size(); i += scene.points.size() / 2000) {
      queries.push_back(scene.points[i]);
    }
    const auto rays = short_rays(queries);
    Collector binary(queries.size());
    trace(scene.bvh, rays, binary);
    Collector wide(queries.size());
    trace(parallel, rays, wide);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      ASSERT_EQ(wide.hits[q], binary.hits[q]) << "n=" << n << " query " << q;
    }
  }
}

TEST(WideBvh, CollapseInvariantsWiderLeaves) {
  for (const std::uint32_t leaf_size : {2u, 4u, 8u}) {
    const Scene scene = make_scene(CloudKind::kUniform, 3000, 0.05f, leaf_size, leaf_size);
    ASSERT_NO_THROW(scene.wide.validate()) << "leaf_size=" << leaf_size;
  }
}

TEST(WideBvh, EmptyAndDegenerateInputs) {
  Bvh empty;
  empty.build({});
  WideBvh wide;
  wide.build(empty);
  EXPECT_TRUE(wide.empty());
  ASSERT_NO_THROW(wide.validate());
  Collector collector(1);
  const std::vector<Ray> rays{Ray::short_ray({0, 0, 0})};
  const auto stats = trace(wide, rays, collector);
  EXPECT_EQ(stats.is_calls, 0u);

  // All points coincident: duplicated Morton codes force median splits.
  std::vector<Aabb> coincident(1000, Aabb::cube({0.5f, 0.5f, 0.5f}, 0.1f));
  Bvh bvh;
  bvh.build(coincident);
  WideBvh wide2;
  wide2.build(bvh);
  ASSERT_NO_THROW(wide2.validate());
  Collector c2(1);
  const std::vector<Ray> r2{Ray::short_ray({0.5f, 0.5f, 0.5f})};
  trace(wide2, r2, c2);
  EXPECT_EQ(c2.hits[0].size(), coincident.size());

  // Single primitive: the binary root itself is a leaf.
  Bvh single;
  single.build(std::vector<Aabb>{Aabb::cube({0.1f, 0.2f, 0.3f}, 0.2f)});
  WideBvh wide3;
  wide3.build(single);
  ASSERT_NO_THROW(wide3.validate());
  Collector c3(1);
  const std::vector<Ray> r3{Ray::short_ray({0.1f, 0.2f, 0.3f})};
  trace(wide3, r3, c3);
  EXPECT_EQ(c3.hits[0], std::set<std::uint32_t>{0u});
}

/// The heart of the PR: the wide path and the binary path must invoke the
/// IS shader on exactly the same primitive sets — on uniform and on
/// lidar-shaped (highly anisotropic density) clouds, with the SIMD node
/// test agreeing with the scalar one on every box.
TEST(WideBvh, TraversalParityWithBinary) {
  for (const CloudKind kind : {CloudKind::kUniform, CloudKind::kLidar}) {
    const float width = 2.0f * rtnn::testing::typical_radius(kind);
    const Scene scene = make_scene(kind, 4000, width, 17);
    Pcg32 rng(99);
    std::vector<Vec3> queries = scene.points;
    for (int i = 0; i < 500; ++i) {
      queries.push_back(rng.uniform_in_aabb(scene.bvh.scene_bounds().expanded(width)));
    }
    const auto rays = short_rays(queries);

    Collector binary(queries.size());
    trace(scene.bvh, rays, binary);
    Collector wide(queries.size());
    trace(scene.wide, rays, wide);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      ASSERT_EQ(wide.hits[q], binary.hits[q])
          << rtnn::testing::to_string(kind) << " query " << q;
    }
  }
}

TEST(WideBvh, TraversalParityWiderLeaves) {
  const Scene scene = make_scene(CloudKind::kUniform, 3000, 0.08f, 21, 4);
  const auto rays = short_rays(scene.points);
  Collector binary(scene.points.size());
  trace(scene.bvh, rays, binary);
  Collector wide(scene.points.size());
  trace(scene.wide, rays, wide);
  EXPECT_EQ(wide.hits, binary.hits);
}

TEST(WideBvh, KnnParityAcrossK) {
  for (const CloudKind kind : {CloudKind::kUniform, CloudKind::kLidar}) {
    const float radius = 2.0f * rtnn::testing::typical_radius(kind);
    const Scene scene = make_scene(kind, 3000, 2.0f * radius, 31);
    const auto rays = short_rays(scene.points);
    for (const std::uint32_t k : {1u, 8u, 64u}) {
      FlatKnnHeaps heaps_bin(scene.points.size(), k);
      KnnProgram bin{scene.points, scene.points, radius * radius, &heaps_bin};
      trace(scene.bvh, rays, bin);
      FlatKnnHeaps heaps_wide(scene.points.size(), k);
      KnnProgram wid{scene.points, scene.points, radius * radius, &heaps_wide};
      trace(scene.wide, rays, wid);
      rtnn::testing::expect_same_neighbor_sets(
          heaps_wide.extract(), heaps_bin.extract(),
          rtnn::testing::to_string(kind) + " K=" + std::to_string(k));
    }
  }
}

/// Direct check that this build's wide_node_hits (AVX2 or scalar) agrees
/// with the scalar single-box test on every slot, grown by the launch
/// half-width (0 on even iterations) — including arbitrary ray directions,
/// zero direction components (±inf reciprocals) and boundary coordinates
/// that produce NaNs in the slab arithmetic.
TEST(WideBvh, NodeTestMatchesScalarSemantics) {
  Pcg32 rng(4242);
  const Aabb domain{{-1, -1, -1}, {1, 1, 1}};
  for (int iter = 0; iter < 2000; ++iter) {
    alignas(64) WideBvhNode node{};
    node.count = kWideBvhWidth;
    Aabb boxes[kWideBvhWidth];
    for (std::uint32_t i = 0; i < kWideBvhWidth; ++i) {
      Vec3 a = rng.uniform_in_aabb(domain);
      Vec3 b = rng.uniform_in_aabb(domain);
      boxes[i] = Aabb{min(a, b), max(a, b)};
      node.minx[i] = boxes[i].lo.x;
      node.miny[i] = boxes[i].lo.y;
      node.minz[i] = boxes[i].lo.z;
      node.maxx[i] = boxes[i].hi.x;
      node.maxy[i] = boxes[i].hi.y;
      node.maxz[i] = boxes[i].hi.z;
      node.child[i] = WideBvhNode::kLeafBit | i;
    }
    Ray ray;
    switch (iter % 4) {
      case 0:  // RTNN's degenerate short ray
        ray = Ray::short_ray(rng.uniform_in_aabb(domain));
        break;
      case 1:  // general segment
        ray.origin = rng.uniform_in_aabb(domain);
        ray.dir = rng.uniform_in_aabb(domain);
        ray.tmin = 0.0f;
        ray.tmax = 2.0f;
        break;
      case 2:  // axis-aligned: two zero components → ±inf reciprocals
        ray.origin = rng.uniform_in_aabb(domain);
        ray.dir = Vec3{0.0f, iter % 8 < 4 ? 1.0f : -1.0f, 0.0f};
        ray.tmax = 1.5f;
        break;
      default:  // origin pinned to a box face: NaN (0 * inf) in the slab
        ray.origin = Vec3{boxes[3].lo.x, boxes[3].lo.y, boxes[3].hi.z};
        ray.dir = Vec3{1.0f, 0.0f, 0.0f};
        ray.tmax = 1.0f;
        break;
    }
    const float h = iter % 2 == 0 ? 0.0f : 0.25f * rng.next_float();
    const std::uint32_t mask =
        detail::wide_node_hits(node, ray, reciprocal_dir(ray), h);
    for (std::uint32_t i = 0; i < kWideBvhWidth; ++i) {
      EXPECT_EQ((mask >> i) & 1u, ray_intersects_aabb(ray, boxes[i].expanded(h)) ? 1u : 0u)
          << "iter " << iter << " slot " << i;
    }
  }
}

/// The degenerate shapes, built the two ways production builds them: over
/// boxes of width 2r searched at h = 0, and over the bare points searched
/// at launch half-width h = r. Either way the wide walk must hand the IS
/// shader exactly the binary walk's candidates, for the points themselves
/// and for probes scattered around the set.
TEST(WideBvh, DegenerateSetsParityWithBinary) {
  for (auto& set : degenerate_sets(0xbeefu)) {
    const float r = set.radius;
    Pcg32 rng(51);
    std::vector<Vec3> queries = set.points;
    Aabb domain;
    for (const Vec3& p : set.points) domain.grow(p);
    domain = domain.expanded(r);
    for (int i = 0; i < 200; ++i) queries.push_back(rng.uniform_in_aabb(domain));
    const auto rays = short_rays(queries);

    for (const float h : {0.0f, r}) {
      SCOPED_TRACE(set.name + (h == 0.0f ? " boxes at h=0" : " bare points at h=r"));
      for (const std::uint32_t leaf_size : {1u, 4u}) {
        const Scene scene = build_scene(set.points, h == 0.0f ? 2.0f * r : 0.0f, leaf_size);
        ASSERT_NO_THROW(scene.wide.validate()) << "leaf_size=" << leaf_size;
        TraceConfig config;
        config.aabb_half_width = h;
        Collector binary(queries.size());
        trace(scene.bvh, rays, binary, config);
        Collector wide(queries.size());
        trace(scene.wide, rays, wide, config);
        ASSERT_EQ(wide.hits, binary.hits) << "leaf_size=" << leaf_size;
      }
    }
  }
}

/// This build's wide_node_hits (AVX2 or scalar) against the scalar
/// grow-then-test reference on the real nodes of every degenerate tree,
/// at h = 0 and h > 0: coincident boxes, zero-extent axes and 1e6-scale
/// coordinates are where a vector rounding slip would show.
TEST(WideBvh, DegenerateNodeTestMatchesScalarSemantics) {
  for (auto& set : degenerate_sets(0xc0deu)) {
    SCOPED_TRACE(set.name);
    const float r = set.radius;
    const Scene scene = build_scene(std::move(set.points), 0.0f);
    const auto nodes = scene.wide.nodes();
    ASSERT_FALSE(nodes.empty());
    const Aabb domain = scene.bvh.scene_bounds().expanded(r);
    Pcg32 rng(99);
    for (int iter = 0; iter < 400; ++iter) {
      const WideBvhNode& node =
          nodes[rng.next_bounded(static_cast<std::uint32_t>(nodes.size()))];
      const auto slot_box = [&](std::uint32_t i) {
        return Aabb{{node.minx[i], node.miny[i], node.minz[i]},
                    {node.maxx[i], node.maxy[i], node.maxz[i]}};
      };
      Ray ray;
      switch (iter % 4) {
        case 0:
          ray = Ray::short_ray(scene.points[rng.next_bounded(
              static_cast<std::uint32_t>(scene.points.size()))]);
          break;
        case 1:
          ray = Ray::short_ray(rng.uniform_in_aabb(domain));
          break;
        case 2:
          ray.origin = rng.uniform_in_aabb(domain);
          ray.dir = Vec3{0.0f, 0.0f, iter % 8 < 4 ? 1.0f : -1.0f};
          ray.tmax = r;
          break;
        default: {
          // Origin pinned to a slot face: 0 * inf NaNs in the slab.
          const Aabb box = slot_box(0);
          ray.origin = Vec3{box.lo.x, box.lo.y, box.hi.z};
          ray.dir = Vec3{1.0f, 0.0f, 0.0f};
          ray.tmax = r;
          break;
        }
      }
      const Vec3 inv_dir = reciprocal_dir(ray);
      const float h = iter % 2 == 0 ? 0.0f : r * rng.next_float();
      const std::uint32_t mask = detail::wide_node_hits(node, ray, inv_dir, h);
      for (std::uint32_t i = 0; i < node.count; ++i) {
        EXPECT_EQ((mask >> i) & 1u,
                  ray_intersects_aabb(ray, slot_box(i).expanded(h), inv_dir) ? 1u : 0u)
            << "iter " << iter << " slot " << i;
      }
    }
  }
}

TEST(WideBvh, WideTraceRejectsSimulationModes) {
  const Scene scene = make_scene(CloudKind::kUniform, 100, 0.1f, 3);
  Collector collector(1);
  const std::vector<Ray> rays{Ray::short_ray({0.5f, 0.5f, 0.5f})};
  TraceConfig config;
  config.model = ExecutionModel::kWarpLockstep;
  EXPECT_THROW(trace(scene.wide, rays, collector, config), Error);
}

}  // namespace
}  // namespace rtnn::rt
