// Property-based differential harness: randomized clouds — including the
// degenerate geometries spatial structures get wrong (coincident points,
// collinear and planar sets, extreme coordinate magnitudes) — run through
// every registered backend and checked against exhaustive search, for
// both KNN and range. Every trial logs its generator and seed so a
// failure reproduces from the test output alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/flat_knn.hpp"
#include "core/rng.hpp"
#include "engine/engine.hpp"
#include "optix/optix.hpp"
#include "rtcore/traversal.hpp"
#include "rtnn/batch_optimizer.hpp"
#include "rtnn/pipelines.hpp"
#include "rtnn/sharding.hpp"
#include "service/service.hpp"
#include "test_util.hpp"

using namespace rtnn;

namespace {

struct Trial {
  std::string generator;
  std::uint64_t seed = 0;
  std::vector<Vec3> points;
  std::vector<Vec3> queries;
  float radius = 0.0f;
};

constexpr std::size_t kPoints = 384;
constexpr std::size_t kQueries = 96;

/// Queries: half sampled on the points (exact-hit / zero-distance ties),
/// half jittered around them, a few far outside (empty neighborhoods).
std::vector<Vec3> make_queries(const std::vector<Vec3>& points, float radius,
                               Pcg32& rng) {
  std::vector<Vec3> queries;
  queries.reserve(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) {
    const Vec3& base = points[rng.next_bounded(static_cast<std::uint32_t>(points.size()))];
    if (i % 8 == 7) {
      // Far away: no neighbors at all.
      queries.push_back({base.x + 1000.0f * radius, base.y, base.z});
    } else if (i % 2 == 0) {
      queries.push_back(base);
    } else {
      queries.push_back({base.x + radius * (rng.next_float() - 0.5f),
                         base.y + radius * (rng.next_float() - 0.5f),
                         base.z + radius * (rng.next_float() - 0.5f)});
    }
  }
  return queries;
}

Trial uniform_trial(std::uint64_t seed) {
  Trial trial{.generator = "uniform", .seed = seed};
  Pcg32 rng(seed);
  trial.points.reserve(kPoints);
  for (std::size_t i = 0; i < kPoints; ++i) {
    trial.points.push_back({rng.next_float(), rng.next_float(), rng.next_float()});
  }
  trial.radius = 0.15f;
  trial.queries = make_queries(trial.points, trial.radius, rng);
  return trial;
}

/// A handful of sites, every point an exact copy of one of them: zero
/// extents, zero distances, maximal ties.
Trial coincident_trial(std::uint64_t seed) {
  Trial trial{.generator = "coincident", .seed = seed};
  Pcg32 rng(seed);
  std::vector<Vec3> sites;
  for (int s = 0; s < 12; ++s) {
    sites.push_back({rng.next_float(), rng.next_float(), rng.next_float()});
  }
  for (std::size_t i = 0; i < kPoints; ++i) {
    trial.points.push_back(sites[rng.next_bounded(static_cast<std::uint32_t>(sites.size()))]);
  }
  trial.radius = 0.05f;
  trial.queries = make_queries(trial.points, trial.radius, rng);
  return trial;
}

/// Exactly collinear points (duplicates included): a 1-D set embedded in
/// 3-D, degenerate bounds on two axes.
Trial collinear_trial(std::uint64_t seed) {
  Trial trial{.generator = "collinear", .seed = seed};
  Pcg32 rng(seed);
  const Vec3 origin{rng.next_float(), rng.next_float(), rng.next_float()};
  const Vec3 dir{1.0f, 0.5f, -0.25f};
  for (std::size_t i = 0; i < kPoints; ++i) {
    const float t = rng.next_float();
    trial.points.push_back(
        {origin.x + t * dir.x, origin.y + t * dir.y, origin.z + t * dir.z});
  }
  trial.points[5] = trial.points[4];  // plus exact duplicates on the line
  trial.radius = 0.04f;
  trial.queries = make_queries(trial.points, trial.radius, rng);
  return trial;
}

/// Exactly planar points: z is one constant for the whole set.
Trial planar_trial(std::uint64_t seed) {
  Trial trial{.generator = "planar", .seed = seed};
  Pcg32 rng(seed);
  const float z = rng.next_float();
  for (std::size_t i = 0; i < kPoints; ++i) {
    trial.points.push_back({rng.next_float(), rng.next_float(), z});
  }
  trial.radius = 0.12f;
  trial.queries = make_queries(trial.points, trial.radius, rng);
  return trial;
}

/// Large coordinate magnitudes (offsets of ~1e6) with a proportionally
/// large radius: float cancellation territory.
Trial extreme_trial(std::uint64_t seed) {
  Trial trial{.generator = "extreme", .seed = seed};
  Pcg32 rng(seed);
  const float scale = 1.0e6f;
  for (std::size_t i = 0; i < kPoints; ++i) {
    trial.points.push_back({scale + scale * 0.001f * rng.next_float(),
                            -scale + scale * 0.001f * rng.next_float(),
                            scale * 0.001f * rng.next_float()});
  }
  trial.radius = scale * 1.5e-4f;
  trial.queries = make_queries(trial.points, trial.radius, rng);
  return trial;
}

/// Dense clusters with empty space between them (partitioner stress).
Trial clustered_trial(std::uint64_t seed) {
  Trial trial{.generator = "clustered", .seed = seed};
  Pcg32 rng(seed);
  std::vector<Vec3> centers;
  for (int c = 0; c < 6; ++c) {
    centers.push_back(
        {10.0f * rng.next_float(), 10.0f * rng.next_float(), 10.0f * rng.next_float()});
  }
  for (std::size_t i = 0; i < kPoints; ++i) {
    const Vec3& c = centers[rng.next_bounded(static_cast<std::uint32_t>(centers.size()))];
    trial.points.push_back({c.x + 0.1f * (rng.next_float() - 0.5f),
                            c.y + 0.1f * (rng.next_float() - 0.5f),
                            c.z + 0.1f * (rng.next_float() - 0.5f)});
  }
  trial.radius = 0.08f;
  trial.queries = make_queries(trial.points, trial.radius, rng);
  return trial;
}

/// A uniform unit-cube cloud plus two far outliers, at 1e6 and at 1e30:
/// the scene bounds dwarf the real points (Morton codes collide), and
/// distances to the 1e30 point overflow to +inf.
Trial outlier_trial(std::uint64_t seed) {
  Trial trial{.generator = "outlier", .seed = seed};
  Pcg32 rng(seed);
  for (std::size_t i = 0; i < kPoints; ++i) {
    trial.points.push_back({rng.next_float(), rng.next_float(), rng.next_float()});
  }
  trial.points[rng.next_bounded(kPoints / 2)] = {1.0e6f, 1.0e6f, 1.0e6f};
  trial.points[kPoints / 2 + rng.next_bounded(kPoints / 2)] = {1.0e30f, 1.0e30f, 1.0e30f};
  trial.radius = 0.15f;
  trial.queries = make_queries(trial.points, trial.radius, rng);
  return trial;
}

/// Two dense clusters far apart relative to their size: a deep split at
/// the root, then all the work inside one child.
Trial two_clusters_far_apart_trial(std::uint64_t seed) {
  Trial trial{.generator = "two-clusters-far-apart", .seed = seed};
  Pcg32 rng(seed);
  const Vec3 centers[2] = {{0.0f, 0.0f, 0.0f}, {1.0e4f, -1.0e4f, 1.0e4f}};
  for (std::size_t i = 0; i < kPoints; ++i) {
    const Vec3& c = centers[i % 2];
    trial.points.push_back(
        {c.x + rng.next_float(), c.y + rng.next_float(), c.z + rng.next_float()});
  }
  trial.radius = 0.15f;
  trial.queries = make_queries(trial.points, trial.radius, rng);
  return trial;
}

/// Every site repeated exactly eight times (the KNN K of these tests):
/// queries on a site find a K-th distance of exactly 0.
Trial duplicate_heavy_trial(std::uint64_t seed) {
  Trial trial{.generator = "duplicate-heavy", .seed = seed};
  Pcg32 rng(seed);
  constexpr std::size_t kCopies = 8;
  for (std::size_t s = 0; s < kPoints / kCopies; ++s) {
    const Vec3 site{rng.next_float(), rng.next_float(), rng.next_float()};
    for (std::size_t c = 0; c < kCopies; ++c) trial.points.push_back(site);
  }
  trial.radius = 0.15f;
  trial.queries = make_queries(trial.points, trial.radius, rng);
  return trial;
}

std::vector<Trial> all_trials() {
  // Seeds derive from one master PCG stream: deterministic, but easy to
  // widen. Each trial's seed is printed, so any failure reproduces by
  // constructing that one generator/seed pair.
  Pcg32 master(0xd1fFu);
  std::vector<Trial> trials;
  constexpr int kTrialsPerGenerator = 3;
  for (int i = 0; i < kTrialsPerGenerator; ++i) {
    const std::uint64_t seed = master.next_u64();
    trials.push_back(uniform_trial(seed));
    trials.push_back(coincident_trial(seed));
    trials.push_back(collinear_trial(seed));
    trials.push_back(planar_trial(seed));
    trials.push_back(extreme_trial(seed));
    trials.push_back(clustered_trial(seed));
    trials.push_back(outlier_trial(seed));
    trials.push_back(two_clusters_far_apart_trial(seed));
    trials.push_back(duplicate_heavy_trial(seed));
  }
  return trials;
}

/// The largest true neighbor count of any query — the K at which a range
/// result set is unique and comparable across backends.
std::uint32_t max_range_count(engine::SearchBackend& reference,
                              const Trial& trial) {
  SearchParams params;
  params.mode = SearchMode::kRange;
  params.radius = trial.radius;
  params.k = static_cast<std::uint32_t>(trial.points.size());
  params.store_indices = false;
  const NeighborResult counts = reference.search(trial.queries, params, nullptr);
  std::uint32_t max_count = 0;
  for (std::size_t q = 0; q < counts.num_queries(); ++q) {
    max_count = std::max(max_count, counts.count(q));
  }
  return max_count;
}

/// Records, per ray, the primitives the IS stage sees in call order.
struct CandidateLog {
  std::vector<std::vector<std::uint32_t>> calls;
  explicit CandidateLog(std::size_t rays) : calls(rays) {}
  rt::TraceAction intersect(std::uint32_t ray, std::uint32_t prim) {
    calls[ray].push_back(prim);
    return rt::TraceAction::kContinue;
  }
  /// The candidate sets, order-free (the tiled walk visits tiles in its
  /// own order).
  std::vector<std::vector<std::uint32_t>> sets() const {
    std::vector<std::vector<std::uint32_t>> out = calls;
    for (auto& row : out) std::sort(row.begin(), row.end());
    return out;
  }
};

/// KnnPipeline with its cull hidden: the same IS shader, walked at the
/// launch width to the end.
struct UnculledKnn {
  pipelines::KnnPipeline& knn;
  Ray raygen(std::uint32_t index) const { return knn.raygen(index); }
  ox::TraceAction intersection(std::uint32_t index, std::uint32_t prim) {
    return knn.intersection(index, prim);
  }
};

/// Traces `rays` through `index` under `config`; returns the candidate log
/// and the launch counters.
template <typename Index>
std::pair<CandidateLog, rt::LaunchStats> trace_log(const Index& index,
                                                   std::span<const Ray> rays,
                                                   const rt::TraceConfig& config) {
  CandidateLog log(rays.size());
  const rt::LaunchStats stats = rt::trace(index, rays, log, config);
  return {std::move(log), stats};
}

}  // namespace

TEST(Differential, EveryBackendAgreesWithBruteForce) {
  const std::vector<std::string> backends = engine::BackendRegistry::instance().names();
  for (const Trial& trial : all_trials()) {
    const std::string label =
        trial.generator + " seed=" + std::to_string(trial.seed);
    SCOPED_TRACE(label);
    // The reproduction line the satellite asks for: a failing run names
    // the exact generator/seed pair to rebuild.
    std::printf("[differential] generator=%s seed=%llu\n", trial.generator.c_str(),
                static_cast<unsigned long long>(trial.seed));

    auto reference = engine::make_backend("brute_force");
    reference->set_points(trial.points);

    // Range: K above every true count makes the result set unique.
    SearchParams range;
    range.mode = SearchMode::kRange;
    range.radius = trial.radius;
    range.k = max_range_count(*reference, trial) + 2;
    const NeighborResult range_expected =
        reference->search(trial.queries, range, nullptr);

    SearchParams knn;
    knn.mode = SearchMode::kKnn;
    knn.radius = trial.radius;
    knn.k = 8;
    const NeighborResult knn_expected = reference->search(trial.queries, knn, nullptr);

    for (const std::string& name : backends) {
      if (name == "brute_force") continue;
      SCOPED_TRACE(name);
      auto backend = engine::make_backend(name);
      backend->set_points(trial.points);
      const engine::BackendCaps caps = backend->caps();
      if (caps.range) {
        const NeighborResult got = backend->search(trial.queries, range, nullptr);
        rtnn::testing::expect_same_neighbor_sets(got, range_expected,
                                                 label + " range " + name);
      }
      if (caps.knn) {
        const NeighborResult got = backend->search(trial.queries, knn, nullptr);
        // Tie-tolerant: equidistant points may legally differ; per-rank
        // distances may not.
        rtnn::testing::expect_knn_distances_match(trial.points, trial.queries, got,
                                                  knn_expected, label + " knn " + name);
      }
    }
  }
}

TEST(Differential, TiledIndexMatchesMonolithic) {
  // Two-level (TLAS/BLAS) index exactness under the degenerate
  // geometries: zero-extent tiles (coincident), 1-D and 2-D embedded
  // sets, float-cancellation magnitudes. The tiled traversal must
  // surface the identical range set and tie-equivalent KNN as the
  // monolithic index it decomposes.
  for (const Trial& trial : all_trials()) {
    const std::string label =
        trial.generator + " seed=" + std::to_string(trial.seed);
    SCOPED_TRACE(label);
    std::printf("[differential] tiled generator=%s seed=%llu\n",
                trial.generator.c_str(),
                static_cast<unsigned long long>(trial.seed));

    NeighborSearch mono;
    mono.set_points(trial.points);
    NeighborSearch tiled;
    TileOptions tiling;
    tiling.tile_threshold = 48;  // 384-point trials split into 8 tiles
    tiled.set_tiling(tiling);
    tiled.set_points(trial.points);

    SearchParams range;
    range.mode = SearchMode::kRange;
    range.radius = trial.radius;
    range.k = static_cast<std::uint32_t>(trial.points.size());
    const NeighborResult range_expected = mono.search(trial.queries, range, nullptr);
    NeighborSearch::Report report;
    const NeighborResult range_got = tiled.search(trial.queries, range, &report);
    rtnn::testing::expect_same_neighbor_sets(range_got, range_expected,
                                             label + " tiled range");
    EXPECT_GT(report.tile_count, 1u) << label << ": tiling must engage";

    SearchParams knn;
    knn.mode = SearchMode::kKnn;
    knn.radius = trial.radius;
    knn.k = 8;
    const NeighborResult knn_expected = mono.search(trial.queries, knn, nullptr);
    const NeighborResult knn_got = tiled.search(trial.queries, knn, nullptr);
    rtnn::testing::expect_knn_distances_match(trial.points, trial.queries, knn_got,
                                              knn_expected, label + " tiled knn");
  }
}

TEST(Differential, LaunchWidthMatchesRefitToWidth) {
  // One index serves every width: a launch at half-width h over the index
  // built on the bare points must make exactly the decisions the same
  // index makes after a refit to the width-2h cubes, launched at h = 0.
  // FP32 rounding is monotone, so the grown bounds are bitwise the refit
  // bounds. Binary, wide and warp-lockstep walks must agree on the IS-call
  // sequence and the node/box/IS counters; the tiled walk orders tiles its
  // own way, so it must agree on candidate sets.
  for (const Trial& trial : all_trials()) {
    const std::string label =
        trial.generator + " seed=" + std::to_string(trial.seed);
    SCOPED_TRACE(label);
    std::printf("[differential] launch-width generator=%s seed=%llu\n",
                trial.generator.c_str(), static_cast<unsigned long long>(trial.seed));

    const float h = trial.radius;
    std::vector<Aabb> bare_boxes;
    std::vector<Aabb> grown_boxes;
    for (const Vec3& p : trial.points) {
      bare_boxes.push_back(Aabb{p, p});
      grown_boxes.push_back(Aabb::cube(p, 2.0f * h));
    }
    rt::Bvh bare;
    bare.build(bare_boxes);
    rt::WideBvh bare_wide;
    bare_wide.build(bare);
    rt::Bvh refit = bare;
    refit.refit(grown_boxes);
    rt::WideBvh refit_wide = bare_wide;
    refit_wide.refit_from(refit);

    std::vector<Ray> rays;
    for (const Vec3& q : trial.queries) rays.push_back(Ray::short_ray(q));

    rt::TraceConfig at_h;
    at_h.aabb_half_width = h;
    const rt::TraceConfig at_zero;
    const auto expect_exact = [&](const auto& launched, const auto& reference,
                                  const std::string& walk) {
      EXPECT_EQ(launched.first.calls, reference.first.calls) << walk << ": IS sequence";
      EXPECT_EQ(launched.second.node_visits, reference.second.node_visits) << walk;
      EXPECT_EQ(launched.second.aabb_tests, reference.second.aabb_tests) << walk;
      EXPECT_EQ(launched.second.is_calls, reference.second.is_calls) << walk;
    };

    const auto binary = trace_log(refit, rays, at_zero);
    expect_exact(trace_log(bare, rays, at_h), binary, "binary");
    expect_exact(trace_log(bare_wide, rays, at_h), trace_log(refit_wide, rays, at_zero),
                 "wide");
    rt::TraceConfig warp_h = at_h;
    warp_h.model = rt::ExecutionModel::kWarpLockstep;
    rt::TraceConfig warp_zero = at_zero;
    warp_zero.model = rt::ExecutionModel::kWarpLockstep;
    expect_exact(trace_log(bare, rays, warp_h), trace_log(refit, rays, warp_zero),
                 "warp lockstep");


    ShardPlan plan = plan_shards(trial.points, 8);
    std::vector<std::vector<std::uint32_t>> tile_ids;
    for (ShardPlan::Shard& shard : plan.shards) tile_ids.push_back(std::move(shard.point_ids));
    rt::TiledBvh tiled;
    tiled.build(trial.points, tile_ids);
    EXPECT_EQ(trace_log(tiled, rays, at_h).first.sets(), binary.first.sets()) << "tiled";
  }
}

TEST(Differential, KnnCullMatchesFullWalk) {
  // A KNN ray shrinks its boxes to its K-th distance as the heap fills and
  // walks nearest-first. That may only skip points the heap would refuse:
  // every row must keep exactly the distances of the full walk at h = r,
  // and the cull may only remove IS calls. The warp-lockstep model never
  // narrows, so there the two launches must do identical work.
  ox::Context context;
  for (const Trial& trial : all_trials()) {
    const std::string label =
        trial.generator + " seed=" + std::to_string(trial.seed);
    SCOPED_TRACE(label);
    std::printf("[differential] knn-cull generator=%s seed=%llu\n",
                trial.generator.c_str(), static_cast<unsigned long long>(trial.seed));

    std::vector<Aabb> bare_boxes;
    for (const Vec3& p : trial.points) bare_boxes.push_back(Aabb{p, p});
    const ox::Accel mono = context.build_accel(bare_boxes);
    ShardPlan plan = plan_shards(trial.points, 8);
    std::vector<std::vector<std::uint32_t>> tile_ids;
    for (ShardPlan::Shard& shard : plan.shards) tile_ids.push_back(std::move(shard.point_ids));
    const ox::Accel tiled =
        context.build_tiled_accel(trial.points, tile_ids, {.lazy_build = true});

    std::vector<std::uint32_t> ids(trial.queries.size());
    for (std::uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;
    const auto width = static_cast<std::uint32_t>(ids.size());
    constexpr std::uint32_t kK = 8;

    ox::LaunchOptions wide;
    wide.aabb_half_width = trial.radius;
    ox::LaunchOptions binary = wide;
    binary.use_wide_bvh = false;
    ox::LaunchOptions lockstep = wide;
    lockstep.model = ox::ExecutionModel::kWarpLockstep;
    const std::vector<std::tuple<std::string, const ox::Accel*, ox::LaunchOptions>> walks{
        {"wide", &mono, wide},
        {"binary", &mono, binary},
        {"tiled", &tiled, wide},
        {"warp lockstep", &mono, lockstep}};
    for (const auto& [walk, accel, options] : walks) {
      SCOPED_TRACE(walk);
      FlatKnnHeaps culled_heaps(ids.size(), kK);
      pipelines::KnnPipeline culled(trial.points, trial.queries, ids, trial.radius,
                                    culled_heaps);
      const rt::LaunchStats culled_stats = ox::launch(*accel, culled, width, options);
      FlatKnnHeaps full_heaps(ids.size(), kK);
      pipelines::KnnPipeline full_inner(trial.points, trial.queries, ids, trial.radius,
                                        full_heaps);
      UnculledKnn full{full_inner};
      const rt::LaunchStats full_stats = ox::launch(*accel, full, width, options);

      const NeighborResult got = culled_heaps.extract();
      const NeighborResult want = full_heaps.extract();
      for (std::size_t q = 0; q < ids.size(); ++q) {
        ASSERT_EQ(got.count(q), want.count(q)) << label << " " << walk << " query " << q;
        const auto dists = [&](const NeighborResult& r) {
          std::vector<float> d;
          for (const std::uint32_t p : r.neighbors(q)) {
            d.push_back(distance2(trial.points[p], trial.queries[q]));
          }
          std::sort(d.begin(), d.end());
          return d;
        };
        ASSERT_EQ(dists(got), dists(want)) << label << " " << walk << " query " << q;
      }
      EXPECT_LE(culled_stats.is_calls, full_stats.is_calls) << walk;
      if (options.model == ox::ExecutionModel::kWarpLockstep) {
        EXPECT_EQ(culled_stats.is_calls, full_stats.is_calls);
        EXPECT_EQ(culled_stats.node_visits, full_stats.node_visits);
        EXPECT_EQ(culled_stats.warp_substeps, full_stats.warp_substeps);
      }
    }
  }
}

TEST(Differential, BatchOptimizerOnVsOffIsExact) {
  // The serving optimizer's exactness claim, under the geometries that
  // stress it hardest: coincident sites (maximal dedup), degenerate
  // extents, and float-cancellation magnitudes. Overlapping request
  // windows guarantee cross-request bitwise-coincident rows on top of the
  // generators' internal duplicates (half of make_queries' rows are exact
  // point copies). Range must come back byte-identical; KNN is compared
  // tie-tolerantly per the suite's convention.
  for (const auto& make :
       {coincident_trial, collinear_trial, planar_trial, extreme_trial}) {
    const Trial trial = make(0xbee5ULL);
    SCOPED_TRACE(trial.generator);
    std::printf("[differential] optimizer generator=%s seed=%llu\n",
                trial.generator.c_str(), static_cast<unsigned long long>(trial.seed));

    const std::span<const Vec3> all(trial.queries);
    const std::vector<std::span<const Vec3>> windows{
        all.subspan(0, 64), all.subspan(32, 64), all};

    SearchParams range;
    range.mode = SearchMode::kRange;
    range.radius = trial.radius;
    range.k = static_cast<std::uint32_t>(trial.points.size());  // no truncation
    SearchParams knn;
    knn.mode = SearchMode::kKnn;
    knn.radius = trial.radius;
    knn.k = 8;

    NeighborSearch search;
    search.set_points(trial.points);
    for (const SearchParams& params : {range, knn}) {
      const std::string mode = params.mode == SearchMode::kRange ? "range" : "knn";
      SCOPED_TRACE(mode);

      std::vector<BatchRequest> requests;
      for (const auto& window : windows) requests.push_back({window, params});
      const BatchPlan plan = optimize_batch(requests);
      ASSERT_EQ(plan.bins.size(), 1u);
      const BatchBin& bin = plan.bins[0];
      ASSERT_GT(bin.deduped, 0u);  // the overlapping windows guarantee it
      const NeighborResult rep_result = search.search(bin.queries, bin.params);
      const std::vector<NeighborResult> on = bin.scatter(rep_result);

      for (std::size_t i = 0; i < windows.size(); ++i) {
        const std::string label =
            trial.generator + " " + mode + " request " + std::to_string(i);
        const NeighborResult off = search.search(windows[i], params);
        if (params.mode == SearchMode::kRange) {
          // Byte-identical: same counts, same neighbor ids in the same
          // order — the dedup guard only ever transfers between bitwise
          // equal rows, and per-row traversal order is query-independent.
          ASSERT_EQ(on[i].num_queries(), off.num_queries()) << label;
          for (std::size_t q = 0; q < off.num_queries(); ++q) {
            ASSERT_EQ(on[i].count(q), off.count(q)) << label << " query " << q;
            const auto got = on[i].neighbors(q);
            const auto want = off.neighbors(q);
            ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
                << label << " query " << q;
          }
        } else {
          rtnn::testing::expect_knn_distances_match(trial.points, windows[i], on[i],
                                                    off, label);
        }
      }
    }
  }
}

TEST(Differential, DegenerateCloudsThroughTheBatchedPath) {
  // The coalesced entry point sees the same degenerate geometry the
  // per-request path does (the service merges arbitrary client queries).
  for (const auto& make : {coincident_trial, collinear_trial, extreme_trial}) {
    const Trial trial = make(0x5eedULL);
    SCOPED_TRACE(trial.generator);
    std::printf("[differential] batched generator=%s seed=%llu\n",
                trial.generator.c_str(), static_cast<unsigned long long>(trial.seed));

    SearchParams knn;
    knn.mode = SearchMode::kKnn;
    knn.radius = trial.radius;
    knn.k = 8;

    auto reference = engine::make_backend("brute_force");
    reference->set_points(trial.points);
    const NeighborResult expected = reference->search(trial.queries, knn, nullptr);

    NeighborSearch search;
    search.set_points(trial.points);
    const std::size_t half = trial.queries.size() / 2;
    const std::vector<BatchSlice> slices{{0, half},
                                         {half, trial.queries.size() - half}};
    const std::vector<NeighborResult> parts =
        search.search_batched(trial.queries, slices, knn);
    const auto whole = split_batch_result(expected, slices);
    for (std::size_t i = 0; i < slices.size(); ++i) {
      const std::span<const Vec3> queries(trial.queries.data() + slices[i].first,
                                          slices[i].count);
      rtnn::testing::expect_knn_distances_match(trial.points, queries, parts[i],
                                                whole[i], "slice");
    }
  }
}

TEST(Differential, ShardedServiceMatchesUnshardedOnEveryGenerator) {
  // The spatial-sharding exactness claim, end to end through the serving
  // path: every degenerate generator runs as two tenants of one service —
  // a whole-cloud tenant and a Morton-sharded one — and the answers must
  // agree. Range uses a K past every true count, so the result is a
  // unique set (the gather's canonical ascending-id order may differ from
  // the flat backend's traversal order, never its membership); KNN is
  // tie-tolerant per the suite's convention. Coincident and collinear
  // clouds are the hard cases: zero-extent shard AABBs and duplicate
  // points split across shard boundaries.
  service::ServiceConfig config;
  config.max_delay = std::chrono::microseconds(0);  // per-request dispatch
  service::SearchService service(config);

  service::CloudConfig sharded_config;
  sharded_config.shard_threshold = 64;  // kPoints=384 -> 4 shards (capped)
  sharded_config.max_shards = 4;

  int tenant = 0;
  for (const Trial& trial : all_trials()) {
    const std::string label =
        trial.generator + " seed=" + std::to_string(trial.seed);
    SCOPED_TRACE(label);
    std::printf("[differential] sharded-service generator=%s seed=%llu\n",
                trial.generator.c_str(), static_cast<unsigned long long>(trial.seed));

    const std::string flat_name = "flat-" + std::to_string(tenant);
    const std::string sharded_name = "sharded-" + std::to_string(tenant);
    ++tenant;
    const service::CloudHandle flat = service.register_cloud(flat_name, trial.points);
    const service::CloudHandle sharded =
        service.register_cloud(sharded_name, trial.points, sharded_config);

    auto reference = engine::make_backend("brute_force");
    reference->set_points(trial.points);

    SearchParams range;
    range.mode = SearchMode::kRange;
    range.radius = trial.radius;
    range.k = max_range_count(*reference, trial) + 2;
    rtnn::testing::expect_same_neighbor_sets(
        service.query(sharded, trial.queries, range).result,
        service.query(flat, trial.queries, range).result, label + " range");

    SearchParams knn;
    knn.mode = SearchMode::kKnn;
    knn.radius = trial.radius;
    knn.k = 8;
    rtnn::testing::expect_knn_distances_match(
        trial.points, trial.queries, service.query(sharded, trial.queries, knn).result,
        service.query(flat, trial.queries, knn).result, label + " knn");

    service.drop_cloud(flat_name);
    service.drop_cloud(sharded_name);
  }
}
