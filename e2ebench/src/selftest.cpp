// The deterministic-counter self-test.
//
// Counters that depend only on the inputs — per-ray traversal counts,
// partitions, bundles and index bytes of the static_lidar calls, and the
// index-lifecycle counts of the written serving tenants over a fixed
// frame sequence — must repeat exactly: across two runs with the same
// seed and across library worker-thread counts. The test collects them
// three times (all workers, all workers again, one worker) and fails on
// any difference.
#include <cstdio>
#include <map>
#include <span>
#include <string>

#include "common.hpp"
#include "core/parallel.hpp"
#include "rtnn/neighbor_search.hpp"
#include "serving.hpp"
#include "static_lidar.hpp"

namespace e2e {

namespace {

constexpr std::uint64_t kSelftestFrames = 20;

using Counters = std::map<std::string, std::uint64_t>;

void static_counters(std::uint64_t seed, Counters& out) {
  const rtnn::data::PointCloud cloud = static_cloud(seed);
  rtnn::NeighborSearch search;
  search.set_points(cloud);
  for (const rtnn::SearchMode mode : {rtnn::SearchMode::kRange, rtnn::SearchMode::kKnn}) {
    const std::string p = mode == rtnn::SearchMode::kRange ? "static.range." : "static.knn.";
    rtnn::NeighborSearch::Report r;
    const rtnn::NeighborResult result = search.search(cloud, static_params(mode), &r);
    out[p + "rays"] = r.stats.rays;
    out[p + "node_visits"] = r.stats.node_visits;
    out[p + "aabb_tests"] = r.stats.aabb_tests;
    out[p + "is_calls"] = r.stats.is_calls;
    out[p + "partitions"] = r.num_partitions;
    out[p + "bundles"] = r.num_bundles;
    out[p + "index_bytes"] = r.index_total_bytes;
    out[p + "neighbors"] = result.total_neighbors();
  }
}

/// The writer's frame sequence without concurrent reads: one warm-up
/// query (which sets the params update_points() warms with), then
/// kSelftestFrames updates of each written tenant.
void lifecycle_counters(std::uint64_t seed, Counters& out) {
  std::vector<Tenant> tenants = make_tenants(seed);
  rtnn::service::SearchService service;
  for (const std::uint32_t id : {2u, 3u}) {
    Tenant& t = tenants[id];
    rtnn::service::CloudConfig config;
    config.warmup = t.params;
    config.tile_threshold = t.tile_threshold;
    t.handle = service.register_cloud(t.name, t.base, config);
    (void)service.query(t.handle, std::span<const rtnn::Vec3>(t.base).first(256), t.params);
    for (std::uint64_t frame = 1; frame <= kSelftestFrames; ++frame) {
      service.update_points(t.handle, t.frame(frame));
    }
    const rtnn::service::ServiceStats stats = service.stats(t.handle);
    const std::string p = "lifecycle." + t.name + ".";
    out[p + "updates"] = stats.updates;
    out[p + "accel_refits"] = stats.report.accel_refits;
    out[p + "accel_rebuilds"] = stats.report.accel_rebuilds;
    out[p + "tile_count"] = stats.report.tile_count;
    out[p + "tiles_touched"] = stats.report.tiles_touched;
    out[p + "tile_refits"] = stats.report.tile_refits;
    out[p + "tile_rebuilds"] = stats.report.tile_rebuilds;
    out[p + "tile_lazy_builds"] = stats.report.tile_lazy_builds;
  }
}

}  // namespace

int run_selftest(const RunOptions& options) {
  const int workers = rtnn::num_threads();
  const int configs[3] = {workers, workers, 1};
  Counters reference;
  bool same = true;
  for (int c = 0; c < 3; ++c) {
    rtnn::set_num_threads(configs[c]);
    const auto t0 = Clock::now();
    Counters counters;
    static_counters(options.seed, counters);
    lifecycle_counters(options.seed, counters);
    std::printf("selftest run %d: seed %llu, %d worker thread(s), %zu counters, %.1f s\n", c + 1,
                static_cast<unsigned long long>(options.seed), configs[c], counters.size(),
                seconds_since(t0));
    if (c == 0) {
      reference = counters;
      for (const auto& [name, value] : counters) {
        std::printf("  %-40s %llu\n", name.c_str(), static_cast<unsigned long long>(value));
      }
      continue;
    }
    for (const auto& [name, value] : counters) {
      if (reference[name] != value) {
        same = false;
        std::printf("  MISMATCH %-40s %llu vs %llu\n", name.c_str(),
                    static_cast<unsigned long long>(reference[name]),
                    static_cast<unsigned long long>(value));
      }
    }
  }
  rtnn::set_num_threads(0);
  std::printf("selftest: deterministic counters %s across runs and worker counts\n",
              same ? "repeat exactly" : "DIFFER");
  return same ? 0 : 1;
}

}  // namespace e2e
