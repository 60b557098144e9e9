// Figure 11: overall speedup of RTNN over the four baselines, on all nine
// datasets, for range search and KNN search.
//
// Paper (RTX 2080): geomean speedups — range: 2.2x over PCLOctree, 44.0x
// over cuNSearch; KNN: 3.5x over FRNN, 65.0x over FastRNN. Speedups grow
// with input size; OOM/DNF markers for baselines that failed.
//
// Here: the same baseline classes on the CPU substrate, all driven through
// the engine layer's SearchBackend interface — "octree" (PCLOctree
// analog), "grid" (cuNSearch/FRNN analogs), "fastrnn" (naive RT mapping),
// "rtnn". All timings are end-to-end (set_points + lazy index build +
// search); queries = the points themselves. A baseline is marked DNF when
// it exceeds 200x RTNN's time (the paper used 1000x; ours is tighter to
// keep the suite fast). This is the headline case the CI perf gate tracks.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench.hpp"
#include "bench_util.hpp"
#include "engine/engine.hpp"
#include "rtnn/rtnn.hpp"

using namespace rtnn;

namespace {

constexpr std::uint32_t kK = 16;

struct Row {
  std::string dataset;
  double t_rtnn_range, t_octree, t_grid;
  double t_rtnn_knn, t_frnn, t_fastrnn;
  bool fastrnn_dnf = false;
};

/// End-to-end time of one backend on one workload: upload, (re)build the
/// structure, search.
double time_backend(bench::CaseContext& ctx, const std::string& name,
                    engine::SearchBackend& backend, std::span<const Vec3> points,
                    std::span<const Vec3> queries, const SearchParams& params) {
  return ctx.time(name,
                  [&] {
                    backend.set_points(points);
                    backend.search(queries, params);
                  },
                  {.work_items = static_cast<double>(queries.size())});
}

/// One instrumented rtnn run per dataset: per-stage seconds under the
/// `<prefix>.stage.*` names tools/bench_compare.py attributes hotspot
/// movement by, plus the footprint of the index the launches traversed
/// (`index_bytes.*`).
void emit_rtnn_breakdown(bench::CaseContext& ctx, const std::string& prefix,
                         engine::SearchBackend& backend, std::span<const Vec3> points,
                         std::span<const Vec3> queries, const SearchParams& params) {
  engine::SearchBackend::Report report;
  backend.set_points(points);
  backend.search(queries, params, &report);
  ctx.metric(prefix + ".stage.data", report.time.data, "s");
  ctx.metric(prefix + ".stage.opt", report.time.opt, "s");
  ctx.metric(prefix + ".stage.bvh", report.time.bvh, "s");
  ctx.metric(prefix + ".stage.fs", report.time.first_search, "s");
  ctx.metric(prefix + ".stage.search", report.time.search, "s");
  ctx.metric("index_bytes.node." + prefix,
             static_cast<double>(report.index_node_bytes), "B");
  ctx.metric("index_bytes.total." + prefix,
             static_cast<double>(report.index_total_bytes), "B");
}

}  // namespace

RTNN_BENCH_CASE(fig11, "fig11",
                "Figure 11 — RTNN speedup over baselines (range + KNN, 9 datasets)",
                "geomean range: 2.2x vs PCLOctree, 44x vs cuNSearch; "
                "KNN: 3.5x vs FRNN, 65x vs FastRNN; speedups grow with input size",
                "FastRNN times extrapolated from a 5% query probe; DNF = >200x RTNN") {
  const auto rtnn_backend = engine::make_backend("rtnn");
  const auto octree_backend = engine::make_backend("octree");
  const auto grid_backend = engine::make_backend("grid");
  const auto fastrnn_backend = engine::make_backend("fastrnn");

  std::vector<Row> rows;
  for (const char* name :
       {"KITTI-1M", "KITTI-6M", "KITTI-12M", "KITTI-25M", "NBody-9M", "NBody-10M",
        "Bunny-360K", "Dragon-3.6M", "Buddha-4.6M"}) {
    bench::BenchDataset ds = bench::paper_dataset(name, ctx.scale(), kK, ctx.seed());
    const auto& points = ds.points;
    Row row;
    row.dataset = name;

    SearchParams params;
    params.radius = ds.radius;
    params.k = kK;
    params.store_indices = false;

    // --- Range search ---
    params.mode = SearchMode::kRange;
    row.t_rtnn_range = time_backend(ctx, std::string("range.rtnn.") + name,
                                    *rtnn_backend, points, points, params);
    row.t_octree = time_backend(ctx, std::string("range.octree.") + name,
                                *octree_backend, points, points, params);
    row.t_grid = time_backend(ctx, std::string("range.grid.") + name, *grid_backend,
                              points, points, params);

    // --- KNN search ---
    params.mode = SearchMode::kKnn;
    row.t_rtnn_knn = time_backend(ctx, std::string("knn.rtnn.") + name, *rtnn_backend,
                                  points, points, params);
    emit_rtnn_breakdown(ctx, std::string("knn.rtnn.") + name, *rtnn_backend, points,
                        points, params);
    row.t_frnn = time_backend(ctx, std::string("knn.frnn.") + name, *grid_backend,
                              points, points, params);
    // FastRNN (naive RT KNN) can be orders of magnitude slower; probe it
    // on a query subsample and extrapolate, marking DNF past the cap.
    {
      const std::size_t probe = std::max<std::size_t>(points.size() / 20, 1000);
      const std::span<const Vec3> probe_queries(points.data(),
                                                std::min(probe, points.size()));
      const double t_probe =
          time_backend(ctx, std::string("knn.fastrnn_probe.") + name, *fastrnn_backend,
                       points, probe_queries, params);
      row.t_fastrnn =
          t_probe * static_cast<double>(points.size()) /
          static_cast<double>(probe_queries.size());
      row.fastrnn_dnf = row.t_fastrnn > 200.0 * row.t_rtnn_knn;
    }
    rows.push_back(row);
    std::fprintf(stderr, "[fig11] %s done\n", name);
  }

  std::printf("\n--- Range search: speedup of RTNN over each baseline ---\n");
  std::printf("%-12s %10s %14s %14s\n", "dataset", "rtnn[s]", "PCLOctree", "cuNSearch");
  std::vector<double> su_octree, su_grid, su_frnn, su_fastrnn;
  for (const Row& r : rows) {
    su_octree.push_back(r.t_octree / r.t_rtnn_range);
    su_grid.push_back(r.t_grid / r.t_rtnn_range);
    ctx.metric("speedup.range.octree." + r.dataset, su_octree.back(), "x");
    ctx.metric("speedup.range.grid." + r.dataset, su_grid.back(), "x");
    std::printf("%-12s %10.3f %13.1fx %13.1fx\n", r.dataset.c_str(), r.t_rtnn_range,
                su_octree.back(), su_grid.back());
  }
  ctx.metric("geomean.range.octree", bench::geomean(su_octree), "x");
  ctx.metric("geomean.range.grid", bench::geomean(su_grid), "x");
  std::printf("%-12s %10s %13.1fx %13.1fx\n", "geomean", "",
              bench::geomean(su_octree), bench::geomean(su_grid));

  std::printf("\n--- KNN search: speedup of RTNN over each baseline ---\n");
  std::printf("%-12s %10s %14s %14s\n", "dataset", "rtnn[s]", "FRNN", "FastRNN");
  for (const Row& r : rows) {
    su_frnn.push_back(r.t_frnn / r.t_rtnn_knn);
    su_fastrnn.push_back(r.t_fastrnn / r.t_rtnn_knn);
    ctx.metric("speedup.knn.frnn." + r.dataset, su_frnn.back(), "x");
    ctx.metric("speedup.knn.fastrnn." + r.dataset, su_fastrnn.back(), "x");
    char fast_buf[32];
    std::snprintf(fast_buf, sizeof(fast_buf), "%12.1fx%s", su_fastrnn.back(),
                  r.fastrnn_dnf ? " DNF" : "");
    std::printf("%-12s %10.3f %13.1fx %s\n", r.dataset.c_str(), r.t_rtnn_knn,
                su_frnn.back(), fast_buf);
  }
  ctx.metric("geomean.knn.frnn", bench::geomean(su_frnn), "x");
  ctx.metric("geomean.knn.fastrnn", bench::geomean(su_fastrnn), "x");
  std::printf("%-12s %10s %13.1fx %12.1fx\n", "geomean", "", bench::geomean(su_frnn),
              bench::geomean(su_fastrnn));
  std::puts("\nexpected shape: RTNN ahead of tree baselines by small factors and of");
  std::puts("grid/naive-RT baselines by large factors; gap grows with dataset size.");
  std::puts("(FastRNN times extrapolated from a 5% query probe; DNF = >200x RTNN.)");
}
