// Figure 13: teasing apart the optimizations — NoOpt, Sched, Sched+Partition,
// Sched+Partition+Bundle, Oracle — on KITTI-12M (13a) and NBody-9M (13b),
// for KNN and range search.
//
// Paper: scheduling gives 1.8-5.9x; partitioning adds 154x for KITTI KNN
// but *degrades* NBody (many partitions -> build overhead); bundling adds
// ~18.8%/18.6% on range search and is within 3% of the Oracle on KITTI;
// the NBody Oracle disables partitioning entirely.
//
// Substrate note: the paper's partitioning pays one BVH build per bundle
// because RT cores cannot grow boxes while they traverse. This library
// builds one index per search and passes each bundle's width to its
// launch, so partitioning costs no builds and bundling can only merge
// widths: BundleStage plans with zero build cost, which keeps every
// partition at its own width. Nor can RT cores shrink boxes: here a KNN
// ray narrows to its K-th distance while it walks (KnnPipeline's cull),
// which takes what partitioning bought KNN.
//
// Oracle here = best measured time over {scheduling-only (no partitioning)}
// ∪ {every theorem-family bundling plan M_o = 1..M}, the same "offline
// exhaustive search infeasible at run time" the paper describes. Each
// Oracle plan is timed once — the Oracle is already a min over many
// trials, so the runner's min-of-N is applied to the ablation axes only.
//
// Each ablation point is a hand-assembled stage pipeline (rtnn/stages.hpp)
// run through NeighborSearch::run_stages() — the axes are real stage
// objects, not bool flags.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <numeric>

#include "bench/bench.hpp"
#include "bench_util.hpp"
#include "rtnn/rtnn.hpp"
#include "rtnn/stages.hpp"

using namespace rtnn;

namespace {

constexpr std::uint32_t kK = 16;

/// One ablation point: which stages run before the launch.
std::vector<std::unique_ptr<SearchStage>> ablation_pipeline(bool sched, bool part,
                                                            bool bundle) {
  std::vector<std::unique_ptr<SearchStage>> stages;
  if (sched) stages.push_back(std::make_unique<ScheduleStage>());
  if (part) {
    stages.push_back(std::make_unique<PartitionStage>());
    stages.push_back(std::make_unique<BundleStage>(bundle));
  }
  stages.push_back(std::make_unique<LaunchStage>());
  return stages;
}

SearchParams ablation_params(const bench::BenchDataset& ds, SearchMode mode) {
  SearchParams params;
  params.mode = mode;
  params.radius = ds.radius;
  params.k = kK;
  params.store_indices = false;
  params.max_grid_cells = std::uint64_t{1} << 24;
  return params;
}

double run_config(bench::CaseContext& ctx, const std::string& name,
                  NeighborSearch& search, const bench::BenchDataset& ds,
                  SearchMode mode, bool sched, bool part, bool bundle) {
  const SearchParams params = ablation_params(ds, mode);
  const auto stages = ablation_pipeline(sched, part, bundle);
  return ctx.time(name, [&] { search.run_stages(ds.points, params, stages); },
                  {.work_items = static_cast<double>(ds.points.size())});
}

double run_oracle(NeighborSearch& search, const bench::BenchDataset& ds,
                  SearchMode mode) {
  const SearchParams params = ablation_params(ds, mode);
  // Candidate 1: no partitioning at all.
  const auto sched_only = ablation_pipeline(/*sched=*/true, /*part=*/false,
                                            /*bundle=*/false);
  double best = bench::time_call(
      [&] { search.run_stages(ds.points, params, sched_only); });
  // Candidates 2..: every theorem-family plan, executed for real.
  std::vector<std::uint32_t> order(ds.points.size());
  std::iota(order.begin(), order.end(), 0u);
  const PartitionSet parts = search.partition(ds.points, order, params);
  const std::size_t m = parts.partitions.size();
  // Enumerate M_o; cap the enumeration for very fragmented partition sets.
  const std::size_t max_plans = 12;
  const std::size_t step = std::max<std::size_t>(1, m / max_plans);
  for (std::size_t mo = 1; mo <= m; mo += step) {
    // Build the theorem plan for this mo directly.
    std::vector<std::uint32_t> by_count(m);
    std::iota(by_count.begin(), by_count.end(), 0u);
    std::stable_sort(by_count.begin(), by_count.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return parts.partitions[a].query_ids.size() <
                              parts.partitions[b].query_ids.size();
                     });
    BundlePlan plan;
    plan.m_opt = static_cast<std::uint32_t>(mo);
    const std::size_t merged = m - mo + 1;
    Bundle big;
    for (std::size_t i = 0; i < merged; ++i) {
      const Partition& p = parts.partitions[by_count[i]];
      big.partition_indices.push_back(by_count[i]);
      big.aabb_width = std::max(big.aabb_width, p.aabb_width);
      big.query_count += p.query_ids.size();
    }
    big.skip_sphere_test = (mode == SearchMode::kRange) &&
                           (big.aabb_width * 1.7320508f * 0.5f) <= ds.radius;
    plan.bundles.push_back(std::move(big));
    for (std::size_t i = merged; i < m; ++i) {
      const Partition& p = parts.partitions[by_count[i]];
      Bundle solo;
      solo.partition_indices.push_back(by_count[i]);
      solo.aabb_width = p.aabb_width;
      solo.skip_sphere_test = p.skip_sphere_test;
      solo.query_count = p.query_ids.size();
      plan.bundles.push_back(std::move(solo));
    }
    const double t = bench::time_call(
        [&] { search.search_with_plan(ds.points, params, parts, plan); });
    best = std::min(best, t);
  }
  return best;
}

}  // namespace

RTNN_BENCH_CASE(fig13, "fig13",
                "Figure 13 — optimization ablation (NoOpt / Sched / +Part / +Bundle / Oracle)",
                "KITTI: partitioning gives 154x on KNN; NBody: partitioning degrades "
                "(Oracle disables it); bundling ~ +18% on range, within 3% of Oracle",
                "Sched ~ NoOpt in CPU wall clock (no warp divergence here); the "
                "coherence win shows in the SIMT counters of Figures 5/6; KNN rays "
                "narrow to their K-th distance, so +Part ~ Sched for KNN") {
  for (const char* name : {"KITTI-12M", "NBody-9M"}) {
    bench::BenchDataset ds = bench::paper_dataset(name, ctx.scale(), kK, ctx.seed());
    // Physically-scaled radius (the regime the paper evaluates: the 2r
    // baseline AABB encloses far more than K neighbors, so partitioning
    // has headroom).
    ds.radius = bench::paper_radius(name, ds);
    NeighborSearch search;
    search.set_points(ds.points);
    std::printf("\n--- %s ---\n", name);
    std::printf("%-8s %10s %10s %12s %14s %10s\n", "mode", "NoOpt[s]", "Sched[s]",
                "+Part[s]", "+Bundle[s]", "Oracle[s]");
    for (const SearchMode mode : {SearchMode::kKnn, SearchMode::kRange}) {
      const std::string prefix =
          std::string(name) + "." + (mode == SearchMode::kKnn ? "knn" : "range");
      const double t_noopt =
          run_config(ctx, prefix + ".noopt", search, ds, mode, false, false, false);
      const double t_sched =
          run_config(ctx, prefix + ".sched", search, ds, mode, true, false, false);
      const double t_part =
          run_config(ctx, prefix + ".part", search, ds, mode, true, true, false);
      const double t_bundle =
          run_config(ctx, prefix + ".bundle", search, ds, mode, true, true, true);
      const double t_oracle = run_oracle(search, ds, mode);
      ctx.metric(prefix + ".oracle_s", t_oracle, "s");
      ctx.metric(prefix + ".bundle_vs_oracle", t_bundle / t_oracle, "x");
      std::printf("%-8s %10.3f %10.3f %12.3f %14.3f %10.3f\n",
                  mode == SearchMode::kKnn ? "KNN" : "Range", t_noopt, t_sched, t_part,
                  t_bundle, t_oracle);
    }
  }
  std::puts("\nexpected shape: +Part is the paper's big KNN win (154x on KITTI) because");
  std::puts("it shrinks the launch width, but here every KNN ray already narrows its");
  std::puts("boxes to its K-th distance as its heap fills, so Sched/+Part for KNN is");
  std::puts("~1x (measured 0.9-1.0x on KITTI-12M at scale 0.002; 15-16x before the");
  std::puts("cull) and +Part is a small range-search effect; every partition launches");
  std::puts("at its own width against one index, so partitioning adds no builds and");
  std::puts("+Bundle ~ +Part ~ Oracle (the paper's NBody loss to per-partition builds");
  std::puts("does not occur).");
  std::puts("Substrate note: Sched ~ NoOpt in wall clock because the independent CPU");
  std::puts("engine pays no warp divergence — the coherence win shows in the SIMT");
  std::puts("counters (Figures 5/6), not in CPU seconds.");
}
