#include "rtnn/stages.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "rtnn/partitioner.hpp"
#include "rtnn/pipelines.hpp"
#include "rtnn/scheduler.hpp"
#include "rtnn/sharding.hpp"

namespace rtnn {

void ensure_grid_built(std::span<const Vec3> points, const SearchParams& params,
                       GridIndex& grid, bool& valid) {
  if (valid) return;
  // Cap the grid at ~128 cells per point: far finer cells cannot sharpen
  // the megacell estimate and the SAT would dominate small datasets.
  const std::uint64_t useful =
      std::max<std::uint64_t>(4096, 128 * static_cast<std::uint64_t>(points.size()));
  grid.build(points, std::min(params.max_grid_cells, useful));
  valid = true;
}

ox::Accel SearchContext::build_index() {
  Timer timer;
  const ox::Context ctx;
  ox::Accel accel;
  if (tiling.enabled() && points.size() > tiling.tile_threshold) {
    // Tile membership: the same Morton-contiguous near-equal split the
    // sharding planner uses, so each tile is a compact spatial region with
    // a tight AABB for the top-level tree.
    const std::uint32_t num_tiles =
        plan_shard_count(points.size(), tiling.tile_threshold, tiling.max_tiles);
    ShardPlan plan = plan_shards(points, num_tiles);
    std::vector<std::vector<std::uint32_t>> tile_ids;
    tile_ids.reserve(plan.shards.size());
    for (ShardPlan::Shard& shard : plan.shards) {
      tile_ids.push_back(std::move(shard.point_ids));
    }
    ox::TiledAccelOptions options;
    options.lazy_build = tiling.lazy_build;
    accel = ctx.build_tiled_accel(points, tile_ids, options);
    report.tile_count = std::max(report.tile_count, accel.tiled_bvh().tile_count());
  } else {
    // AABB generation is part of the build (Listing 1, buildBVH): one
    // zero-extent box per point.
    std::vector<Aabb> aabbs(points.size());
    parallel_for(0, static_cast<std::int64_t>(points.size()), [&](std::int64_t i) {
      const Vec3& p = points[static_cast<std::size_t>(i)];
      aabbs[static_cast<std::size_t>(i)] = Aabb{p, p};
    }, grain::kElementwise);
    accel = ctx.build_accel(aabbs);
  }
  report.time.bvh += timer.elapsed();
  return accel;
}

ox::LaunchOptions SearchContext::launch_options(float aabb_width) const {
  ox::LaunchOptions options;
  options.model = params.simt_launches ? ox::ExecutionModel::kWarpLockstep
                                       : ox::ExecutionModel::kIndependent;
  options.aabb_half_width = 0.5f * aabb_width;
  return options;
}

void SearchContext::sync_index_cache() {
  IndexCache& cache = *index_cache;
  // The refit-vs-rebuild policy judges quality at the width this call
  // searches at (its base width): a bare-point tree's leaves have no area.
  const float sah_half_width = 0.5f * base_width;
  if (!cache.accel.built()) {
    // A new upload, a new tiling, or first use: a fresh build is the only
    // option (and anchors the quality baseline).
    cache.accel = build_index();
    cache.moved = false;
  } else if (cache.moved) {
    if (cache.accel.is_tiled()) {
      // The per-tile form of the refit-vs-rebuild decision: only touched
      // tiles do any work, each judged on its *own* observed quality —
      // a tile under heavy motion rebuilds while its neighbors refit (or
      // stay untouched entirely).
      Timer timer;
      const CostModel* model = cost_model;
      const rt::TiledUpdateStats us =
          cache.accel.update_tiled(points, sah_half_width, [model](double inflation) {
            return choose_index_update(*model, inflation) == IndexUpdate::kRefit
                       ? rt::TileUpdate::kRefit
                       : rt::TileUpdate::kRebuild;
          });
      // Phase split: per-tile rebuilds are BVH work, refits are refit
      // work; the shared overhead (touched detection, top-tree rebuild)
      // rides with refit — it is maintenance, not fresh construction.
      report.time.bvh += us.build_seconds;
      report.time.refit +=
          std::max(0.0, timer.elapsed() - us.build_seconds);
      report.tiles_touched += us.tiles_touched;
      report.tile_refits += us.tile_refits;
      report.tile_rebuilds += us.tile_rebuilds;
    } else if (choose_index_update(*cost_model, cache.accel.sah_inflation(sah_half_width)) ==
               IndexUpdate::kRefit) {
      // The per-frame decision: refit in place while it is cheaper and
      // the observed quality holds; otherwise pay a build to reset it.
      Timer timer;
      cache.accel.refit(points);  // boxes computed in-loop
      report.time.refit += timer.elapsed();
      ++report.accel_refits;
    } else {
      cache.accel = build_index();
      ++report.accel_rebuilds;
    }
    cache.moved = false;
  }
  report.sah_inflation = cache.accel.sah_inflation(sah_half_width);
  if (cache.accel.is_tiled()) {
    report.tile_count =
        std::max(report.tile_count, cache.accel.tiled_bvh().tile_count());
  }
}

const ox::Accel& SearchContext::acquire_global_accel() {
  if (index_cache) {
    sync_index_cache();
    return index_cache->accel;
  }
  if (!global_accel.built()) global_accel = build_index();
  return global_accel;
}

void ScheduleStage::run(SearchContext& ctx) {
  const ox::Accel& accel = ctx.acquire_global_accel();
  // The first-hit cast routes rays too: tiles it reaches lazily build
  // here, and belong in the same build-on-first-route count.
  const std::uint32_t built_before =
      accel.is_tiled() ? accel.tiled_bvh().built_tile_count() : 0;
  ScheduleResult sched = schedule_queries(accel, ctx.points, ctx.queries,
                                          ctx.launch_options(ctx.base_width));
  if (accel.is_tiled()) {
    ctx.report.tile_lazy_builds += accel.tiled_bvh().built_tile_count() - built_before;
  }
  ctx.order = std::move(sched.order);
  ctx.report.first_hit_stats = sched.first_hit_stats;
  ctx.report.time.first_search += sched.first_hit_seconds;
  ctx.report.time.opt += sched.sort_seconds;
}

void PartitionStage::run(SearchContext& ctx) {
  RTNN_CHECK(ctx.grid != nullptr && ctx.grid_valid != nullptr,
             "PartitionStage needs the owner's grid cache");
  // The megacell grid is Opt-phase work too: built on first use and
  // again after every update_points().
  Timer grid_timer;
  ensure_grid_built(ctx.points, ctx.params, *ctx.grid, *ctx.grid_valid);
  ctx.report.time.opt += grid_timer.elapsed();
  ctx.partitions = partition_queries(*ctx.grid, ctx.queries, ctx.order, ctx.params);
  ctx.partitioned = true;
  ctx.report.time.opt += ctx.partitions.seconds;
  ctx.report.num_partitions = static_cast<std::uint32_t>(ctx.partitions.partitions.size());
}

void BundleStage::run(SearchContext& ctx) {
  RTNN_CHECK(ctx.partitioned, "BundleStage requires PartitionStage output");
  Timer timer;
  if (use_cost_model_) {
    RTNN_CHECK(ctx.cost_model != nullptr, "BundleStage needs a cost model");
    // Paper: absent offline profiling, fall back to Listing 3. Every
    // bundle launches against the call's one accel, so no bundle pays a
    // build: zero AABBs per bundle build leaves the search term alone to
    // decide, and each partition keeps its own width.
    ctx.plan = plan_bundles(ctx.partitions, /*n_points=*/0, ctx.params, *ctx.cost_model);
  } else {
    ctx.plan = unbundled_plan(ctx.partitions, ctx.params);
  }
  ctx.planned = true;
  ctx.report.num_bundles = static_cast<std::uint32_t>(ctx.plan.bundles.size());
  ctx.report.predicted_bundle_cost = ctx.plan.predicted_seconds;
  ctx.report.time.opt += timer.elapsed();
}

void LaunchStage::launch_chunk(SearchContext& ctx, const ox::Accel& accel, const Unit& unit,
                               std::span<const std::uint32_t> ids) {
  Timer timer;
  const ox::LaunchOptions options = ctx.launch_options(unit.aabb_width);
  const auto width = static_cast<std::uint32_t>(ids.size());
  if (ctx.params.mode == SearchMode::kRange) {
    const bool skip_test = unit.skip_sphere_test || ctx.params.elide_sphere_test;
    pipelines::RangePipeline pipeline(ctx.points, ctx.queries, ids, ctx.params.radius,
                                      ctx.params.k, skip_test, ctx.range_result);
    ctx.report.stats += ox::launch(accel, pipeline, width, options);
  } else {
    pipelines::KnnPipeline pipeline(ctx.points, ctx.queries, ids, ctx.params.radius,
                                    *ctx.knn_heaps);
    ctx.report.stats += ox::launch(accel, pipeline, width, options);
  }
  ctx.report.time.search += timer.elapsed();
}

void LaunchStage::launch_unit(SearchContext& ctx, const ox::Accel& accel,
                              const Unit& unit) {
  // Stream the unit's ids through fixed-size chunks. Partition id lists
  // are consumed as views; only the scratch chunk is ever materialized.
  std::size_t total = 0;
  for (const auto& span : unit.id_spans) total += span.size();

  if (unit.id_spans.size() == 1 && total <= kChunkSize) {
    launch_chunk(ctx, accel, unit, unit.id_spans.front());
    return;
  }

  std::vector<std::uint32_t> chunk;
  chunk.reserve(std::min(total, kChunkSize));
  for (const auto& span : unit.id_spans) {
    std::size_t offset = 0;
    while (offset < span.size()) {
      const std::size_t take = std::min(kChunkSize - chunk.size(), span.size() - offset);
      chunk.insert(chunk.end(), span.begin() + offset, span.begin() + offset + take);
      offset += take;
      if (chunk.size() == kChunkSize) {
        launch_chunk(ctx, accel, unit, chunk);
        chunk.clear();
      }
    }
  }
  if (!chunk.empty()) launch_chunk(ctx, accel, unit, chunk);
}

void LaunchStage::run(SearchContext& ctx) {
  // Result storage: one K-slot row per query, written by the pipelines.
  if (ctx.params.mode == SearchMode::kRange) {
    ctx.range_result =
        NeighborResult(ctx.queries.size(), ctx.params.k, ctx.params.store_indices);
  } else if (!ctx.knn_heaps) {
    ctx.knn_heaps = std::make_unique<FlatKnnHeaps>(ctx.queries.size(), ctx.params.k);
  } else {
    // A caller-supplied heap pool must match the K bound the pipelines
    // will assume (the check KnnPipeline's dropped `k` parameter became).
    RTNN_CHECK(ctx.knn_heaps->k() == ctx.params.k,
               "KNN heap capacity must match params.k");
    RTNN_CHECK(ctx.knn_heaps->num_queries() == ctx.queries.size(),
               "KNN heap pool must cover every query");
  }

  std::vector<Unit> units;
  if (ctx.planned) {
    units.reserve(ctx.plan.bundles.size());
    for (const Bundle& bundle : ctx.plan.bundles) {
      Unit unit;
      // Approximation: shrink partition widths by aabb_scale too.
      unit.aabb_width = ctx.scale_launch_widths ? bundle.aabb_width * ctx.params.aabb_scale
                                                : bundle.aabb_width;
      unit.skip_sphere_test = bundle.skip_sphere_test;
      unit.id_spans.reserve(bundle.partition_indices.size());
      for (const std::uint32_t pi : bundle.partition_indices) {
        const auto& ids = ctx.partitions.partitions[pi].query_ids;
        if (!ids.empty()) unit.id_spans.emplace_back(ids);
      }
      // Caller-supplied plans may contain empty bundles.
      if (!unit.id_spans.empty()) units.push_back(std::move(unit));
    }
  } else if (!ctx.order.empty()) {
    // Unpartitioned: one unit over the (possibly scheduled) order, at the
    // naive base width.
    Unit unit;
    unit.aabb_width = ctx.base_width;
    unit.skip_sphere_test = false;
    unit.id_spans.emplace_back(ctx.order);
    units.push_back(std::move(unit));
  }
  if (units.empty()) return;

  const ox::Accel& accel = ctx.acquire_global_accel();
  const std::uint32_t built_before =
      accel.is_tiled() ? accel.tiled_bvh().built_tile_count() : 0;
  for (const Unit& unit : units) launch_unit(ctx, accel, unit);
  // Footprint gauge: the byte cost of the wide index these launches
  // traversed (SIMT launches walk the binary tree and report 0).
  // Taken after the launches so a lazy tiled index reports the tiles the
  // rays actually forced resident, not the pre-launch zero.
  if (ctx.params.simt_launches) return;
  std::uint64_t node_bytes = 0;
  std::uint64_t total_bytes = 0;
  if (accel.is_tiled()) {
    const rt::TiledBvh& tlas = accel.tiled_bvh();
    ctx.report.tile_lazy_builds += tlas.built_tile_count() - built_before;
    const rt::TiledBvhStats ts = tlas.stats();
    node_bytes = ts.node_bytes;
    total_bytes = ts.total_index_bytes;
  } else {
    const rt::WideBvhStats ws = accel.wide_bvh().stats();
    node_bytes = ws.node_bytes;
    total_bytes = ws.total_index_bytes;
  }
  ctx.report.index_node_bytes = std::max(ctx.report.index_node_bytes, node_bytes);
  ctx.report.index_total_bytes = std::max(ctx.report.index_total_bytes, total_bytes);
}

namespace {

/// Shared scatter core: `row_of(merged_row)` names the batch-result row
/// that answers a merged row — identity for plain coalesced batches, the
/// optimizer's representative map for reordered/deduped ones.
template <typename RowOf>
std::vector<NeighborResult> scatter_batch_result(const NeighborResult& batch,
                                                 std::span<const BatchSlice> slices,
                                                 RowOf&& row_of) {
  std::vector<NeighborResult> results;
  results.reserve(slices.size());
  const bool indices = batch.stores_indices();
  for (const BatchSlice& slice : slices) {
    NeighborResult out(slice.count, batch.k(), indices);
    for (std::size_t q = 0; q < slice.count; ++q) {
      const std::size_t row = row_of(slice.first + q);
      RTNN_CHECK(row < batch.num_queries(), "batch slice exceeds the batch result");
      if (indices) {
        for (const std::uint32_t p : batch.neighbors(row)) out.record(q, p);
      } else {
        out.count_ref(q) = batch.count(row);
      }
    }
    results.push_back(std::move(out));
  }
  return results;
}

}  // namespace

std::vector<NeighborResult> split_batch_result(const NeighborResult& batch,
                                               std::span<const BatchSlice> slices) {
  return scatter_batch_result(batch, slices, [](std::size_t row) { return row; });
}

std::vector<NeighborResult> split_batch_result(const NeighborResult& batch,
                                               std::span<const BatchSlice> slices,
                                               std::span<const std::uint32_t> batch_rows) {
  return scatter_batch_result(batch, slices, [&](std::size_t row) {
    RTNN_CHECK(row < batch_rows.size(), "batch slice exceeds the row map");
    return static_cast<std::size_t>(batch_rows[row]);
  });
}

DynamicSearchSession::DynamicSearchSession(const SearchParams& params,
                                           const CostModel& model)
    : params_(params) {
  search_.set_cost_model(model);
  search_.set_index_persistence(true);
}

NeighborResult DynamicSearchSession::step(std::span<const Vec3> points,
                                          std::span<const Vec3> queries,
                                          NeighborSearch::Report* report) {
  RTNN_CHECK(!points.empty(), "a frame needs points");
  if (search_.point_count() == points.size()) {
    search_.update_points(points);  // moved positions: refit-eligible
  } else {
    search_.set_points(points);     // first frame or a resize: fresh index
  }
  ++frame_;
  return search_.search(queries, params_, report);
}

std::vector<std::unique_ptr<SearchStage>> make_pipeline(const OptimizationFlags& opts) {
  std::vector<std::unique_ptr<SearchStage>> stages;
  if (opts.scheduling) stages.push_back(std::make_unique<ScheduleStage>());
  if (opts.partitioning) {
    stages.push_back(std::make_unique<PartitionStage>());
    stages.push_back(std::make_unique<BundleStage>(opts.bundling));
  }
  stages.push_back(std::make_unique<LaunchStage>());
  return stages;
}

}  // namespace rtnn
