// static_lidar: one-shot NeighborSearch::search() calls on the KITTI-12M
// lidar generator at scale 0.02 (240k points), the queries being the
// points themselves, r = 3 m, K = 16, every optimization on. Range and KNN
// calls alternate and every call pays its own index build — the paper's
// own regime (Figures 11-13).
//
// Untraced, the run times search(). Traced, it first repeats the
// untraced calls (the overhead baseline), then runs the same pipeline as
// make_pipeline() stages wrapped in spans through run_stages(), and
// finally times direct index builds at the optix and rtcore layers.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "check.hpp"
#include "common.hpp"
#include "core/aabb.hpp"
#include "core/rng.hpp"
#include "datasets/lidar.hpp"
#include "optix/optix.hpp"
#include "rtcore/bvh.hpp"
#include "rtcore/wide_bvh.hpp"
#include "rtnn/neighbor_search.hpp"
#include "rtnn/stages.hpp"
#include "static_lidar.hpp"

namespace e2e {

using rtnn::NeighborSearch;
using rtnn::SearchMode;
using rtnn::SearchParams;
using rtnn::Vec3;

namespace {

constexpr int kSetupRepeats = 3;
constexpr std::size_t kCheckRows = 48;  // brute-force rows checked per call
constexpr int kBuildRepeats = 3;

const char* mode_name(SearchMode mode) { return mode == SearchMode::kRange ? "range" : "knn"; }

/// The make_pipeline() stages, in order; a stage's slot in ModeRun::stage_s.
constexpr const char* kStageNames[4] = {"schedule", "partition", "bundle", "launch"};
constexpr const char* kStageSpans[4] = {"rtnn.schedule", "rtnn.partition", "rtnn.bundle",
                                        "rtnn.launch"};

/// A search stage that records a span (and its own wall time) around the
/// stage it wraps.
class SpanStage final : public rtnn::SearchStage {
 public:
  SpanStage(std::unique_ptr<rtnn::SearchStage> inner, Tracer& tracer, double (&stage_s)[4])
      : inner_(std::move(inner)), tracer_(tracer), slot_(3) {
    for (int s = 0; s < 4; ++s) {
      if (std::string_view(inner_->name()) == kStageNames[s]) slot_ = s;
    }
    seconds_ = &stage_s[slot_];
  }
  const char* name() const override { return inner_->name(); }
  void run(rtnn::SearchContext& ctx) override {
    const auto scope = tracer_.span(kStageSpans[slot_], "rtnn");
    const auto t0 = Clock::now();
    inner_->run(ctx);
    *seconds_ += seconds_since(t0);
  }

 private:
  std::unique_ptr<rtnn::SearchStage> inner_;
  Tracer& tracer_;
  int slot_;
  double* seconds_ = nullptr;
};

/// What one mode accumulates over a phase of calls.
struct ModeRun {
  std::vector<double> wall_s;
  NeighborSearch::Report first;   // the first call's report (counters)
  std::uint64_t first_neighbors = 0;  // neighbors the first call returned
  NeighborSearch::Report sum;     // every call's report, summed
  std::vector<std::uint64_t> counter_fingerprint;  // per call, must not change
  double stage_s[4] = {0, 0, 0, 0};  // schedule, partition, bundle, launch
  bool counters_stable = true;
};

std::vector<std::uint64_t> fingerprint(const NeighborSearch::Report& r,
                                       const rtnn::NeighborResult& result) {
  return {r.stats.rays,     r.stats.node_visits, r.stats.aabb_tests,  r.stats.is_calls,
          r.num_partitions, r.num_bundles,       r.index_total_bytes, result.total_neighbors()};
}

}  // namespace

SearchParams static_params(SearchMode mode) {
  SearchParams params;
  params.mode = mode;
  params.radius = kStaticRadius;
  params.k = kStaticK;
  params.opts = rtnn::OptimizationFlags::all();
  return params;
}

rtnn::data::PointCloud static_cloud(std::uint64_t seed) {
  rtnn::data::LidarParams lidar;
  lidar.target_points = kStaticPoints;
  lidar.seed = kStaticSceneSeed;
  rtnn::data::PointCloud cloud = rtnn::data::lidar_scan(lidar);
  jitter(cloud, 0.002f * kStaticRadius, mix_seed(seed, 43));
  return cloud;
}

namespace {

class StaticRun {
 public:
  StaticRun(const RunOptions& options, Tracer& tracer, Outcome& outcome)
      : tracer_(tracer), outcome_(outcome),
        cloud_(static_cloud(options.seed)), rng_(mix_seed(options.seed, 907)) {
    params_[0] = static_params(SearchMode::kRange);
    params_[1] = static_params(SearchMode::kKnn);
  }

  /// Builds the search object kSetupRepeats times (upload plus the
  /// untimed first call, a range search that also builds the megacell
  /// grid both modes share); returns each set-up's seconds.
  std::vector<double> setup() {
    std::vector<double> samples;
    for (int i = 0; i < kSetupRepeats; ++i) {
      search_.reset();
      const auto t0 = Clock::now();
      search_ = std::make_unique<NeighborSearch>();
      {
        const auto span = tracer_.span("rtnn.set_points", "rtnn");
        search_->set_points(cloud_);
      }
      {
        const auto span = tracer_.span("rtnn.search", "rtnn");
        (void)search_->search(cloud_, params_[0]);
      }
      samples.push_back(seconds_since(t0));
    }
    return samples;
  }

  /// Alternates range and KNN calls (at least two of each) while the next
  /// pair is expected to end within `budget_s`. `staged` runs the
  /// span-wrapped make_pipeline() stages.
  void run_phase(double budget_s, bool staged, ModeRun (&runs)[2]) {
    const auto t0 = Clock::now();
    double pair_s = 0.0;  // longest range + KNN pair so far, checks included
    auto pair_start = t0;
    for (int call = 0;; ++call) {
      const int m = call % 2;
      if (m == 0) {
        if (call >= 4 && seconds_since(t0) + pair_s > budget_s) break;
        pair_start = Clock::now();
      }
      const SearchParams& params = params_[m];
      ModeRun& run = runs[m];
      NeighborSearch::Report report;
      const auto c0 = Clock::now();
      rtnn::NeighborResult result;
      try {
        if (staged) {
          std::vector<std::unique_ptr<rtnn::SearchStage>> stages;
          for (auto& stage : rtnn::make_pipeline(params.opts)) {
            stages.push_back(std::make_unique<SpanStage>(std::move(stage), tracer_, run.stage_s));
          }
          const auto span = tracer_.span("rtnn.run_stages", "rtnn");
          result = search_->run_stages(cloud_, params, stages, &report);
        } else {
          result = search_->search(cloud_, params, &report);
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "static_lidar: %s search failed: %s\n", mode_name(params.mode),
                     e.what());
        ++outcome_.attempted;
        ++outcome_.errors;
        continue;
      }
      run.wall_s.push_back(seconds_since(c0));
      ++outcome_.attempted;
      if (run.wall_s.size() == 1) {
        run.first = report;
        run.first_neighbors = result.total_neighbors();
        run.counter_fingerprint = fingerprint(report, result);
      } else if (fingerprint(report, result) != run.counter_fingerprint) {
        run.counters_stable = false;
      }
      run.sum += report;
      check(result, params);
      if (m == 1) pair_s = std::max(pair_s, seconds_since(pair_start));
    }
  }

  /// Median seconds of kBuildRepeats runs of `fn` — used for the direct builds.
  template <typename Fn>
  double median_seconds(Fn&& fn) {
    std::vector<double> samples;
    for (int i = 0; i < kBuildRepeats; ++i) {
      const auto t0 = Clock::now();
      fn();
      samples.push_back(seconds_since(t0));
    }
    return median(samples);
  }

  const rtnn::data::PointCloud& cloud() const { return cloud_; }

 private:
  void check(const rtnn::NeighborResult& result, const SearchParams& params) {
    std::vector<CheckedRow> rows;
    for (std::size_t i = 0; i < kCheckRows; ++i) {
      const std::size_t q = rng_.next_bounded(static_cast<std::uint32_t>(cloud_.size()));
      const auto ids = result.neighbors(q);
      rows.push_back({cloud_[q], {ids.begin(), ids.end()}});
    }
    const std::uint64_t wrong = count_wrong_rows(cloud_, rows, params);
    outcome_.checked += rows.size();
    if (wrong > 0) {
      std::fprintf(stderr, "static_lidar: %s call returned %llu wrong rows of %zu checked\n",
                   mode_name(params.mode), static_cast<unsigned long long>(wrong),
                   rows.size());
      ++outcome_.wrong;
    }
  }

  Tracer& tracer_;
  Outcome& outcome_;
  rtnn::data::PointCloud cloud_;
  rtnn::Pcg32 rng_;
  SearchParams params_[2];
  std::unique_ptr<NeighborSearch> search_;
};

std::string calls_note(const std::vector<double>& wall_s) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "n=%zu calls, %.1f..%.1f ms", wall_s.size(),
                *std::min_element(wall_s.begin(), wall_s.end()) * 1e3,
                *std::max_element(wall_s.begin(), wall_s.end()) * 1e3);
  return buf;
}

double per_call(double total, std::size_t calls) {
  return calls ? total / static_cast<double>(calls) : 0.0;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

}  // namespace

int run_static_lidar(const RunOptions& options, Tracer& tracer, Metrics& metrics,
                     Outcome& outcome) {
  StaticRun run(options, tracer, outcome);
  const std::size_t n = run.cloud().size();
  const std::vector<double> setup = run.setup();

  ModeRun plain[2];
  ModeRun staged[2];
  run.run_phase(options.trace ? options.seconds / 2 : options.seconds, false, plain);
  if (options.trace) run.run_phase(options.seconds / 2, true, staged);

  // The lower quartile of the calls: noise from outside the process
  // (CPU time stolen from the machine) only ever adds time, and a median
  // still moves with it when it hits a third of a run.
  const double range_s = percentile(plain[0].wall_s, 0.25);
  const double knn_s = percentile(plain[1].wall_s, 0.25);
  if (!options.trace) {
    metrics.gate("range_ms", range_s * 1e3, "ms",
                 "lower quartile of one-shot range search() walls, build included");
    metrics.gate("knn_ms", knn_s * 1e3, "ms",
                 "lower quartile of one-shot KNN search() walls, build included");
    metrics.info("range_p50_ms", median(plain[0].wall_s) * 1e3, "ms");
    metrics.info("knn_p50_ms", median(plain[1].wall_s) * 1e3, "ms");
    metrics.gate("setup_s", median(setup), "s", "median of 3 set-ups: upload + untimed first range call");
  }
  metrics.info("range_qps", static_cast<double>(n) / range_s, "1/s",
               calls_note(plain[0].wall_s) + ", N=Q=" + std::to_string(n));
  metrics.info("knn_qps", static_cast<double>(n) / knn_s, "1/s", calls_note(plain[1].wall_s));
  if (!options.trace) return 0;

  // --- traced run: per-layer metrics -------------------------------------
  double traced_total = 0.0;
  for (int m = 0; m < 2; ++m) {
    const ModeRun& r = staged[m];
    const std::string sfx = m == 0 ? ".range" : ".knn";
    const std::size_t calls = r.wall_s.size();
    traced_total += percentile(r.wall_s, 0.25);
    for (int s = 0; s < 4; ++s) {
      metrics.info(std::string("rtnn.") + kStageNames[s] + "_s" + sfx, per_call(r.stage_s[s], calls), "s");
    }
    metrics.info("rtnn.partitions" + sfx, r.first.num_partitions, "count");
    metrics.info("rtnn.bundles" + sfx, r.first.num_bundles, "count");
    const rtnn::TimeBreakdown& t = r.sum.time;
    metrics.info("rtnn.time.data_s" + sfx, per_call(t.data, calls), "s");
    metrics.info("rtnn.time.opt_s" + sfx, per_call(t.opt, calls), "s");
    metrics.info("rtnn.time.bvh_s" + sfx, per_call(t.bvh, calls), "s");
    metrics.info("rtnn.time.refit_s" + sfx, per_call(t.refit, calls), "s");
    metrics.info("rtnn.time.fs_s" + sfx, per_call(t.first_search, calls), "s");
    metrics.info("rtnn.time.search_s" + sfx, per_call(t.search, calls), "s");
    const rtnn::rt::LaunchStats& st = r.first.stats;
    metrics.info("rtcore.rays" + sfx, static_cast<double>(st.rays), "count");
    metrics.info("rtcore.nodes_per_ray" + sfx, ratio(st.node_visits, st.rays), "count");
    metrics.info("rtcore.aabb_tests_per_ray" + sfx, ratio(st.aabb_tests, st.rays), "count");
    metrics.info("rtcore.is_calls_per_ray" + sfx, ratio(st.is_calls, st.rays), "count");
    // Useful work: neighbors returned per IS-shader call (the traversal
    // leaves LaunchStats::hits unset, so the result is counted instead).
    metrics.info("rtcore.hit_ratio" + sfx, ratio(r.first_neighbors, st.is_calls), "ratio",
                 "neighbors returned / IS calls");
    metrics.info("rtcore.launch_ns_per_ray" + sfx,
                 st.rays ? per_call(t.search, calls) * 1e9 / static_cast<double>(st.rays) : 0.0, "ns");
    metrics.info("rtcore.index_bytes" + sfx, static_cast<double>(r.first.index_total_bytes), "B");
    metrics.info("rtcore.index_llc_ratio" + sfx,
                 options.llc_bytes > 0 ? static_cast<double>(r.first.index_total_bytes) /
                                             static_cast<double>(options.llc_bytes)
                                       : 0.0,
                 "ratio", "largest launched index / last-level cache size");
    metrics.info("check.counters_stable" + sfx, r.counters_stable ? 1.0 : 0.0, "bool",
                 "per-call counters identical across the run's calls");
  }
  const double plain_total = range_s + knn_s;
  metrics.info("trace.overhead_frac", (traced_total - plain_total) / plain_total, "ratio",
               "(traced - untraced) / untraced, range + KNN call (lower quartiles)");

  // Direct index builds over the cloud's base-width boxes (width 2r).
  std::vector<rtnn::Aabb> boxes(n);
  for (std::size_t i = 0; i < n; ++i) {
    boxes[i] = rtnn::Aabb::cube(run.cloud()[i], 2.0f * kStaticRadius);
  }
  const rtnn::ox::Context context;
  const double ox_s = run.median_seconds([&] {
    const auto span = tracer.span("optix.build_accel", "optix");
    const rtnn::ox::Accel accel = context.build_accel(boxes);
  });
  rtnn::rt::Bvh bvh;
  const double bvh_s = run.median_seconds([&] {
    const auto span = tracer.span("rtcore.bvh_build", "rtcore");
    bvh.build(boxes);
  });
  const double wide_s = run.median_seconds([&] {
    const auto span = tracer.span("rtcore.wide_build", "rtcore");
    rtnn::rt::WideBvh wide;
    wide.build(bvh);
  });
  const double per_prim = 1e9 / static_cast<double>(n);
  metrics.info("optix.build_accel_ns_per_prim", ox_s * per_prim, "ns");
  metrics.info("rtcore.bvh_build_ns_per_prim", bvh_s * per_prim, "ns");
  metrics.info("rtcore.wide_build_ns_per_prim", wide_s * per_prim, "ns");
  return 0;
}

}  // namespace e2e
