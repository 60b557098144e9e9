// serving_read / serving_rw: open-loop traffic through SearchService.
//
// One submitter thread issues requests on a fixed arrival schedule (a
// constant nominal rate, never derived from this machine's speed) to four
// tenants; a collector thread records each request's latency from its
// *due* time to ticket completion, so a late generator or a queue backlog
// shows up as latency instead of silently lowering the offered load.
// serving_rw adds a writer thread that moves two tenants at 10 Hz each.
//
// Answers are checked after the timed phases: a seeded sample of requests
// keeps a few answered rows plus the snapshot_version they report, and
// each is checked by brute force against that version's frame, which the
// writer's deterministic motion rebuilds on demand.
#include "serving.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "check.hpp"
#include "common.hpp"
#include "core/rng.hpp"
#include "datasets/lidar.hpp"
#include "datasets/nbody.hpp"
#include "datasets/surface.hpp"
#include "service/service.hpp"

namespace e2e {

using rtnn::SearchMode;
using rtnn::SearchParams;
using rtnn::Vec3;
using rtnn::service::CloudConfig;
using rtnn::service::CloudHandle;
using rtnn::service::RejectReason;
using rtnn::service::RequestOptions;
using rtnn::service::SearchService;
using rtnn::service::ServiceError;
using rtnn::service::ServiceStats;

rtnn::data::PointCloud Tenant::frame(std::uint64_t t) const {
  rtnn::data::PointCloud points = base;
  const float phase =
      std::sin(6.2831853f * static_cast<float>(static_cast<double>(t) / kMotionPeriodFrames));
  if (motion == Motion::kVehicles) {
    for (std::size_t i = 0; i < movers.size(); ++i) points[movers[i]] += velocity[i] * phase;
  } else if (motion == Motion::kDrift) {
    for (std::size_t i = 0; i < points.size(); ++i) points[i] += velocity[i] * phase;
  }
  return points;
}

SearchParams tenant_params(SearchMode mode, float radius, std::uint32_t k) {
  SearchParams params;
  params.mode = mode;
  params.radius = radius;
  params.k = k;
  // Serving requests are small: the naive launch over the resident index,
  // as the serving layer is meant to be used (no per-request builds).
  params.opts = rtnn::OptimizationFlags::none();
  return params;
}

std::vector<Tenant> make_tenants(std::uint64_t seed) {
  std::vector<Tenant> tenants(4);
  {
    rtnn::data::LidarParams lidar;
    lidar.target_points = 240'000;
    lidar.seed = 201;
    tenants[0].name = "lidar";
    tenants[0].base = rtnn::data::lidar_scan(lidar);
    tenants[0].params = tenant_params(SearchMode::kKnn, 0.25f, 8);
  }
  {
    rtnn::data::SurfaceParams surface;
    surface.target_points = 92'000;
    surface.seed = 202;
    tenants[1].name = "surface";
    tenants[1].base = rtnn::data::surface_scan(surface);
    tenants[1].params = tenant_params(SearchMode::kRange, 0.015f, 16);
  }
  {
    rtnn::data::NBodyParams nbody;
    nbody.target_points = 90'000;
    nbody.seed = 203;
    Tenant& t = tenants[2];
    t.name = "nbody";
    t.base = rtnn::data::nbody_cluster(nbody);
    t.params = tenant_params(SearchMode::kKnn, 0.4f, 8);
    t.motion = Motion::kDrift;
    rtnn::Pcg32 rng(mix_seed(seed, 213));
    t.velocity.resize(t.base.size());
    for (Vec3& v : t.velocity) v = rng.unit_vector() * 0.5f;  // drift amplitude
  }
  {
    rtnn::data::LidarParams lidar;
    lidar.target_points = 200'000;
    lidar.seed = 204;
    Tenant& t = tenants[3];
    t.name = "street";
    t.base = rtnn::data::lidar_scan(lidar);
    t.params = tenant_params(SearchMode::kRange, 0.5f, 16);
    t.tile_threshold = t.base.size() / 48;
    t.motion = Motion::kVehicles;
    // Four vehicle-sized regions (every return within 2 m of an anchor
    // point) sway back and forth along the street.
    rtnn::Pcg32 rng(214);
    std::vector<bool> moving(t.base.size(), false);
    for (int v = 0; v < 4; ++v) {
      const Vec3 anchor = t.base[rng.next_bounded(static_cast<std::uint32_t>(t.base.size()))];
      const float angle = rng.uniform(0.0f, 6.2831853f);
      const Vec3 sway{3.0f * std::cos(angle), 3.0f * std::sin(angle), 0.0f};
      for (std::uint32_t i = 0; i < t.base.size(); ++i) {
        if (!moving[i] && rtnn::distance2(t.base[i], anchor) < 4.0f) {
          moving[i] = true;
          t.movers.push_back(i);
          t.velocity.push_back(sway);
        }
      }
    }
  }
  std::uint64_t stream = 220;
  for (Tenant& t : tenants) jitter(t.base, 0.002f * t.params.radius, mix_seed(seed, ++stream));
  return tenants;
}

namespace {

constexpr double kNominalRate = 150.0;           // arrivals/s offered by the submitter
constexpr std::size_t kRequestSizes[4] = {16, 64, 256, 1024};
constexpr double kUpdatePeriod = 0.1;            // per written tenant (10 Hz)
constexpr auto kDeadline = std::chrono::seconds(2);
constexpr int kSetupRepeats = 3;
constexpr std::uint32_t kSampleOneIn = 8;        // requests whose answers are checked
constexpr std::size_t kRowsPerSample = 4;
constexpr double kLadderP99LimitMs = 50.0;
constexpr double kLadderRates[] = {150, 250, 350, 450, 600, 800};
constexpr int kWindows = 10;                     // of the nominal phase, see class_median_ms()
constexpr double kLadderShare = 0.4;             // of serving_read's seconds

/// One scheduled request: which tenant, and which rows of its base cloud.
struct Request {
  std::uint32_t tenant = 0;
  std::uint32_t size_class = 0;  // index into kRequestSizes
  std::size_t first = 0;
  std::size_t count = 0;
  bool sampled = false;
};

/// The seeded request sequence, one arrival at a time. Half of the street
/// arrivals are two callers reading along the street at once: a pair of
/// sliding windows, the second advanced half a width past the first, so
/// the pair shares half its rows. Both are due at the same instant, so
/// they land in one dispatcher tick for the batch optimizer to dedup.
class Schedule {
 public:
  Schedule(const std::vector<Tenant>& tenants, std::uint64_t seed)
      : tenants_(tenants), rng_(seed) {}

  std::vector<Request> next() {
    Request r;
    r.tenant = rng_.next_bounded(4);
    const std::size_t n = tenants_[r.tenant].base.size();
    r.size_class = rng_.next_bounded(4);
    r.count = std::min(kRequestSizes[r.size_class], n);
    const bool slide = r.tenant == 3 && rng_.next_bounded(2) == 0;
    if (!slide) {
      r.first = rng_.next_bounded(static_cast<std::uint32_t>(n - r.count + 1));
      r.sampled = rng_.next_bounded(kSampleOneIn) == 0;
      return {r};
    }
    std::vector<Request> pair(2, r);
    for (Request& w : pair) {
      w.size_class = 2;
      w.count = kRequestSizes[w.size_class];
      w.first = slide_ % (n - w.count);
      slide_ += w.count / 2;
      w.sampled = rng_.next_bounded(kSampleOneIn) == 0;
    }
    return pair;
  }

 private:
  const std::vector<Tenant>& tenants_;
  rtnn::Pcg32 rng_;
  std::size_t slide_ = 0;
};

/// A checked answer: its tenant, the snapshot version it reports, rows.
struct Sample {
  std::uint32_t tenant = 0;
  std::uint64_t version = 0;
  std::vector<CheckedRow> rows;
};

struct PhaseResult {
  double wall_s = 0.0;
  /// Every completed request: class (tenant * 4 + size index), due time
  /// since the phase start, and latency.
  struct Completed {
    std::uint32_t request_class;
    double due_s;
    double ms;
  };
  std::vector<Completed> completed;
  /// Every update_points() call: tenant, due time since the phase start,
  /// and wall time.
  struct Update {
    std::uint32_t tenant;
    double due_s;
    double ms;
  };
  std::vector<Update> updates;
  std::vector<double> submit_us;
  std::vector<double> queue_depth;
  /// The read path's share of the service's merged reports: each
  /// completed request adds 1/batch_requests of its batch's report, so a
  /// batch counts once. stats() also merges the writer's warm-up probes;
  /// these sums tell the two apart.
  double read_report_s = 0.0;
  double read_refit_s[4] = {};  // per tenant
  double read_bvh_s[4] = {};    // per tenant
  double max_late_ms = 0.0;
  std::size_t outstanding_at_end = 0;  // submitted but not completed at the phase end
  Outcome outcome;
  std::vector<Sample> samples;
};

/// Runs a load-generator thread's body; an exception escaping it is
/// counted as a failed operation instead of ending the process.
template <typename Body>
void guarded(Outcome& outcome, Body&& body) {
  try {
    body();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serving: load generator thread failed: %s\n", e.what());
    ++outcome.attempted;
    ++outcome.errors;
  }
}

void merge_outcome(Outcome& into, const Outcome& o) {
  into.attempted += o.attempted;
  into.errors += o.errors;
  into.shed += o.shed;
  into.deadline += o.deadline;
  into.wrong += o.wrong;
  into.checked += o.checked;
}

std::vector<double> update_walls_ms(const PhaseResult& phase) {
  std::vector<double> ms;
  ms.reserve(phase.updates.size());
  for (const PhaseResult::Update& u : phase.updates) ms.push_back(u.ms);
  return ms;
}

std::vector<double> latencies_ms(const PhaseResult& phase) {
  std::vector<double> ms;
  ms.reserve(phase.completed.size());
  for (const PhaseResult::Completed& c : phase.completed) ms.push_back(c.ms);
  return ms;
}

struct Pending {
  Request request;
  Clock::time_point due;
  SearchService::Ticket ticket;
};

class ServingRun {
 public:
  ServingRun(const RunOptions& options, Tracer& tracer)
      : options_(options), tracer_(tracer), tenants_(make_tenants(options.seed)) {}

  std::vector<Tenant>& tenants() { return tenants_; }
  SearchService& service() { return *service_; }

  /// Starts a fresh service: registration (eager builds with a warm-up
  /// probe), then untimed first calls on every tenant — one request per
  /// size, and for the tiled street a sweep that builds every tile.
  double setup() {
    service_.reset();
    const auto t0 = Clock::now();
    service_ = std::make_unique<SearchService>();
    for (Tenant& t : tenants_) {
      CloudConfig config;
      config.build_on_register = true;
      config.warmup = t.params;
      config.tile_threshold = t.tile_threshold;
      const auto span = tracer_.span("service.register_cloud", "service");
      t.handle = service_->register_cloud(t.name, t.base, config);
    }
    for (Tenant& t : tenants_) {
      for (const std::size_t size : kRequestSizes) {
        const auto span = tracer_.span("service.query", "service");
        (void)service_->query(t.handle, std::span<const Vec3>(t.base).first(size), t.params);
      }
      if (t.tile_threshold > 0) {
        std::vector<Vec3> sweep;
        for (std::size_t i = 0; i < t.base.size(); i += 8) sweep.push_back(t.base[i]);
        const auto span = tracer_.span("service.query", "service");
        (void)service_->query(t.handle, sweep, t.params);
      }
    }
    frames_.assign(tenants_.size(), 0);
    version_frame_.assign(tenants_.size(), {{0, 0}});
    return seconds_since(t0);
  }

  /// Runs the open loop at `rate` for `duration_s`; `traced` opens spans
  /// around calls and samples queue depth. Requests carry a deadline
  /// (kDeadline past due) unless `deadlines` is off — the capacity ladder
  /// overloads on purpose and measures lateness instead.
  PhaseResult run_phase(double rate, double duration_s, bool with_writer, bool traced,
                        std::uint64_t stream, bool deadlines = true) {
    Tracer& tracer = traced ? tracer_ : untraced_;
    PhaseResult result;
    Schedule schedule(tenants_, mix_seed(options_.seed, stream));
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Pending> handoff;
    bool submitter_done = false;
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(duration_s));

    // Each thread tallies its own outcome; they merge after the joins.
    Outcome submit_outcome;
    Outcome collect_outcome;
    Outcome writer_outcome;
    std::thread collector([&] {
      guarded(collect_outcome, [&] {
        collect(result, mutex, cv, handoff, submitter_done, start, end);
      });
    });
    std::thread writer;
    if (with_writer) {
      writer = std::thread([&] {
        guarded(writer_outcome, [&] {
          write(result.updates, writer_outcome, start, end, tracer);
        });
      });
    }
    // Stops and joins the helper threads on every way out of this scope.
    struct Join {
      std::mutex& mutex;
      std::condition_variable& cv;
      bool& done;
      std::thread& collector;
      std::thread& writer;
      ~Join() {
        {
          std::lock_guard<std::mutex> lock(mutex);
          done = true;
        }
        cv.notify_one();
        collector.join();
        if (writer.joinable()) writer.join();
      }
    };

    {
      const Join join{mutex, cv, submitter_done, collector, writer};
      auto last_health = start;
      for (std::size_t i = 0;; ++i) {
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(static_cast<double>(i) / rate));
        if (due >= end) break;
        const std::vector<Request> arrival = schedule.next();
        if (traced && due - last_health > std::chrono::milliseconds(10) &&
            Clock::now() + std::chrono::milliseconds(1) < due) {
          last_health = Clock::now();
          const auto span = tracer.span("service.health", "service");
          result.queue_depth.push_back(static_cast<double>(service_->health().queue_depth));
        }
        std::this_thread::sleep_until(due);
        result.max_late_ms =
            std::max(result.max_late_ms,
                     std::chrono::duration<double, std::milli>(Clock::now() - due).count());
        for (std::size_t a = 0; a < arrival.size(); ++a) {
          const Request& request = arrival[a];
          const Tenant& tenant = tenants_[request.tenant];
          RequestOptions request_options;
          if (deadlines) request_options.deadline = due + kDeadline;
          Pending pending{request, due, {}};
          const auto submit_at = Clock::now();
          try {
            const auto span =
                tracer.span("service.submit", "service", stream << 40 | (i + 1) << 1 | a);
            pending.ticket = service_->submit(
                tenant.handle,
                std::span<const Vec3>(tenant.base).subspan(request.first, request.count),
                tenant.params, request_options);
          } catch (const ServiceError& e) {
            ++submit_outcome.attempted;
            tally_error(submit_outcome, e.reason(), e.what());
            continue;
          } catch (const std::exception& e) {
            ++submit_outcome.attempted;
            tally_error(submit_outcome, RejectReason::kBackend, e.what());
            continue;
          }
          result.submit_us.push_back(seconds_since(submit_at) * 1e6);
          {
            std::lock_guard<std::mutex> lock(mutex);
            handoff.push_back(std::move(pending));
          }
          cv.notify_one();
        }
      }
    }
    merge_outcome(result.outcome, submit_outcome);
    merge_outcome(result.outcome, collect_outcome);
    merge_outcome(result.outcome, writer_outcome);
    result.wall_s = duration_s;
    return result;
  }

  /// Checks every sampled answer against its version's frame.
  void check(std::vector<Sample>& samples, Outcome& outcome) {
    std::sort(samples.begin(), samples.end(), [](const Sample& a, const Sample& b) {
      return std::tie(a.tenant, a.version) < std::tie(b.tenant, b.version);
    });
    for (std::size_t i = 0; i < samples.size();) {
      std::size_t j = i;
      std::vector<CheckedRow> rows;
      while (j < samples.size() && samples[j].tenant == samples[i].tenant &&
             samples[j].version == samples[i].version) {
        rows.insert(rows.end(), samples[j].rows.begin(), samples[j].rows.end());
        ++j;
      }
      const Tenant& tenant = tenants_[samples[i].tenant];
      const auto& frames = version_frame_[samples[i].tenant];
      const auto it = frames.find(samples[i].version);
      outcome.checked += j - i;
      if (it == frames.end()) {
        std::fprintf(stderr, "serving: %s answered from unknown snapshot version %llu\n",
                     tenant.name.c_str(), static_cast<unsigned long long>(samples[i].version));
        outcome.wrong += j - i;
      } else {
        const rtnn::data::PointCloud points = tenant.frame(it->second);
        const std::uint64_t wrong = count_wrong_rows(points, rows, tenant.params);
        if (wrong > 0) {
          std::fprintf(stderr, "serving: %s version %llu: %llu wrong rows of %zu\n",
                       tenant.name.c_str(), static_cast<unsigned long long>(samples[i].version),
                       static_cast<unsigned long long>(wrong), rows.size());
          // A sample is one request; count each request with a wrong row.
          for (std::size_t s = i; s < j; ++s) {
            if (count_wrong_rows(points, samples[s].rows, tenant.params) > 0) ++outcome.wrong;
          }
        }
      }
      i = j;
    }
  }

 private:
  static void tally_error(Outcome& outcome, RejectReason reason, const char* what) {
    if (reason == RejectReason::kAdmission) {
      ++outcome.shed;
    } else if (reason == RejectReason::kDeadline) {
      ++outcome.deadline;
    } else {
      ++outcome.errors;
      std::fprintf(stderr, "serving: request failed: %s\n", what);
    }
  }

  void collect(PhaseResult& result, std::mutex& mutex, std::condition_variable& cv,
               std::deque<Pending>& handoff, const bool& submitter_done,
               Clock::time_point start, Clock::time_point end) {
    std::vector<Pending> outstanding;
    bool counted_backlog = false;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        if (outstanding.empty()) {
          cv.wait(lock, [&] { return !handoff.empty() || submitter_done; });
        }
        while (!handoff.empty()) {
          outstanding.push_back(std::move(handoff.front()));
          handoff.pop_front();
        }
        if (outstanding.empty() && submitter_done) break;
      }
      if (!counted_backlog && Clock::now() >= end) {
        counted_backlog = true;
        result.outstanding_at_end = outstanding.size();
      }
      if (outstanding.empty()) continue;
      (void)outstanding.front().ticket.wait_for(std::chrono::microseconds(200));
      for (std::size_t i = 0; i < outstanding.size();) {
        if (!outstanding[i].ticket.ready()) {
          ++i;
          continue;
        }
        finish(result, outstanding[i], start, Clock::now());
        outstanding[i] = std::move(outstanding.back());
        outstanding.pop_back();
      }
    }
  }

  void finish(PhaseResult& result, Pending& pending, Clock::time_point start,
              Clock::time_point done) {
    const Request& request = pending.request;
    const Tenant& tenant = tenants_[request.tenant];
    ++result.outcome.attempted;
    rtnn::service::RequestOutcome outcome;
    try {
      outcome = pending.ticket.get();
    } catch (const ServiceError& e) {
      tally_error(result.outcome, e.reason(), e.what());
      return;
    } catch (const std::exception& e) {
      tally_error(result.outcome, RejectReason::kBackend, e.what());
      return;
    }
    const double ms = std::chrono::duration<double, std::milli>(done - pending.due).count();
    const double share = 1.0 / std::max<std::uint32_t>(outcome.batch_requests, 1);
    result.read_report_s += outcome.report.time.total() * share;
    result.read_refit_s[request.tenant] += outcome.report.time.refit * share;
    result.read_bvh_s[request.tenant] += outcome.report.time.bvh * share;
    result.completed.push_back({request.tenant * 4 + request.size_class,
                                std::chrono::duration<double>(pending.due - start).count(), ms});
    if (!request.sampled) return;
    Sample sample{request.tenant, outcome.snapshot_version, {}};
    for (std::size_t r = 0; r < kRowsPerSample; ++r) {
      const std::size_t row = (r * 7919 + request.first) % request.count;
      const auto ids = outcome.result.neighbors(row);
      sample.rows.push_back({tenant.base[request.first + row], {ids.begin(), ids.end()}});
    }
    result.samples.push_back(std::move(sample));
  }

  /// The writer: every kUpdatePeriod / 2 it moves the street and the
  /// n-body tenant in turn, one frame further along their motion.
  void write(std::vector<PhaseResult::Update>& updates, Outcome& outcome, Clock::time_point start,
             Clock::time_point end, Tracer& tracer) {
    const std::uint32_t written[2] = {3, 2};
    for (std::size_t k = 0;; ++k) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>((static_cast<double>(k) + 0.5) *
                                                                 kUpdatePeriod / 2));
      if (due >= end) break;
      const std::uint32_t id = written[k % 2];
      Tenant& tenant = tenants_[id];
      const std::uint64_t frame = frames_[id] + 1;
      const rtnn::data::PointCloud points = tenant.frame(frame);
      std::this_thread::sleep_until(due);
      const auto t0 = Clock::now();
      try {
        const auto span = tracer.span("service.update_points", "service");
        service_->update_points(tenant.handle, points);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "serving: update of %s failed: %s\n", tenant.name.c_str(), e.what());
        ++outcome.attempted;
        ++outcome.errors;
        continue;
      }
      updates.push_back({id, std::chrono::duration<double>(due - start).count(),
                         seconds_since(t0) * 1e3});
      ++outcome.attempted;
      frames_[id] = frame;
      version_frame_[id][service_->snapshot_version(tenant.handle)] = frame;
    }
  }

  const RunOptions& options_;
  Tracer& tracer_;
  Tracer untraced_{false};  // for the phases of a traced run that run untraced
  std::vector<Tenant> tenants_;
  std::unique_ptr<SearchService> service_;
  std::vector<std::uint64_t> frames_;                             // current frame per tenant
  std::vector<std::map<std::uint64_t, std::uint64_t>> version_frame_;  // version -> frame
};

std::string tail_note(const std::vector<double>& samples) {
  const double q = tail_quantile(samples.size());
  char buf[96];
  std::snprintf(buf, sizeof(buf), "p%g of n=%zu", q * 100.0, samples.size());
  return buf;
}

/// The typical latency of one mode's operations. The phase is cut into
/// kWindows windows by due time. A window's read value is the geometric
/// mean, over that mode's (tenant, request size) classes, of each class's
/// median latency. When the phase has a writer, the window's value is the
/// geometric mean of the read value and the median update_points() wall
/// of the mode's written tenant (the street for range, the n-body cloud
/// for KNN), so the writer path carries half the figure. The result is
/// the lower quartile of the window values. Per-class medians sit inside
/// one mode of the multi-modal latency mix, so the summary does not jump
/// when an overall median falls between two request sizes; and noise from
/// outside the process (CPU time stolen from the machine) only ever adds
/// latency, so the lower quartile over windows drops the windows it hit.
/// `note` lists the window values.
double class_median_ms(const std::vector<Tenant>& tenants, const PhaseResult& phase,
                       SearchMode mode, std::string& note) {
  const double window_s = phase.wall_s / kWindows;
  std::vector<double> per_window;
  note = "windows:";
  for (int w = 0; w < kWindows; ++w) {
    const auto in_window = [&](double due_s) {
      return due_s >= w * window_s && due_s < (w + 1) * window_s;
    };
    std::vector<double> by_class[16];
    for (const PhaseResult::Completed& c : phase.completed) {
      if (in_window(c.due_s)) by_class[c.request_class].push_back(c.ms);
    }
    double log_sum = 0.0;
    int classes = 0;
    for (std::size_t c = 0; c < 16; ++c) {
      if (tenants[c / 4].params.mode != mode || by_class[c].empty()) continue;
      log_sum += std::log(median(by_class[c]));
      ++classes;
    }
    if (classes == 0) continue;
    double value = std::exp(log_sum / classes);
    std::vector<double> update_ms;
    for (const PhaseResult::Update& u : phase.updates) {
      if (tenants[u.tenant].params.mode == mode && in_window(u.due_s)) update_ms.push_back(u.ms);
    }
    if (!update_ms.empty()) value = std::sqrt(value * median(update_ms));
    per_window.push_back(value);
    char buf[16];
    std::snprintf(buf, sizeof(buf), " %.2f", per_window.back());
    note += buf;
  }
  return percentile(per_window, 0.25);
}

double delta_ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

int run_serving(const RunOptions& options, bool with_writer, Tracer& tracer, Metrics& metrics,
                Outcome& outcome) {
  ServingRun run(options, tracer);
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) setup_s.push_back(run.setup());

  std::vector<Sample> samples;
  double max_late_ms = 0.0;
  const auto absorb = [&](PhaseResult& phase) {
    merge_outcome(outcome, phase.outcome);
    samples.insert(samples.end(), std::make_move_iterator(phase.samples.begin()),
                   std::make_move_iterator(phase.samples.end()));
    max_late_ms = std::max(max_late_ms, phase.max_late_ms);
  };

  const bool ladder = !with_writer && !options.trace;
  const double nominal_s =
      options.trace ? options.seconds / 2 : options.seconds * (ladder ? 1.0 - kLadderShare : 1.0);
  PhaseResult nominal = run.run_phase(kNominalRate, nominal_s, with_writer, false, 1);
  absorb(nominal);

  const ServiceStats before = run.service().stats();
  const ServiceStats street_before = run.service().stats(run.tenants()[3].handle);
  const ServiceStats nbody_before = run.service().stats(run.tenants()[2].handle);
  PhaseResult traced;
  if (options.trace) {
    traced = run.run_phase(kNominalRate, options.seconds / 2, with_writer, true, 2);
    absorb(traced);
  }
  const ServiceStats after = run.service().stats();
  const ServiceStats street_after = run.service().stats(run.tenants()[3].handle);
  const ServiceStats nbody_after = run.service().stats(run.tenants()[2].handle);

  // The capacity ladder: fixed rungs, stopping at the first whose p99
  // exceeds the limit or that ends with a growing backlog.
  double max_rate = 0.0;
  std::string ladder_note;
  if (ladder) {
    const double rung_s = options.seconds * kLadderShare / 5;
    double pass_rate = 0.0, pass_p99 = 0.0;
    std::uint64_t stream = 10;
    for (const double rate : kLadderRates) {
      PhaseResult rung = run.run_phase(rate, rung_s, false, false, ++stream, false);
      absorb(rung);
      const double p99 = percentile(latencies_ms(rung), 0.99);
      const bool backlog = static_cast<double>(rung.outstanding_at_end) > rate * 0.05;
      ladder_note += (ladder_note.empty() ? "" : ", ") + std::to_string(static_cast<int>(rate)) +
                     ":" + std::to_string(static_cast<int>(p99)) + "ms" + (backlog ? "+backlog" : "");
      if (p99 <= kLadderP99LimitMs && !backlog) {
        pass_rate = rate;
        pass_p99 = p99;
        max_rate = rate;
        continue;
      }
      if (!backlog && pass_rate > 0.0 && p99 > pass_p99) {
        max_rate = pass_rate + (kLadderP99LimitMs - pass_p99) / (p99 - pass_p99) * (rate - pass_rate);
      }
      break;
    }
    ladder_note = "rung:p99 " + ladder_note;
    if (max_rate == kLadderRates[std::size(kLadderRates) - 1]) ladder_note += " (every rung passed)";
  }

  run.check(samples, outcome);

  const PhaseResult& timed = options.trace ? traced : nominal;
  if (!options.trace) {
    std::string range_note, knn_note;
    const double range_ms = class_median_ms(run.tenants(), nominal, SearchMode::kRange, range_note);
    const double knn_ms = class_median_ms(run.tenants(), nominal, SearchMode::kKnn, knn_note);
    const std::string writes = with_writer ? " with half weight on the writer's " : "";
    metrics.gate("range_ms", range_ms, "ms",
                 "range requests (surface, street), due to completion" +
                     (with_writer ? writes + "street updates" : "") + "; " + range_note);
    metrics.gate("knn_ms", knn_ms, "ms",
                 "KNN requests (lidar, nbody)" + (with_writer ? writes + "nbody updates" : "") +
                     "; " + knn_note);
    metrics.gate("setup_s", median(setup_s), "s",
                 "median of 3 set-ups: service, 4 registrations with warm-up, first calls");
  }
  const std::vector<double> nominal_ms = latencies_ms(nominal);
  const double tail_q = tail_quantile(nominal_ms.size());
  metrics.info("request_p50_ms", median(nominal_ms), "ms",
               "n=" + std::to_string(nominal_ms.size()) + " at " +
                   std::to_string(static_cast<int>(kNominalRate)) + " arrivals/s");
  metrics.info("request_p99_ms", percentile(nominal_ms, 0.99), "ms",
               "n=" + std::to_string(nominal_ms.size()));
  metrics.info("request_tail_ms", percentile(nominal_ms, tail_q), "ms", tail_note(nominal_ms));
  if (ladder) metrics.info("max_rate_rps", max_rate, "1/s", ladder_note);
  if (with_writer) {
    const std::vector<double> update_ms = update_walls_ms(nominal);
    metrics.info("update_p50_ms", median(update_ms), "ms",
                 "n=" + std::to_string(update_ms.size()) + " update_points() calls");
    metrics.info("update_p90_ms", percentile(update_ms, 0.9), "ms",
                 "n=" + std::to_string(update_ms.size()));
  }
  metrics.info("service.gen_late_ms.max", max_late_ms, "ms",
               "worst submit lateness against the arrival schedule");
  if (!options.trace) return 0;

  // --- traced run: per-layer metrics -------------------------------------
  metrics.info("trace.overhead_frac",
               (median(latencies_ms(traced)) - median(nominal_ms)) / median(nominal_ms),
               "ratio", "(traced - untraced) / untraced median request latency");
  metrics.info("service.submit_us.p50", median(timed.submit_us), "us", "submit() call");
  metrics.info("service.submit_us.p99", percentile(timed.submit_us, 0.99), "us");
  metrics.info("service.queue_depth.p99", percentile(timed.queue_depth, 0.99), "count",
               "n=" + std::to_string(timed.queue_depth.size()) + " health() samples");
  const double batches = static_cast<double>(after.batches - before.batches);
  const double queries = static_cast<double>(after.queries - before.queries);
  metrics.info("service.requests_per_batch",
               delta_ratio(static_cast<double>(after.requests - before.requests), batches), "count");
  metrics.info("service.queries_per_batch", delta_ratio(queries, batches), "count");
  metrics.info("service.dedup_share",
               delta_ratio(static_cast<double>(after.report.queries_deduped -
                                               before.report.queries_deduped),
                           queries),
               "ratio");
  metrics.info("service.busy_frac", timed.read_report_s / timed.wall_s, "ratio",
               "sum of read batches' report time / wall (writer probes excluded)");
  metrics.info("service.failed.shed", static_cast<double>(outcome.shed), "count");
  metrics.info("service.failed.deadline", static_cast<double>(outcome.deadline), "count");
  metrics.info("service.failed.backend", static_cast<double>(outcome.errors), "count");
  metrics.info("service.failed.wrong", static_cast<double>(outcome.wrong), "count");

  // Writer-path lifecycle, from the written tenants' stats deltas. The
  // update times leave out the read batches' share (lazy tile builds on
  // the read path), so they hold the writer's warm-up probes alone.
  const double updates = static_cast<double>((street_after.updates - street_before.updates) +
                                             (nbody_after.updates - nbody_before.updates));
  const auto d_time = [&](double rtnn::TimeBreakdown::*field, const double (&read_s)[4]) {
    return (street_after.report.time.*field - street_before.report.time.*field) +
           (nbody_after.report.time.*field - nbody_before.report.time.*field) - read_s[3] -
           read_s[2];
  };
  metrics.info("rtnn.update.refit_ms",
               delta_ratio(d_time(&rtnn::TimeBreakdown::refit, timed.read_refit_s) * 1e3, updates),
               "ms", "per update_points(), written tenants, read batches excluded");
  metrics.info("rtnn.update.bvh_ms",
               delta_ratio(d_time(&rtnn::TimeBreakdown::bvh, timed.read_bvh_s) * 1e3, updates),
               "ms");
  metrics.info("rtnn.accel_refits",
               static_cast<double>((street_after.report.accel_refits - street_before.report.accel_refits) +
                                   (nbody_after.report.accel_refits - nbody_before.report.accel_refits)),
               "count");
  metrics.info("rtnn.accel_rebuilds",
               static_cast<double>((street_after.report.accel_rebuilds - street_before.report.accel_rebuilds) +
                                   (nbody_after.report.accel_rebuilds - nbody_before.report.accel_rebuilds)),
               "count");
  metrics.info("rtnn.sah_inflation.max",
               with_writer ? std::max(street_after.report.sah_inflation, nbody_after.report.sah_inflation)
                           : 1.0,
               "ratio");
  const double street_updates = static_cast<double>(street_after.updates - street_before.updates);
  metrics.info("rtcore.tiles_touched_frac",
               delta_ratio(static_cast<double>(street_after.report.tiles_touched -
                                               street_before.report.tiles_touched),
                           street_updates * street_after.report.tile_count),
               "ratio");
  metrics.info("rtcore.tiles_refits",
               static_cast<double>(street_after.report.tile_refits - street_before.report.tile_refits),
               "count");
  metrics.info("rtcore.tiles_rebuilds",
               static_cast<double>(street_after.report.tile_rebuilds - street_before.report.tile_rebuilds),
               "count");
  metrics.info("rtcore.tiles_lazy_builds",
               static_cast<double>(street_after.report.tile_lazy_builds -
                                   street_before.report.tile_lazy_builds),
               "count");
  return 0;
}

}  // namespace e2e
