// Shared pieces of the end-to-end benchmark: run options, the metric
// sink, sample statistics and the run's outcome counters.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/vec3.hpp"
#include "trace.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // results and trace files land here
  long long llc_bytes = 0;  // last-level cache size, for the index-size report
};

/// Named metrics in insertion order. `gate` marks the end-to-end ones;
/// `bypassed` marks a per-layer metric the workload never reaches, an
/// explicit 0 whose unit BENCHMARK.json supplies.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool gate = false;
  std::string note;
  bool bypassed = false;
};

class Metrics {
 public:
  void gate(const std::string& name, double value, const std::string& unit,
            const std::string& note = {}) {
    items_.push_back({name, value, unit, true, note});
  }
  void info(const std::string& name, double value, const std::string& unit,
            const std::string& note = {}) {
    items_.push_back({name, value, unit, false, note});
  }
  void bypass(const std::string& name) {
    items_.push_back({name, 0.0, "", false, "bypassed: never reached by this workload", true});
  }
  const std::vector<Metric>& items() const { return items_; }
  bool has(const std::string& name) const {
    return std::any_of(items_.begin(), items_.end(),
                       [&](const Metric& m) { return m.name == name; });
  }

 private:
  std::vector<Metric> items_;
};

/// Operations attempted and the ways they failed. Every failure kind
/// counts towards the run's `failed`; only `wrong` makes it incorrect.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t errors = 0;    // backend errors and other exceptions
  std::uint64_t shed = 0;      // admission rejections
  std::uint64_t deadline = 0;  // deadline misses
  std::uint64_t wrong = 0;     // answers that failed the brute-force check
  std::uint64_t checked = 0;   // answers that were checked

  std::uint64_t failed() const { return errors + shed + deadline + wrong; }
};

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

inline double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it (0 when even p75 has fewer).
inline double tail_quantile(std::size_t samples) {
  for (const double p : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    if ((1.0 - p) * static_cast<double>(samples) >= 10.0) return p;
  }
  return 0.0;
}

/// Seed mixing for the per-input generator streams.
constexpr std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  return stream ^ (seed * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL);
}

/// Moves every point by a seeded uniform offset in [-amplitude, amplitude]^3.
inline void jitter(std::vector<rtnn::Vec3>& points, float amplitude, std::uint64_t seed) {
  rtnn::Pcg32 rng(seed);
  for (rtnn::Vec3& p : points) {
    p += rtnn::Vec3{rng.uniform(-amplitude, amplitude), rng.uniform(-amplitude, amplitude),
                    rng.uniform(-amplitude, amplitude)};
  }
}

int run_static_lidar(const RunOptions& options, Tracer& tracer, Metrics& metrics,
                     Outcome& outcome);
int run_serving(const RunOptions& options, bool with_writer, Tracer& tracer,
                Metrics& metrics, Outcome& outcome);
int run_selftest(const RunOptions& options);

}  // namespace e2e
