// e2ebench: the repository's end-to-end benchmark binary.
//
//   e2ebench --workload <static_lidar|serving_read|serving_rw> --seed <n>
//            --seconds <s> --trace <0|1> --out-dir <dir>
//   e2ebench --selftest --seed <n> --out-dir <dir>
//
// Prints a human-readable report (environment, every metric with its unit
// and note), writes the results (and, traced, the Chrome trace) under
// --out-dir, and ends its standard output with one JSON line holding the
// outcome counters and every metric. e2ebench/run.py builds this binary and
// turns that line into the benchmark's result. The environment's source
// id is the library's git sha, which RTNN_GIT_SHA overrides.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/report.hpp"
#include "common.hpp"
#include "serving.hpp"

namespace e2e {
namespace {

/// The library's environment record (compiler, build type, git sha,
/// worker threads, hardware_concurrency) plus what the guard and the
/// index-size report add.
struct Environment {
  rtnn::bench::Environment library;
  int nproc = 0;
  std::string cpu_model = "unknown";
  long long llc_bytes = 0;
  int generator_threads = 0;
};

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

long long parse_cache_size(const std::string& text) {
  if (text.empty()) return 0;
  long long value = std::atoll(text.c_str());
  if (text.back() == 'K') value *= 1024;
  if (text.back() == 'M') value *= 1024 * 1024;
  return value;
}

Environment probe_environment(int generator_threads) {
  Environment env;
  env.library = rtnn::bench::capture_environment();
  cpu_set_t set;
  CPU_ZERO(&set);
  env.nproc = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      env.cpu_model = line.substr(line.find(':') + 2);
      break;
    }
  }
  // The last-level cache: the highest-level cache cpu0 reports.
  int best_level = 0;
  for (int index = 0; index < 8; ++index) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    const std::string level = read_first_line(dir + "/level");
    if (level.empty()) continue;
    if (std::atoi(level.c_str()) >= best_level) {
      best_level = std::atoi(level.c_str());
      env.llc_bytes = parse_cache_size(read_first_line(dir + "/size"));
    }
  }
  env.generator_threads = generator_threads;
  return env;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string environment_json(const Environment& env) {
  std::ostringstream out;
  out << "{\"compiler\":\"" << json_escape(env.library.compiler) << "\",\"build_type\":\""
      << json_escape(env.library.build_type) << "\",\"source_id\":\""
      << json_escape(env.library.git_sha) << "\",\"nproc\":" << env.nproc
      << ",\"hardware_concurrency\":" << env.library.hardware_concurrency
      << ",\"cpu_model\":\"" << json_escape(env.cpu_model) << "\",\"llc_bytes\":" << env.llc_bytes
      << ",\"library_threads\":" << env.library.threads
      << ",\"generator_threads\":" << env.generator_threads << "}";
  return out.str();
}

std::string results_json(const RunOptions& options, const Environment& env,
                         const Outcome& outcome, const Metrics& metrics) {
  std::ostringstream out;
  out << "{\"workload\":\"" << options.workload << "\",\"seed\":" << options.seed
      << ",\"trace\":" << (options.trace ? 1 : 0) << ",\"correct\":"
      << (outcome.wrong == 0 && outcome.checked > 0 ? "true" : "false")
      << ",\"attempted\":" << outcome.attempted << ",\"failed\":" << outcome.failed()
      << ",\"checked\":" << outcome.checked << ",\"environment\":" << environment_json(env)
      << ",\"metrics\":{";
  bool first = true;
  for (const Metric& m : metrics.items()) {
    out << (first ? "" : ",") << "\"" << m.name << "\":{\"value\":" << number(m.value)
        << ",\"unit\":\"" << m.unit << "\",\"gate\":" << (m.gate ? "true" : "false")
        << ",\"bypassed\":" << (m.bypassed ? "true" : "false") << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

/// The per-layer metrics a workload never reaches, which its traced run
/// reports as explicit zeros (the bypass table of e2ebench/README.md).
/// run.py fails on any other per-layer metric a run leaves out.
std::vector<std::string> bypassed_metrics(const std::string& workload) {
  if (workload == "static_lidar") {
    // One-shot search() never reaches the service (nor the engine behind
    // it) and never updates an index.
    return {"service.submit_us.p50",     "service.submit_us.p99",
            "service.queue_depth.p99",   "service.requests_per_batch",
            "service.queries_per_batch", "service.dedup_share",
            "service.busy_frac",         "service.failed.shed",
            "service.failed.deadline",   "service.failed.backend",
            "service.failed.wrong",      "service.gen_late_ms.max",
            "rtnn.update.refit_ms",      "rtnn.update.bvh_ms",
            "rtnn.accel_refits",         "rtnn.accel_rebuilds",
            "rtnn.sah_inflation.max",    "rtcore.tiles_touched_frac",
            "rtcore.tiles_refits",       "rtcore.tiles_rebuilds",
            "rtcore.tiles_lazy_builds",  "span.service.self_s",
            "span.service.calls"};
  }
  // Serving searches the resident index: no staged pipeline, no
  // per-call build, no direct build, no span into a layer below service.
  std::vector<std::string> names = {"optix.build_accel_ns_per_prim",
                                    "rtcore.bvh_build_ns_per_prim",
                                    "rtcore.wide_build_ns_per_prim",
                                    "span.rtnn.self_s",
                                    "span.rtnn.calls",
                                    "span.optix.self_s",
                                    "span.optix.calls",
                                    "span.rtcore.self_s",
                                    "span.rtcore.calls"};
  for (const char* mode : {"range", "knn"}) {
    for (const char* metric :
         {"rtnn.schedule_s", "rtnn.partition_s", "rtnn.bundle_s", "rtnn.launch_s",
          "rtnn.partitions", "rtnn.bundles", "rtnn.time.data_s", "rtnn.time.opt_s",
          "rtnn.time.bvh_s", "rtnn.time.refit_s", "rtnn.time.fs_s", "rtnn.time.search_s",
          "rtcore.rays", "rtcore.nodes_per_ray", "rtcore.aabb_tests_per_ray",
          "rtcore.is_calls_per_ray", "rtcore.hit_ratio", "rtcore.launch_ns_per_ray",
          "rtcore.index_bytes", "rtcore.index_llc_ratio"}) {
      names.push_back(std::string(metric) + "." + mode);
    }
  }
  return names;
}

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload <static_lidar|serving_read|serving_rw> --seed <n> "
               "--seconds <s> --trace <0|1> --out-dir <dir>\n"
               "       e2ebench --selftest --seed <n> --out-dir <dir>\n");
  return 2;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  RunOptions options;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::atoi(argv[++i]) != 0;
    } else if (arg == "--out-dir" && has_value) {
      options.out_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (options.out_dir.empty() || options.seconds <= 0.0) return usage();
  if (selftest) return run_selftest(options);

  const bool serving = options.workload == "serving_read" || options.workload == "serving_rw";
  if (!serving && options.workload != "static_lidar") return usage();

  // Environment guard: refuse to report from a non-Release build or from
  // a run whose threads exceed the CPUs this process may use.
  const Environment env = probe_environment(serving ? kGeneratorThreads : 1);
  options.llc_bytes = env.llc_bytes;
  std::printf("environment %s\n", environment_json(env).c_str());
#ifndef NDEBUG
  std::fprintf(stderr, "e2ebench: refusing to report: assertions are enabled (no NDEBUG)\n");
  return 3;
#endif
  if (env.library.build_type != "Release") {
    std::fprintf(stderr, "e2ebench: refusing to report: build type is '%s', not Release\n",
                 env.library.build_type.c_str());
    return 3;
  }
  if (env.library.threads > env.nproc || env.generator_threads > env.nproc) {
    std::fprintf(stderr,
                 "e2ebench: refusing to report: %d library and %d generator threads exceed "
                 "nproc = %d\n",
                 env.library.threads, env.generator_threads, env.nproc);
    return 3;
  }

  Tracer tracer(options.trace);
  Metrics metrics;
  Outcome outcome;
  const auto t0 = Clock::now();
  const int rc = serving ? run_serving(options, options.workload == "serving_rw", tracer,
                                       metrics, outcome)
                         : run_static_lidar(options, tracer, metrics, outcome);
  if (rc != 0) return rc;

  if (options.trace) {
    for (const auto& [layer, totals] : tracer.layer_totals()) {
      metrics.info("span." + layer + ".self_s", totals.self_s, "s",
                   "self time of the spans around calls into this layer");
      metrics.info("span." + layer + ".calls", static_cast<double>(totals.calls), "count");
    }
    const std::string trace_path = options.out_dir + "/" + options.workload + "-seed" +
                                   std::to_string(options.seed) + ".trace.json";
    if (!tracer.write_chrome_json(trace_path)) {
      std::fprintf(stderr, "e2ebench: cannot write %s\n", trace_path.c_str());
      return 4;
    }
    std::printf("trace %zu spans written to %s\n", tracer.span_count(), trace_path.c_str());
    for (const std::string& name : bypassed_metrics(options.workload)) {
      if (metrics.has(name)) {
        std::fprintf(stderr, "e2ebench: %s is measured but listed as bypassed\n", name.c_str());
        return 5;
      }
      metrics.bypass(name);
    }
  }
  const double attempted = static_cast<double>(std::max<std::uint64_t>(outcome.attempted, 1));
  metrics.info("failed_frac", static_cast<double>(outcome.failed()) / attempted, "ratio",
               "(errors + sheds + deadline misses + wrong answers) / attempted");

  std::printf("workload %s seed %llu trace %d: %.1f s, %llu attempted, %llu failed "
              "(%llu errors, %llu shed, %llu deadline, %llu wrong of %llu checked)\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, seconds_since(t0),
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed()),
              static_cast<unsigned long long>(outcome.errors),
              static_cast<unsigned long long>(outcome.shed),
              static_cast<unsigned long long>(outcome.deadline),
              static_cast<unsigned long long>(outcome.wrong),
              static_cast<unsigned long long>(outcome.checked));
  for (const Metric& m : metrics.items()) {
    std::printf("metric %-40s %16.6g %-6s %s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.gate ? "[gated] " : "", m.note.c_str());
  }
  const std::string results = results_json(options, env, outcome, metrics);
  const std::string results_path = options.out_dir + "/" + options.workload + "-seed" +
                                   std::to_string(options.seed) + "-trace" +
                                   (options.trace ? "1" : "0") + ".json";
  std::ofstream(results_path) << results << "\n";
  std::printf("%s\n", results.c_str());
  return 0;
}
