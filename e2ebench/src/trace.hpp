// In-memory span recorder for the traced benchmark run.
//
// Spans are opened by the benchmark's own code around each call it makes
// into a library layer (service, engine, rtnn, optix, rtcore); nothing
// inside the library is instrumented. Spans nest per thread, so a span's
// self time is its duration minus its direct children's. The whole trace
// stays in memory and is written once, at the end, as Chrome trace-event
// JSON (load it in chrome://tracing or Perfetto).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

class Tracer {
 public:
  struct Span {
    const char* name;
    const char* layer;
    std::int64_t begin_ns;
    std::int64_t end_ns;
    std::uint32_t thread;
    std::int32_t parent;  // index of the enclosing span, -1 at top level
    std::uint64_t request;  // request the span serves (0 = none)
  };

  /// RAII span; a no-op when the tracer is disabled.
  class Scope {
   public:
    Scope(Tracer* tracer, std::int32_t index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }

   private:
    Tracer* tracer_;
    std::int32_t index_;
  };

  struct LayerTotals {
    double self_s = 0.0;
    std::uint64_t calls = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  /// Opens a span; `name` and `layer` must be string literals. Spans of
  /// one serving request share its `request` identifier.
  Scope span(const char* name, const char* layer, std::uint64_t request = 0);

  /// Self time and span count per layer over every closed span.
  std::map<std::string, LayerTotals> layer_totals() const;

  /// Writes the Chrome trace-event JSON; false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

  std::size_t span_count() const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }
  void close(std::int32_t index);

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace e2e
