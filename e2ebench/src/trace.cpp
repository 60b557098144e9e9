#include "trace.hpp"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string_view>

namespace e2e {

namespace {

std::uint32_t thread_slot() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t slot = next.fetch_add(1);
  return slot;
}

// The innermost open span of this thread (parent of the next one opened).
thread_local std::int32_t t_open_span = -1;

}  // namespace

Tracer::Scope Tracer::span(const char* name, const char* layer, std::uint64_t request) {
  if (!enabled_) return Scope(nullptr, -1);
  const std::int64_t begin = now_ns();
  std::int32_t index;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, layer, begin, -1, thread_slot(), t_open_span, request});
  }
  t_open_span = index;
  return Scope(this, index);
}

void Tracer::close(std::int32_t index) {
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = end;
  t_open_span = span.parent;
}

std::map<std::string, Tracer::LayerTotals> Tracer::layer_totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.end_ns >= 0 && span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.begin_ns;
    }
  }
  std::map<std::string, LayerTotals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0) continue;
    LayerTotals& layer = totals[span.layer];
    layer.self_s += static_cast<double>(span.end_ns - span.begin_ns - child_ns[i]) * 1e-9;
    ++layer.calls;
  }
  return totals;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[96];
  for (const Span& span : spans_) {
    if (span.end_ns < 0) continue;
    out << (first ? "\n" : ",\n");
    first = false;
    std::snprintf(buf, sizeof(buf), "%.3f,\"dur\":%.3f", static_cast<double>(span.begin_ns) * 1e-3,
                  static_cast<double>(span.end_ns - span.begin_ns) * 1e-3);
    out << "{\"name\":\"" << span.name << "\",\"cat\":\"" << span.layer
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.thread << ",\"ts\":" << buf;
    if (span.request != 0) out << ",\"args\":{\"request\":" << span.request << "}";
    out << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace e2e
