#include "check.hpp"

#include <algorithm>

#include "baselines/brute_force.hpp"

namespace e2e {

using rtnn::NeighborResult;
using rtnn::Vec3;

namespace {

bool range_row_ok(std::span<const Vec3> points, const CheckedRow& row,
                  std::uint32_t truth_count, const rtnn::SearchParams& params) {
  if (row.neighbors.size() != std::min(params.k, truth_count)) return false;
  const float r2 = params.radius * params.radius;
  std::vector<std::uint32_t> sorted = row.neighbors;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) return false;
  return std::all_of(sorted.begin(), sorted.end(), [&](std::uint32_t p) {
    return p < points.size() && rtnn::distance2(points[p], row.query) <= r2;
  });
}

std::vector<float> sorted_dist2(std::span<const Vec3> points, const Vec3& query,
                                std::span<const std::uint32_t> ids) {
  std::vector<float> d;
  d.reserve(ids.size());
  for (const std::uint32_t p : ids) {
    d.push_back(p < points.size() ? rtnn::distance2(points[p], query) : -1.0f);
  }
  std::sort(d.begin(), d.end());
  return d;
}

}  // namespace

std::uint64_t count_wrong_rows(std::span<const Vec3> points, std::span<const CheckedRow> rows,
                               const rtnn::SearchParams& params) {
  if (rows.empty()) return 0;
  std::vector<Vec3> queries;
  queries.reserve(rows.size());
  for (const CheckedRow& row : rows) queries.push_back(row.query);

  std::uint64_t wrong = 0;
  if (params.mode == rtnn::SearchMode::kRange) {
    // K + 1 slots: a brute-force count above K proves the true count
    // exceeds K without enumerating every neighbor.
    const NeighborResult truth =
        rtnn::baselines::brute_force_range(points, queries, params.radius, params.k + 1);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (!range_row_ok(points, rows[i], truth.count(i), params)) ++wrong;
    }
    return wrong;
  }
  const NeighborResult truth =
      rtnn::baselines::brute_force_knn(points, queries, params.radius, params.k);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::vector<float> got = sorted_dist2(points, rows[i].query, rows[i].neighbors);
    const std::vector<float> want = sorted_dist2(points, rows[i].query, truth.neighbors(i));
    if (got != want) ++wrong;
  }
  return wrong;
}

}  // namespace e2e
