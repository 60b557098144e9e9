#include "baselines/uniform_grid.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/error.hpp"
#include "core/parallel.hpp"

namespace rtnn::baselines {

void UniformGrid::build(std::span<const Vec3> points, float cell_size,
                        std::uint64_t max_cells) {
  RTNN_CHECK(cell_size > 0.0f, "cell size must be positive");
  RTNN_CHECK(!points.empty(), "cannot build a grid over zero points");

  bounds_ = Aabb{};
  for (const Vec3& p : points) bounds_.grow(p);
  // Pad so boundary points land strictly inside.
  const float pad = std::max(1e-6f, 1e-5f * max_component(bounds_.extent()));
  bounds_ = bounds_.expanded(pad);

  // Enlarge cells until the grid fits the memory budget. The cell count is
  // formed in double: one far outlier can ask for more cells per axis
  // than any integer type holds. The budget is also capped per point, or
  // that outlier sizes a few hundred points' grid to the full max_cells.
  max_cells = std::min(max_cells, kMaxCellsPerPoint * points.size());
  cell_size_ = cell_size;
  const Vec3 extent = bounds_.extent();
  const auto cells_along = [&](int axis) {
    return std::max(1.0f, std::ceil(extent[axis] / cell_size_));
  };
  while (static_cast<double>(cells_along(0)) * cells_along(1) * cells_along(2) >
         static_cast<double>(max_cells)) {
    cell_size_ *= 1.5f;
  }
  for (int axis = 0; axis < 3; ++axis) res_[axis] = static_cast<int>(cells_along(axis));

  const std::uint64_t cells = static_cast<std::uint64_t>(res_.x) *
                              static_cast<std::uint64_t>(res_.y) *
                              static_cast<std::uint64_t>(res_.z);
  // Counting sort in the one cell-sized array: count into cell_start_,
  // scan it in place, scatter with cell_start_[c]++ (which leaves each
  // entry at its cell's end), then shift one slot to restore the starts.
  cell_start_.assign(cells + 1, 0);
  std::vector<std::uint64_t> point_cell(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    point_cell[i] = cell_index(cell_of(points[i]));
    ++cell_start_[point_cell[i]];
  }
  std::uint32_t sum = 0;
  for (std::uint64_t c = 0; c < cells; ++c) sum += std::exchange(cell_start_[c], sum);
  cell_start_[cells] = sum;

  point_ids_.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    point_ids_[cell_start_[point_cell[i]]++] = static_cast<std::uint32_t>(i);
  }
  std::copy_backward(cell_start_.begin(), cell_start_.end() - 2, cell_start_.end() - 1);
  cell_start_[0] = 0;
}

Int3 UniformGrid::cell_of(const Vec3& p) const {
  Int3 c;
  for (int axis = 0; axis < 3; ++axis) {
    // Clamped before the cast: queries may lie arbitrarily far outside.
    const float t = (p[axis] - bounds_.lo[axis]) / cell_size_;
    c[axis] = static_cast<int>(
        std::clamp(std::floor(t), 0.0f, static_cast<float>(res_[axis] - 1)));
  }
  return c;
}

}  // namespace rtnn::baselines
