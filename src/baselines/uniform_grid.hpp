// Uniform grid over a point cloud (counting-sort binning).
//
// The shared substrate of the two grid-based GPU baselines the paper
// compares against (section 6.1): cuNSearch (fixed-radius search used by
// SPH codes) and FRNN (grid KNN). Points are binned into cubic cells with
// a counting sort — the standard GPU construction — and queries scan the
// cells overlapping their search volume.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/aabb.hpp"
#include "core/vec3.hpp"

namespace rtnn::baselines {

class UniformGrid {
 public:
  static constexpr std::uint64_t kMaxCellsPerPoint = 4096;

  /// Bins `points` into cells of width `cell_size`. If the implied
  /// resolution would exceed `max_cells` (or kMaxCellsPerPoint cells per
  /// point), the cell size is enlarged (the same memory-capacity guard the
  /// GPU implementations apply).
  void build(std::span<const Vec3> points, float cell_size,
             std::uint64_t max_cells = std::uint64_t{1} << 27);

  bool built() const { return !cell_start_.empty(); }
  float cell_size() const { return cell_size_; }
  const Aabb& bounds() const { return bounds_; }
  Int3 resolution() const { return res_; }
  std::size_t point_count() const { return point_ids_.size(); }

  /// Grid coordinates of `p`, clamped into the grid.
  Int3 cell_of(const Vec3& p) const;

  /// Flat cell index.
  std::uint64_t cell_index(const Int3& c) const {
    return (static_cast<std::uint64_t>(c.z) * static_cast<std::uint64_t>(res_.y) +
            static_cast<std::uint64_t>(c.y)) *
               static_cast<std::uint64_t>(res_.x) +
           static_cast<std::uint64_t>(c.x);
  }

  /// Point ids binned into cell `c`.
  std::span<const std::uint32_t> points_in_cell(const Int3& c) const {
    const std::uint64_t ci = cell_index(c);
    return {point_ids_.data() + cell_start_[ci], cell_start_[ci + 1] - cell_start_[ci]};
  }

  /// Invokes `fn(Int3 cell)` for every grid cell overlapping `box`.
  template <typename Fn>
  void for_each_cell_in(const Aabb& box, Fn&& fn) const {
    const Int3 lo = cell_of(box.lo);
    const Int3 hi = cell_of(box.hi);
    for (int z = lo.z; z <= hi.z; ++z) {
      for (int y = lo.y; y <= hi.y; ++y) {
        for (int x = lo.x; x <= hi.x; ++x) {
          fn(Int3{x, y, z});
        }
      }
    }
  }

 private:
  Aabb bounds_;
  Int3 res_{0, 0, 0};
  float cell_size_ = 0.0f;
  std::vector<std::uint32_t> cell_start_;  // size cells+1, prefix offsets
  std::vector<std::uint32_t> point_ids_;   // points sorted by cell
};

}  // namespace rtnn::baselines
