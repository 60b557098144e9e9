// The static_lidar workload's inputs, shared with the self-test.
#pragma once

#include <cstddef>
#include <cstdint>

#include "datasets/point_cloud.hpp"
#include "rtnn/types.hpp"

namespace e2e {

inline constexpr std::size_t kStaticPoints = 240'000;  // KITTI-12M at scale 0.02
inline constexpr float kStaticRadius = 3.0f;           // the paper's lidar radius
inline constexpr std::uint32_t kStaticK = 16;
/// The scene is the repo's canonical KITTI-12M lidar scene (generator
/// seed 43, as bench/ builds it at its default seed); see static_cloud().
inline constexpr std::uint64_t kStaticSceneSeed = 43;

/// Full-RTNN params (all three optimizations) for one mode.
rtnn::SearchParams static_params(rtnn::SearchMode mode);

/// The lidar cloud of one run; the queries are its own points. The scene
/// is fixed and --seed jitters every point by up to 0.2% of r: new inputs
/// per seed with the same geometry. (Scene geometry alone moves the KNN
/// cost by 10x between generator seeds, which would swamp any change a
/// comparison across seeds is meant to see.)
rtnn::data::PointCloud static_cloud(std::uint64_t seed);

}  // namespace e2e
