// The serving workloads: an open loop from one submitter at a fixed
// arrival rate to four read-only tenants (serving_read), and the same
// traffic beside one writer thread (serving_rw).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/vec3.hpp"
#include "datasets/point_cloud.hpp"
#include "rtnn/types.hpp"
#include "service/service.hpp"

namespace e2e {

/// Load-generator threads: submitter, collector and (serving_rw) writer.
inline constexpr int kGeneratorThreads = 3;

/// The writer's motion repeats every this many frames (4 s at 10 Hz).
inline constexpr double kMotionPeriodFrames = 40.0;

enum class Motion { kNone, kVehicles, kDrift };

struct Tenant {
  std::string name;
  rtnn::data::PointCloud base;
  rtnn::SearchParams params;
  std::size_t tile_threshold = 0;
  Motion motion = Motion::kNone;
  std::vector<std::uint32_t> movers;  // vehicles: ids of the moving points
  std::vector<rtnn::Vec3> velocity;   // vehicles: per mover; drift: per point
  rtnn::service::CloudHandle handle;

  /// The points at writer frame `t` (frame 0 = base). Pure in t, so any
  /// reported snapshot version can be rebuilt for checking.
  rtnn::data::PointCloud frame(std::uint64_t t) const;
};

/// Search params of a serving tenant: the naive launch over the resident
/// index (serving requests are too small for per-request builds).
rtnn::SearchParams tenant_params(rtnn::SearchMode mode, float radius, std::uint32_t k);

/// The four tenants: lidar (KNN), surface (range), nbody (KNN, drifting
/// under serving_rw) and the tiled street (range, four moving vehicles
/// under serving_rw). Scenes and vehicles are fixed; --seed jitters every
/// point by up to 0.2% of the tenant's radius and draws the drift
/// directions, so each seed gets new inputs over the same geometry.
std::vector<Tenant> make_tenants(std::uint64_t seed);

}  // namespace e2e
