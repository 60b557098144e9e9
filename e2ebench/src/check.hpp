// Brute-force answer checks, run outside every timed region.
//
// Range answers must hold min(K, true count) distinct neighbors, every
// one within the radius (the library returns *some* K of them, so the
// check is membership plus count, not identity). KNN answers are
// compared tie-tolerant: the sorted neighbor distances must equal the
// brute-force K nearest distances, whatever indices broke the ties.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/vec3.hpp"
#include "rtnn/types.hpp"

namespace e2e {

/// One answered query row kept for checking: its position and the
/// neighbor indices the library returned for it.
struct CheckedRow {
  rtnn::Vec3 query;
  std::vector<std::uint32_t> neighbors;
};

/// Checks `rows` against brute force over `points`; returns the number of
/// rows whose answer is wrong.
std::uint64_t count_wrong_rows(std::span<const rtnn::Vec3> points,
                               std::span<const CheckedRow> rows,
                               const rtnn::SearchParams& params);

}  // namespace e2e
