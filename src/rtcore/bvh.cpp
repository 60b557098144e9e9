#include "rtcore/bvh.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

#include "core/error.hpp"
#include "core/morton.hpp"
#include "core/parallel.hpp"
#include "core/sort.hpp"

namespace rtnn::rt {

namespace {

// Highest set bit position of x (x != 0).
inline int high_bit(std::uint64_t x) { return 63 - std::countl_zero(x); }

// Split position of the Morton-sorted range [lo, hi): first index whose
// code differs from codes[lo] at the highest differing bit; median split
// for duplicated codes.
std::uint32_t split_range(const std::vector<std::uint64_t>& codes, std::uint32_t lo,
                          std::uint32_t hi) {
  const std::uint32_t count = hi - lo;
  const std::uint64_t first_code = codes[lo];
  const std::uint64_t last_code = codes[hi - 1];
  if (first_code == last_code) return lo + count / 2;
  const int split_bit = high_bit(first_code ^ last_code);
  const std::uint64_t mask = ~((std::uint64_t{1} << split_bit) - 1);
  const std::uint64_t prefix = first_code & mask;
  std::uint32_t first = lo;
  std::uint32_t len = count;
  while (len > 1) {
    const std::uint32_t half = len / 2;
    const std::uint32_t probe = first + half;
    if ((codes[probe] & mask) == prefix) {
      first = probe;
      len -= half;
    } else {
      len = half;
    }
  }
  RTNN_DCHECK(first + 1 > lo && first + 1 < hi, "degenerate Morton split");
  return first + 1;
}

// Writes the subtree over the Morton-sorted slot range [lo, hi) in
// pre-order from `slot`, each node whole and exactly once. Returns the
// slot one past the subtree.
struct SubtreeWriter {
  const std::vector<std::uint64_t>& codes;
  const std::vector<std::uint32_t>& prim_order;
  std::span<const Aabb> prim_aabbs;
  std::uint32_t leaf_size;
  BvhNode* nodes;
  std::uint32_t max_depth = 0;

  std::uint32_t build(std::uint32_t slot, std::uint32_t lo, std::uint32_t hi,
                      std::uint32_t depth) {
    max_depth = std::max(max_depth, depth);
    if (hi - lo <= leaf_size) {
      Aabb bounds;
      for (std::uint32_t s = lo; s < hi; ++s) bounds.grow(prim_aabbs[prim_order[s]]);
      nodes[slot] = BvhNode{bounds, 0, 0, lo, hi - lo};
      return slot + 1;
    }
    const std::uint32_t mid = split_range(codes, lo, hi);
    const std::uint32_t left = slot + 1;
    const std::uint32_t right = build(left, lo, mid, depth + 1);
    const std::uint32_t end = build(right, mid, hi, depth + 1);
    nodes[slot] = BvhNode{unite(nodes[left].bounds, nodes[right].bounds), left, right, 0, 0};
    return end;
  }
};

// Node count of the subtree SubtreeWriter writes over [lo, hi): closed
// form for single-primitive leaves, otherwise the same splits unwritten.
std::uint32_t subtree_size(const std::vector<std::uint64_t>& codes, std::uint32_t leaf_size,
                           std::uint32_t lo, std::uint32_t hi) {
  if (hi - lo <= leaf_size) return 1;
  if (leaf_size == 1) return 2 * (hi - lo) - 1;
  const std::uint32_t mid = split_range(codes, lo, hi);
  return 1 + subtree_size(codes, leaf_size, lo, mid) + subtree_size(codes, leaf_size, mid, hi);
}

}  // namespace

void Bvh::build(std::span<const Aabb> prims, const BvhBuildOptions& options) {
  RTNN_CHECK(options.leaf_size >= 1, "leaf_size must be >= 1");
  nodes_.clear();
  prim_order_.clear();
  parallel_assign(prim_aabbs_, prims);
  leaf_size_ = options.leaf_size;
  max_depth_seen_ = 0;
  scene_bounds_ = Aabb{};
  level_nodes_.clear();
  level_offsets_.clear();
  refitted_ = false;
  const auto n = static_cast<std::uint32_t>(prims.size());
  if (n == 0) return;

  // Centroid bounds for Morton normalization (parallel reduction).
  struct Bounds2Acc {
    Aabb centroid;
    Aabb scene;
    std::uint64_t empties = 0;
  };
  const Bounds2Acc totals = parallel_reduce<Bounds2Acc>(
      0, n, Bounds2Acc{},
      [&](std::int64_t i) {
        const Aabb& b = prims[static_cast<std::size_t>(i)];
        Bounds2Acc out;
        if (b.empty()) {
          out.empties = 1;  // diagnosed after the parallel region
        } else {
          out.centroid.grow(b.center());
          out.scene = b;
        }
        return out;
      },
      [](Bounds2Acc a, const Bounds2Acc& b) {
        a.centroid.grow(b.centroid);
        a.scene.grow(b.scene);
        a.empties += b.empties;
        return a;
      },
      grain::kElementwise);
  RTNN_CHECK(totals.empties == 0, "cannot build BVH over an empty AABB");
  scene_bounds_ = totals.scene;

  // Morton-sort primitive indices by centroid.
  std::vector<std::uint64_t> codes(n);
  parallel_for(0, n, [&](std::int64_t i) {
    codes[static_cast<std::size_t>(i)] =
        morton3d_63(prims[static_cast<std::size_t>(i)].center(), totals.centroid);
  }, grain::kElementwise);
  prim_order_.resize(n);
  std::iota(prim_order_.begin(), prim_order_.end(), 0u);
  radix_sort_pairs(codes, prim_order_);

  // Skeleton (serial): split the sorted range top-down until every piece
  // fits one task. Skeleton nodes take the first slots, in pre-order; each
  // task's subtree then fills one contiguous block, in task order. Child
  // references name a skeleton slot or, with kTaskRef, a task.
  constexpr std::uint32_t kTaskRef = 0x80000000u;
  constexpr std::uint32_t kNoParent = 0xffffffffu;
  struct Task {
    std::uint32_t lo, hi, depth;
  };
  struct SkeletonNode {
    std::uint32_t left, right;
  };
  struct Frame {
    std::uint32_t lo, hi, depth, parent;
    bool is_left;
  };
  std::vector<Task> tasks;
  std::vector<SkeletonNode> skeleton;
  std::vector<Frame> stack{{0, n, 0, kNoParent, false}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    std::uint32_t ref;
    if (f.hi - f.lo <= kBuildTaskPrims) {
      ref = kTaskRef | static_cast<std::uint32_t>(tasks.size());
      tasks.push_back({f.lo, f.hi, f.depth});
    } else {
      ref = static_cast<std::uint32_t>(skeleton.size());
      skeleton.push_back({});
      const std::uint32_t mid = split_range(codes, f.lo, f.hi);
      stack.push_back({mid, f.hi, f.depth + 1, ref, false});
      stack.push_back({f.lo, mid, f.depth + 1, ref, true});
    }
    if (f.parent != kNoParent) {
      (f.is_left ? skeleton[f.parent].left : skeleton[f.parent].right) = ref;
    }
  }

  // Task blocks: sizes (in parallel: wider leaves re-run the splits),
  // then offsets, then every subtree written straight into its block.
  const auto task_count = static_cast<std::int64_t>(tasks.size());
  std::vector<std::uint32_t> offsets(tasks.size());
  parallel_for(0, task_count, [&](std::int64_t t) {
    const Task& task = tasks[static_cast<std::size_t>(t)];
    offsets[static_cast<std::size_t>(t)] = subtree_size(codes, leaf_size_, task.lo, task.hi);
  }, grain::kTask);
  std::uint32_t total = static_cast<std::uint32_t>(skeleton.size());
  for (std::uint32_t& offset : offsets) total += std::exchange(offset, total);
  nodes_.resize(total);  // unwritten: each slot is written once below
  std::vector<std::uint32_t> task_depth(tasks.size());
  parallel_for(0, task_count, [&](std::int64_t ti) {
    const auto t = static_cast<std::size_t>(ti);
    SubtreeWriter writer{codes, prim_order_, prim_aabbs_, leaf_size_, nodes_.data()};
    writer.build(offsets[t], tasks[t].lo, tasks[t].hi, 0);
    task_depth[t] = tasks[t].depth + writer.max_depth;
  }, grain::kTask);
  max_depth_seen_ = *std::max_element(task_depth.begin(), task_depth.end());

  // Skeleton nodes, bottom-up: in pre-order a skeleton node's children
  // come after it, so a reverse walk meets them already written.
  const auto slot_of = [&](std::uint32_t ref) {
    return (ref & kTaskRef) ? offsets[ref & ~kTaskRef] : ref;
  };
  for (std::size_t s = skeleton.size(); s-- > 0;) {
    const std::uint32_t left = slot_of(skeleton[s].left);
    const std::uint32_t right = slot_of(skeleton[s].right);
    nodes_[s] = BvhNode{unite(nodes_[left].bounds, nodes_[right].bounds), left, right, 0, 0};
  }
}

// Node ids bucketed by depth, deepest level first, so a level sweep can
// process each bucket with parallel_for: a node's children are always one
// level deeper, hence already final when their parent is re-united. The
// schedule depends only on topology and is cached until the next build().
void Bvh::ensure_levels() const {
  if (!level_nodes_.empty() || nodes_.empty()) return;
  const auto n = static_cast<std::uint32_t>(nodes_.size());
  std::vector<std::uint32_t> depth(n, 0);
  std::uint32_t max_depth = 0;
  // Every builder allocates children after their parent, so one forward
  // pass assigns depths before they are read.
  for (std::uint32_t i = 0; i < n; ++i) {
    const BvhNode& node = nodes_[i];
    if (node.is_leaf()) continue;
    RTNN_DCHECK(node.left > i && node.right > i, "child precedes parent");
    depth[node.left] = depth[node.right] = depth[i] + 1;
    max_depth = std::max(max_depth, depth[i] + 1);
  }
  // Counting sort into deepest-first buckets.
  std::vector<std::uint32_t> counts(max_depth + 1, 0);
  for (std::uint32_t i = 0; i < n; ++i) ++counts[depth[i]];
  level_offsets_.assign(max_depth + 2, 0);
  for (std::uint32_t d = 0; d <= max_depth; ++d) {
    // Bucket b processes depth (max_depth - b).
    level_offsets_[d + 1] = level_offsets_[d] + counts[max_depth - d];
  }
  std::vector<std::uint32_t> cursor(level_offsets_.begin(), level_offsets_.end() - 1);
  level_nodes_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    level_nodes_[cursor[max_depth - depth[i]]++] = i;
  }
}

void Bvh::SahSums::add(const Aabb& box, double w) {
  const Vec3 e = box.extent();
  area += w * box.surface_area();
  extent += w * (static_cast<double>(e.x) + e.y + e.z);
  weight += w;
}

Bvh::SahSums Bvh::sah_sums() const {
  return parallel_reduce<SahSums>(
      0, static_cast<std::int64_t>(nodes_.size()), SahSums{},
      [&](std::int64_t i) {
        const BvhNode& node = nodes_[static_cast<std::size_t>(i)];
        SahSums out;
        out.add(node.bounds, node.is_leaf() ? node.count : 1.0);
        return out;
      },
      [](SahSums a, const SahSums& b) { return a += b; }, grain::kElementwise);
}

double Bvh::sah_inflation(float half_width) const {
  if (!refitted_) return 1.0;
  SahSums root;
  root.add(nodes_[0].bounds, 1.0);
  // A degenerate root (zero area at h = 0) yields NaN and reads as 1.0.
  const double base = baseline_sah_.at(half_width) / baseline_root_.at(half_width);
  const double now = refit_sah_.at(half_width) / root.at(half_width);
  return (base > 0.0 && now > 0.0) ? now / base : 1.0;
}

// The refit engine: one bottom-up sweep that recomputes leaf bounds from
// the moved primitive boxes (writing the primitive snapshot cache-hot, in
// the same touch), re-unites interior bounds, and accumulates the SAH
// quality sums — all in a single pass over the node array. `prim_box`
// yields primitive id's moved box; it is called exactly once per
// primitive (each primitive lives in exactly one leaf).
template <typename PrimBox>
void Bvh::refit_impl(std::size_t prim_count, PrimBox prim_box) {
  RTNN_CHECK(prim_count == prim_aabbs_.size(),
             "refit requires the same primitive count as the build");
  if (nodes_.empty()) return;

  // The inflation baseline: the bounds this topology was built for,
  // captured before the first refit disturbs them.
  if (!refitted_) {
    baseline_sah_ = sah_sums();
    baseline_root_ = SahSums{};
    baseline_root_.add(nodes_[0].bounds, 1.0);
  }

  struct SweepAcc {
    SahSums sah;
    std::uint64_t empties = 0;
  };
  const auto refit_node = [&](BvhNode& node) {
    SweepAcc acc;
    if (node.is_leaf()) {
      Aabb bounds;
      for (std::uint32_t s = node.first; s < node.first + node.count; ++s) {
        const std::uint32_t prim = prim_order_[s];
        const Aabb box = prim_box(prim);
        acc.empties += box.empty() ? 1 : 0;
        prim_aabbs_[prim] = box;
        bounds.grow(box);
      }
      node.bounds = bounds;
      acc.sah.add(bounds, node.count);
    } else {
      node.bounds = unite(nodes_[node.left].bounds, nodes_[node.right].bounds);
      acc.sah.add(node.bounds, 1.0);
    }
    return acc;
  };

  SweepAcc total;
  if (num_threads() <= 1 || nodes_.size() < 16 * 1024) {
    // Children always follow their parent in the node array, so a reverse
    // index loop is a valid (and cache-friendly) serial bottom-up sweep.
    for (std::size_t i = nodes_.size(); i-- > 0;) {
      const SweepAcc acc = refit_node(nodes_[i]);
      total.sah += acc.sah;
      total.empties += acc.empties;
    }
  } else {
    ensure_levels();
    for (std::size_t level = 0; level + 1 < level_offsets_.size(); ++level) {
      const SweepAcc acc = parallel_reduce<SweepAcc>(
          level_offsets_[level], level_offsets_[level + 1], SweepAcc{},
          [&](std::int64_t s) {
            return refit_node(nodes_[level_nodes_[static_cast<std::size_t>(s)]]);
          },
          [](SweepAcc a, const SweepAcc& b) {
            a.sah += b.sah;
            a.empties += b.empties;
            return a;
          },
          grain::kElementwise);
      total.sah += acc.sah;
      total.empties += acc.empties;
    }
  }
  RTNN_CHECK(total.empties == 0, "cannot refit over an empty AABB");

  // The root *is* the union of every primitive box.
  scene_bounds_ = nodes_[0].bounds;
  refit_sah_ = total.sah;
  refitted_ = true;
}

void Bvh::refit(std::span<const Aabb> prims) {
  refit_impl(prims.size(), [&](std::uint32_t prim) { return prims[prim]; });
}

void Bvh::refit(std::span<const Vec3> points) {
  refit_impl(points.size(), [&](std::uint32_t prim) { return Aabb{points[prim], points[prim]}; });
}

BvhStats Bvh::stats() const {
  BvhStats s;
  s.node_count = static_cast<std::uint32_t>(nodes_.size());
  s.max_depth = max_depth_seen_;
  if (nodes_.empty()) return s;
  const double root_area = nodes_[0].bounds.surface_area();
  for (const BvhNode& n : nodes_) {
    if (n.is_leaf()) ++s.leaf_count;
    if (root_area > 0.0) {
      // SAH: traversal cost 1 per interior node, intersection cost 1 per
      // primitive, weighted by the probability a random ray visits.
      const double p = n.bounds.surface_area() / root_area;
      s.sah_cost += p * (n.is_leaf() ? n.count : 1.0);
    }
  }
  return s;
}

void Bvh::validate() const {
  if (nodes_.empty()) {
    RTNN_CHECK(prim_aabbs_.empty(), "empty tree but primitives present");
    return;
  }
  const auto n_prims = static_cast<std::uint32_t>(prim_aabbs_.size());
  RTNN_CHECK(prim_order_.size() == n_prims, "prim_order size mismatch");

  std::vector<std::uint32_t> slot_seen(n_prims, 0);
  std::vector<std::uint8_t> node_seen(nodes_.size(), 0);
  std::vector<std::uint32_t> stack{root()};
  while (!stack.empty()) {
    const std::uint32_t ni = stack.back();
    stack.pop_back();
    RTNN_CHECK(ni < nodes_.size(), "child index out of range");
    RTNN_CHECK(!node_seen[ni], "node reachable twice (cycle or DAG)");
    node_seen[ni] = 1;
    const BvhNode& node = nodes_[ni];
    if (node.is_leaf()) {
      RTNN_CHECK(node.first + node.count <= n_prims, "leaf slot range out of bounds");
      for (std::uint32_t s = node.first; s < node.first + node.count; ++s) {
        const std::uint32_t prim = prim_order_[s];
        RTNN_CHECK(prim < n_prims, "primitive id out of range");
        ++slot_seen[prim];
        RTNN_CHECK(node.bounds.contains(prim_aabbs_[prim]),
                   "leaf bounds do not contain primitive AABB");
      }
    } else {
      RTNN_CHECK(node.left != node.right, "interior node with identical children");
      const BvhNode& l = nodes_[node.left];
      const BvhNode& r = nodes_[node.right];
      RTNN_CHECK(node.bounds.contains(l.bounds), "parent does not contain left child");
      RTNN_CHECK(node.bounds.contains(r.bounds), "parent does not contain right child");
      stack.push_back(node.left);
      stack.push_back(node.right);
    }
  }
  for (std::uint32_t p = 0; p < n_prims; ++p) {
    RTNN_CHECK(slot_seen[p] == 1, "primitive not in exactly one leaf");
  }
}

}  // namespace rtnn::rt
