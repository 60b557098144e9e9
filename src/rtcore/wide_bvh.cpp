#include "rtcore/wide_bvh.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <utility>

#include "core/error.hpp"
#include "core/parallel.hpp"

namespace rtnn::rt {

namespace {

/// The binary nodes feeding one wide node's slots, recorded by the
/// collapse and consumed by the bounds fill (at build and every refit).
using SlotSources = std::array<std::uint32_t, kWideBvhWidth>;

/// The frontier of the wide node rooted at binary node `bin_root`, unused
/// slots kEmptyChild. Starting from the root's two children, repeatedly
/// replaces the interior entry with the largest surface area — the child a
/// random ray is most likely to enter — with its two children, until all
/// eight slots are used or only leaves remain. Areas are computed once per
/// entry (-1 marks a leaf), not rescanned.
SlotSources collapse_frontier(std::span<const BvhNode> bin_nodes, std::uint32_t bin_root) {
  SlotSources frontier;
  frontier.fill(WideBvhNode::kEmptyChild);
  const BvhNode& root = bin_nodes[bin_root];
  if (root.is_leaf()) {
    frontier[0] = bin_root;  // degenerate tree: the root itself is a leaf
    return frontier;
  }
  const auto entry_area = [&](std::uint32_t id) {
    const BvhNode& node = bin_nodes[id];
    return node.is_leaf() ? -1.0f : node.bounds.surface_area();
  };
  frontier[0] = root.left;
  frontier[1] = root.right;
  float area[kWideBvhWidth] = {entry_area(root.left), entry_area(root.right)};
  for (std::uint32_t size = 2; size < kWideBvhWidth; ++size) {
    std::uint32_t expand = kWideBvhWidth;  // sentinel: nothing to expand
    float best_area = -1.0f;
    for (std::uint32_t i = 0; i < size; ++i) {
      if (area[i] > best_area) {
        best_area = area[i];
        expand = i;
      }
    }
    if (expand == kWideBvhWidth) break;  // all leaves
    const BvhNode& node = bin_nodes[frontier[expand]];
    frontier[expand] = node.left;
    area[expand] = entry_area(node.left);
    frontier[size] = node.right;
    area[size] = entry_area(node.right);
  }
  return frontier;
}

/// Copies the frontier's binary bounds into one wide node's SoA lanes and
/// inverts the unused slots.
void fill_bounds(WideBvhNode& node, std::span<const BvhNode> bin_nodes,
                 const SlotSources& src) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (std::uint32_t i = 0; i < node.count; ++i) {
    const Aabb& b = bin_nodes[src[i]].bounds;
    node.minx[i] = b.lo.x;
    node.miny[i] = b.lo.y;
    node.minz[i] = b.lo.z;
    node.maxx[i] = b.hi.x;
    node.maxy[i] = b.hi.y;
    node.maxz[i] = b.hi.z;
  }
  for (std::uint32_t i = node.count; i < kWideBvhWidth; ++i) {
    node.minx[i] = node.miny[i] = node.minz[i] = kInf;
    node.maxx[i] = node.maxy[i] = node.maxz[i] = -kInf;
  }
}

/// Binary subtrees of at most kBuildTaskPrims primitives collapse as one
/// task; the wide nodes above them form the serial top, whose child
/// references tag a task index with this bit. A tree that small is a
/// single task, its root.
constexpr std::uint32_t kTaskRef = 0x80000000u;

/// Primitives under binary node `id`: every Bvh subtree covers one
/// contiguous slot range of prim_order(), left subtree first.
std::uint32_t subtree_prims(std::span<const BvhNode> bin_nodes, std::uint32_t id) {
  std::uint32_t lo = id;
  std::uint32_t hi = id;
  while (!bin_nodes[lo].is_leaf()) lo = bin_nodes[lo].left;
  while (!bin_nodes[hi].is_leaf()) hi = bin_nodes[hi].right;
  return bin_nodes[hi].first + bin_nodes[hi].count - bin_nodes[lo].first;
}

/// One BFS block of wide nodes: the top of the tree, or one cut subtree.
struct Block {
  /// Each wide node's frontier in BFS order; unused slots kEmptyChild.
  std::vector<SlotSources> frontiers;
  std::uint32_t leaf_count = 0;
  std::uint64_t child_slots = 0;
  std::uint32_t max_depth = 0;  // below the block's root
  std::uint32_t node_base = 0;  // final index of frontiers[0]
  std::uint32_t leaf_base = 0;  // final index of the block's first leaf
  std::uint32_t node_count() const { return static_cast<std::uint32_t>(frontiers.size()); }
};

/// The tasks the top cuts off: each one's binary root and wide depth, and
/// for every interior slot of the top (BFS order) its child, as a
/// top-local node index or kTaskRef | task index.
struct Cut {
  std::vector<std::uint32_t> roots;
  std::vector<std::uint32_t> depths;
  std::vector<std::uint32_t> refs;
};

/// Pass 1: records the block under `bin_root` (frontiers and counts), BFS.
/// With a `cut`, interior slots over at most kBuildTaskPrims primitives are not
/// expanded but handed to the cut as tasks.
void collapse(std::span<const BvhNode> bin_nodes, std::uint32_t bin_root, Block& block,
              Cut* cut) {
  block.frontiers.push_back(collapse_frontier(bin_nodes, bin_root));
  std::uint32_t depth = 0;
  std::size_t level_end = 1;
  for (std::size_t head = 0; head < block.frontiers.size(); ++head) {
    if (head == level_end) {
      ++depth;
      level_end = block.frontiers.size();
    }
    const SlotSources frontier = block.frontiers[head];  // copy: push_back below
    for (const std::uint32_t bin : frontier) {
      if (bin == WideBvhNode::kEmptyChild) break;
      ++block.child_slots;
      if (bin_nodes[bin].is_leaf()) {
        ++block.leaf_count;
        continue;
      }
      if (cut != nullptr && subtree_prims(bin_nodes, bin) <= kBuildTaskPrims) {
        cut->refs.push_back(kTaskRef | static_cast<std::uint32_t>(cut->roots.size()));
        cut->roots.push_back(bin);
        cut->depths.push_back(depth + 1);
        continue;
      }
      if (cut != nullptr) cut->refs.push_back(block.node_count());
      block.frontiers.push_back(collapse_frontier(bin_nodes, bin));
    }
  }
  block.max_depth = depth;
}

}  // namespace

void WideBvh::build(const Bvh& source) {
  nodes_.clear();
  leaves_.clear();
  slot_sources_.clear();
  max_depth_ = 0;
  child_slots_ = 0;
  parallel_assign(prim_order_, source.prim_order());
  parallel_assign(prim_aabbs_, source.prim_aabbs());
  source_node_count_ = static_cast<std::uint32_t>(source.nodes().size());
  if (source.empty()) return;

  const std::span<const BvhNode> bin_nodes = source.nodes();

  // Top (serial): the wide nodes over subtrees too large for one task.
  // Their interior slots below the cut root the tasks.
  Block top;
  Cut cut;
  if (subtree_prims(bin_nodes, source.root()) <= kBuildTaskPrims) {
    cut.roots.push_back(source.root());
    cut.depths.push_back(0);
  } else {
    collapse(bin_nodes, source.root(), top, &cut);
  }

  // Tasks, pass 1 (parallel): each cut subtree's frontiers and counts.
  std::vector<Block> tasks(cut.roots.size());
  parallel_for(0, static_cast<std::int64_t>(tasks.size()), [&](std::int64_t t) {
    collapse(bin_nodes, cut.roots[static_cast<std::size_t>(t)],
             tasks[static_cast<std::size_t>(t)], nullptr);
  }, grain::kTask);

  // Exclusive scan: the top's BFS block first, then one block per task.
  std::uint32_t node_total = top.node_count();
  std::uint32_t leaf_total = top.leaf_count;
  child_slots_ = top.child_slots;
  max_depth_ = top.max_depth;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    Block& task = tasks[t];
    task.node_base = std::exchange(node_total, node_total + task.node_count());
    task.leaf_base = std::exchange(leaf_total, leaf_total + task.leaf_count);
    child_slots_ += task.child_slots;
    max_depth_ = std::max(max_depth_, cut.depths[t] + task.max_depth);
  }
  // Unwritten: every slot is written once, by the block that owns it.
  nodes_.resize(node_total);
  leaves_.resize(leaf_total);
  slot_sources_.resize(node_total);

  // Pass 2 for one block: wide node i lands at node_base + i, the k-th
  // leaf slot at leaf_base + k, the k-th interior slot's child at
  // interior_index(k); every field of every slot is written here.
  const auto emit = [&](const Block& block, auto interior_index) {
    std::uint32_t leaf = block.leaf_base;
    std::uint32_t interior = 0;
    for (std::size_t i = 0; i < block.frontiers.size(); ++i) {
      const SlotSources& src = block.frontiers[i];
      const std::size_t ni = block.node_base + i;
      WideBvhNode& node = nodes_[ni];
      node.count = 0;
      for (std::uint32_t slot = 0; slot < kWideBvhWidth; ++slot) {
        if (src[slot] == WideBvhNode::kEmptyChild) {
          node.child[slot] = WideBvhNode::kEmptyChild;
          continue;
        }
        ++node.count;
        const BvhNode& bin = bin_nodes[src[slot]];
        if (bin.is_leaf()) {
          node.child[slot] = WideBvhNode::kLeafBit | leaf;
          leaves_[leaf++] = {bin.first, bin.count};
        } else {
          node.child[slot] = interior_index(interior++);
        }
      }
      fill_bounds(node, bin_nodes, src);
      slot_sources_[ni] = src;
    }
  };

  // Pass 2 (parallel): every block writes its nodes, leaves and slot
  // sources in place. Inside a task the k-th interior slot (BFS order) is
  // the task's node k + 1; the top's slots resolve through the cut.
  emit(top, [&](std::uint32_t k) {
    const std::uint32_t ref = cut.refs[k];
    return (ref & kTaskRef) ? tasks[ref & ~kTaskRef].node_base : ref;
  });
  parallel_for(0, static_cast<std::int64_t>(tasks.size()), [&](std::int64_t t) {
    const Block& task = tasks[static_cast<std::size_t>(t)];
    emit(task, [&](std::uint32_t k) { return task.node_base + k + 1; });
  }, grain::kTask);
}

void WideBvh::refit_from(const Bvh& source) {
  RTNN_CHECK(static_cast<std::uint32_t>(source.nodes().size()) == source_node_count_ &&
                 source.prim_count() == prim_count(),
             "refit_from requires the Bvh this WideBvh was collapsed from");
  if (nodes_.empty()) return;
  RTNN_DCHECK(std::equal(prim_order_.begin(), prim_order_.end(),
                         source.prim_order().begin()),
              "source primitive order diverged from the collapse");

  // Only boxes change: refresh the primitive snapshot and rewrite every
  // node's SoA lanes from the recorded collapse frontier. No topology
  // decisions, no allocation — a flat parallel copy.
  const std::span<const BvhNode> bin_nodes = source.nodes();
  parallel_assign(prim_aabbs_, source.prim_aabbs());
  parallel_for(0, static_cast<std::int64_t>(nodes_.size()), [&](std::int64_t ni) {
    fill_bounds(nodes_[static_cast<std::size_t>(ni)], bin_nodes,
                slot_sources_[static_cast<std::size_t>(ni)]);
  }, grain::kElementwise / kWideBvhWidth);
}

WideBvhStats WideBvh::stats() const {
  WideBvhStats s;
  s.node_count = static_cast<std::uint32_t>(nodes_.size());
  s.leaf_count = static_cast<std::uint32_t>(leaves_.size());
  s.max_depth = max_depth_;
  s.node_bytes = static_cast<std::uint64_t>(nodes_.size()) * sizeof(WideBvhNode);
  s.total_index_bytes = s.node_bytes + leaves_.size() * sizeof(WideLeaf) +
                        prim_order_.size() * sizeof(std::uint32_t) +
                        prim_aabbs_.size() * sizeof(Aabb);
  if (nodes_.empty()) return s;
  s.avg_children = static_cast<double>(child_slots_) / static_cast<double>(nodes_.size());
  return s;
}

void WideBvh::validate() const {
  if (nodes_.empty()) {
    RTNN_CHECK(prim_aabbs_.empty(), "empty wide tree but primitives present");
    RTNN_CHECK(leaves_.empty(), "empty wide tree but leaves present");
    return;
  }
  const auto n_prims = static_cast<std::uint32_t>(prim_aabbs_.size());
  RTNN_CHECK(prim_order_.size() == n_prims, "prim_order size mismatch");

  auto slot_bounds = [](const WideBvhNode& node, std::uint32_t i) {
    return Aabb{{node.minx[i], node.miny[i], node.minz[i]},
                {node.maxx[i], node.maxy[i], node.maxz[i]}};
  };

  std::vector<std::uint32_t> slot_seen(n_prims, 0);
  std::vector<std::uint8_t> node_seen(nodes_.size(), 0);
  std::vector<std::uint8_t> leaf_seen(leaves_.size(), 0);
  std::vector<std::uint32_t> stack{root()};
  std::uint64_t child_slots = 0;
  while (!stack.empty()) {
    const std::uint32_t ni = stack.back();
    stack.pop_back();
    RTNN_CHECK(ni < nodes_.size(), "wide child index out of range");
    RTNN_CHECK(!node_seen[ni], "wide node reachable twice (cycle or DAG)");
    node_seen[ni] = 1;
    const WideBvhNode& node = nodes_[ni];
    RTNN_CHECK(node.count >= 1 && node.count <= kWideBvhWidth,
               "wide node child count out of range");
    child_slots += node.count;
    for (std::uint32_t i = 0; i < kWideBvhWidth; ++i) {
      if (i >= node.count) {
        RTNN_CHECK(node.child[i] == WideBvhNode::kEmptyChild,
                   "unused slot not marked empty");
        RTNN_CHECK(slot_bounds(node, i).empty(), "unused slot bounds not inverted");
        continue;
      }
      const Aabb bounds = slot_bounds(node, i);
      RTNN_CHECK(!bounds.empty(), "valid slot with empty bounds");
      const std::uint32_t child = node.child[i];
      if (child & WideBvhNode::kLeafBit) {
        const std::uint32_t li = child & ~WideBvhNode::kLeafBit;
        RTNN_CHECK(li < leaves_.size(), "leaf index out of range");
        RTNN_CHECK(!leaf_seen[li], "leaf referenced twice");
        leaf_seen[li] = 1;
        const WideLeaf& leaf = leaves_[li];
        RTNN_CHECK(leaf.count >= 1, "empty leaf range");
        RTNN_CHECK(leaf.first + leaf.count <= n_prims, "leaf slot range out of bounds");
        for (std::uint32_t s = leaf.first; s < leaf.first + leaf.count; ++s) {
          const std::uint32_t prim = prim_order_[s];
          RTNN_CHECK(prim < n_prims, "primitive id out of range");
          ++slot_seen[prim];
          RTNN_CHECK(bounds.contains(prim_aabbs_[prim]),
                     "leaf slot bounds do not contain primitive AABB");
        }
      } else {
        RTNN_CHECK(child < nodes_.size(), "interior child index out of range");
        // The slot's box must cover everything reachable through the child
        // node — its slots' union is exactly the child subtree's bounds.
        const WideBvhNode& child_node = nodes_[child];
        Aabb child_union;
        for (std::uint32_t j = 0; j < child_node.count; ++j) {
          child_union.grow(slot_bounds(child_node, j));
        }
        RTNN_CHECK(bounds.contains(child_union),
                   "interior slot bounds do not contain child subtree");
        stack.push_back(child);
      }
    }
  }
  for (std::uint32_t p = 0; p < n_prims; ++p) {
    RTNN_CHECK(slot_seen[p] == 1, "primitive not in exactly one wide leaf");
  }
  for (std::size_t l = 0; l < leaves_.size(); ++l) {
    RTNN_CHECK(leaf_seen[l], "unreachable leaf record");
  }
  RTNN_CHECK(child_slots == child_slots_, "cached child-slot total out of date");
}

}  // namespace rtnn::rt
