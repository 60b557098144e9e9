#include "rtcore/wide_bvh.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "core/error.hpp"
#include "core/parallel.hpp"

namespace rtnn::rt {

namespace {

/// The binary nodes feeding one wide node's slots, recorded during the
/// serial topology pass and consumed by the parallel bounds fill.
using SlotSources = std::array<std::uint32_t, kWideBvhWidth>;

/// Grows `frontier` (binary node ids under one wide node) by repeatedly
/// replacing the interior entry with the largest surface area — the child a
/// random ray is most likely to enter — with its two children, until all
/// eight slots are used or only leaves remain. Returns the frontier size.
/// Areas are computed once per entry (-1 marks a leaf), not rescanned.
std::uint32_t collapse_frontier(std::span<const BvhNode> bin_nodes, SlotSources& frontier,
                                std::uint32_t size) {
  const auto entry_area = [&](std::uint32_t id) {
    const BvhNode& node = bin_nodes[id];
    return node.is_leaf() ? -1.0f : node.bounds.surface_area();
  };
  float area[kWideBvhWidth];
  for (std::uint32_t i = 0; i < size; ++i) area[i] = entry_area(frontier[i]);
  while (size < kWideBvhWidth) {
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
    ++size;
  }
  return size;
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

}  // namespace

void WideBvh::build(const Bvh& source) {
  nodes_.clear();
  leaves_.clear();
  slot_sources_.clear();
  max_depth_ = 0;
  child_slots_ = 0;
  prim_order_.assign(source.prim_order().begin(), source.prim_order().end());
  prim_aabbs_.assign(source.prim_aabbs().begin(), source.prim_aabbs().end());
  source_node_count_ = static_cast<std::uint32_t>(source.nodes().size());
  if (source.empty()) return;

  const std::span<const BvhNode> bin_nodes = source.nodes();

  // Phase 1 (serial): topology. BFS over wide nodes keeps parents adjacent
  // to children in memory. Each queue entry is a wide node to fill; its
  // frontier collapse allocates the children. Single-threaded builds fill
  // the SoA bounds inline while the binary nodes are cache-hot; parallel
  // builds defer the fill (the bulk of the writes) to phase 2.
  const bool inline_fill = num_threads() <= 1;
  struct Pending {
    std::uint32_t bin_root;
    std::uint32_t wide_index;
    std::uint32_t depth;
  };
  // Capacity up front: growth reallocations are expensive at 256 B/node.
  // For leaf_size 1 the collapse lands near one wide node per 2.5 binary
  // leaves; a quarter of the binary node count covers that with slack.
  const std::size_t node_estimate = bin_nodes.size() / 4 + 2;
  std::vector<Pending> queue;
  queue.reserve(node_estimate);
  queue.push_back({source.root(), 0, 0});
  // Slot sources are recorded for every node: the parallel bounds fill
  // consumes them now, refit_from() consumes them for the tree's lifetime.
  slot_sources_.reserve(node_estimate);
  nodes_.reserve(node_estimate);
  leaves_.reserve((bin_nodes.size() + 1) / 2);
  nodes_.emplace_back();
  slot_sources_.emplace_back();

  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Pending p = queue[head];
    max_depth_ = std::max(max_depth_, p.depth);

    SlotSources frontier{};
    std::uint32_t size;
    const BvhNode& bin_root = bin_nodes[p.bin_root];
    if (bin_root.is_leaf()) {
      frontier[0] = p.bin_root;  // degenerate tree: the root itself is a leaf
      size = 1;
    } else {
      frontier[0] = bin_root.left;
      frontier[1] = bin_root.right;
      size = collapse_frontier(bin_nodes, frontier, 2);
    }

    // Allocate children before touching nodes_[p.wide_index]: emplace_back
    // below may reallocate the node array.
    SlotSources children;
    children.fill(WideBvhNode::kEmptyChild);
    for (std::uint32_t i = 0; i < size; ++i) {
      const BvhNode& bin = bin_nodes[frontier[i]];
      if (bin.is_leaf()) {
        children[i] =
            WideBvhNode::kLeafBit | static_cast<std::uint32_t>(leaves_.size());
        leaves_.push_back({bin.first, bin.count});
      } else {
        const auto child_index = static_cast<std::uint32_t>(nodes_.size());
        children[i] = child_index;
        nodes_.emplace_back();
        slot_sources_.emplace_back();
        queue.push_back({frontier[i], child_index, p.depth + 1});
      }
    }

    WideBvhNode& node = nodes_[p.wide_index];
    node.count = size;
    child_slots_ += size;
    std::copy(children.begin(), children.end(), node.child);
    slot_sources_[p.wide_index] = frontier;
    if (inline_fill) fill_bounds(node, bin_nodes, frontier);
  }
  if (!inline_fill) {
    // Phase 2 (parallel): the SoA bounds fill — the bulk of the writes.
    parallel_for(0, static_cast<std::int64_t>(nodes_.size()), [&](std::int64_t ni) {
      fill_bounds(nodes_[static_cast<std::size_t>(ni)], bin_nodes,
                  slot_sources_[static_cast<std::size_t>(ni)]);
    }, grain::kElementwise / kWideBvhWidth);
  }
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
  const std::span<const Aabb> moved = source.prim_aabbs();
  std::copy(moved.begin(), moved.end(), prim_aabbs_.begin());
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
