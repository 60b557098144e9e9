// Flattened 8-wide BVH — the wall-clock traversal structure.
//
// The binary LBVH (`Bvh`) stays the simulation-fidelity structure: the
// warp-lockstep engine and the cache simulator walk it node by node the
// way the SIMT hardware does. For wall-clock runs the independent-path
// engine instead traverses this collapsed form, where every node holds up
// to eight children whose AABBs are stored SoA (minx[8]/miny[8]/…/maxz[8],
// 64-byte aligned) so a single ray-vs-node step tests all eight child
// boxes at once with AVX2 (scalar fallback when RTNN_ENABLE_AVX2=OFF).
//
// The collapse is the standard wide-BVH recipe of production tracers:
// starting from a binary subtree root, greedily expand the frontier node
// with the largest surface area (the one a random ray is most likely to
// visit) until eight slots are filled or only leaves remain, then emit one
// wide node per frontier. Fewer, fatter nodes mean fewer stack operations
// and fewer dependent cache misses per ray — the software analog of what
// the RT cores' wide tree does in hardware.
//
// Each wide node's frontier depends only on its binary root, so the
// collapse is parallel by construction (as in GPU wide-BVH builders): a
// short serial pass collapses the top of the tree, every binary subtree
// of at most kBuildTaskPrims primitives (bvh.hpp) below it is collapsed
// as its own task, and an exclusive scan of the tasks' node and leaf
// counts places each task's block. The cut depends only on the tree,
// never on the worker count, so the node array is the same at any
// thread count.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/aabb.hpp"
#include "core/no_init_vector.hpp"
#include "rtcore/bvh.hpp"

namespace rtnn::rt {

inline constexpr std::uint32_t kWideBvhWidth = 8;

/// One 8-wide node. Child bounds are struct-of-arrays so lane i of a
/// 256-bit vector register holds child i's coordinate; the whole node is
/// four cache lines. Children are packed from slot 0: slots >= count are
/// empty (inverted bounds, child == kEmptyChild) and masked off by the
/// traversal before use.
struct alignas(64) WideBvhNode {
  float minx[kWideBvhWidth];
  float miny[kWideBvhWidth];
  float minz[kWideBvhWidth];
  float maxx[kWideBvhWidth];
  float maxy[kWideBvhWidth];
  float maxz[kWideBvhWidth];
  /// kLeafBit set: index into WideBvh::leaves(); clear: interior wide-node
  /// index; kEmptyChild: unused slot.
  std::uint32_t child[kWideBvhWidth];
  std::uint32_t count = 0;  // valid children, packed from slot 0

  static constexpr std::uint32_t kLeafBit = 0x80000000u;
  static constexpr std::uint32_t kEmptyChild = 0xffffffffu;

  std::uint32_t valid_mask() const { return (1u << count) - 1u; }
};

/// A leaf child: a slot range in prim_order(), same contract as the binary
/// BvhNode's first/count.
struct WideLeaf {
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

struct WideBvhStats {
  std::uint32_t node_count = 0;
  std::uint32_t leaf_count = 0;
  std::uint32_t max_depth = 0;
  double avg_children = 0.0;  // mean valid children per node (fill factor * 8)
  /// Bytes of the wide node array.
  std::uint64_t node_bytes = 0;
  /// node_bytes + the leaf/prim-order/prim-AABB arrays — the whole
  /// resident footprint of the wide traversal representation.
  std::uint64_t total_index_bytes = 0;
};

/// The 8-wide SoA mirror of a binary Bvh. Self-contained: it snapshots the
/// source's primitive order and AABBs, so the source Bvh may be destroyed
/// after build().
class WideBvh {
 public:
  WideBvh() = default;

  /// Collapses `source` into wide nodes in two passes per subtree task:
  /// pass 1 records each wide node's frontier and the task's node and leaf
  /// counts; after a scan places every task, pass 2 writes child indices,
  /// leaves, slot sources and SoA lanes straight into the final arrays,
  /// each slot exactly once. Numbering: the top's nodes in BFS order, then
  /// one BFS block per task; a tree of at most kBuildTaskPrims primitives
  /// is a single task, one BFS. The binary node feeding each child slot is
  /// recorded so later refit_from() calls can refresh the lanes without
  /// re-collapsing.
  void build(const Bvh& source);

  /// Refreshes the SoA min/max lanes (and the primitive snapshot) from an
  /// already-refitted `source` — which must be the same tree build() last
  /// collapsed, with the same topology. The collapse decision (which
  /// binary node landed in which slot) is reused verbatim; only boxes are
  /// rewritten, in parallel. Together with Bvh::refit this keeps both
  /// traversal representations coherent at a fraction of a rebuild.
  void refit_from(const Bvh& source);

  bool empty() const { return nodes_.empty(); }
  std::uint32_t root() const { return 0; }

  std::span<const WideBvhNode> nodes() const { return nodes_; }
  std::span<const WideLeaf> leaves() const { return leaves_; }
  std::span<const std::uint32_t> prim_order() const { return prim_order_; }
  std::span<const Aabb> prim_aabbs() const { return prim_aabbs_; }

  std::uint32_t prim_count() const { return static_cast<std::uint32_t>(prim_aabbs_.size()); }
  std::uint32_t max_depth() const { return max_depth_; }

  /// O(1): the search path reads it after every launch (the footprint
  /// gauge), so nothing here may walk the node array.
  WideBvhStats stats() const;

  /// Structural invariant check (used by tests): children packed from slot
  /// 0, every node reachable exactly once, every primitive in exactly one
  /// leaf slot, every child slot's bounds contain its subtree's primitive
  /// AABBs. Throws rtnn::Error on failure.
  void validate() const;

 private:
  NoInitVector<WideBvhNode> nodes_;
  NoInitVector<WideLeaf> leaves_;
  NoInitVector<std::uint32_t> prim_order_;
  NoInitVector<Aabb> prim_aabbs_;
  std::uint32_t max_depth_ = 0;
  std::uint64_t child_slots_ = 0;  // sum of node counts; fixed by build()
  /// slot_sources_[node][slot] = binary node id whose bounds fill that
  /// slot's lanes (the collapse frontier), kept so refit_from() is a flat
  /// parallel copy. ~32 B per 256 B node.
  NoInitVector<std::array<std::uint32_t, kWideBvhWidth>> slot_sources_;
  std::uint32_t source_node_count_ = 0;  // binary node count build() saw
};

}  // namespace rtnn::rt
