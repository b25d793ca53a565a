#ifndef NWC_RTREE_IWP_INDEX_H_
#define NWC_RTREE_IWP_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/cancel.h"
#include "common/io_stats.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "rtree/rstar_tree.h"

namespace nwc {

/// A stored pointer to another node together with a copy of that node's
/// MBR, as the IWP technique embeds into the R-tree (paper Sec. 3.3.4).
/// The MBR copy is what lets coverage/overlap be tested without an I/O.
struct NodePointer {
  NodeId node = kInvalidNodeId;
  Rect mbr;
};

/// The Incremental Window query Processing (IWP) augmentation of an
/// R*-tree (paper Sec. 3.3.4).
///
/// Every leaf carries r backward pointers following the Exponential Index
/// pattern: bp_1 is the leaf itself, bp_i (1 < i < r) is the ancestor at
/// depth h - 2^(i-2) (paper depth convention: root 0, leaves h), and bp_r
/// is the root, with r = ceil(log2 h) + 2 (r = 1 for a root-only tree).
/// Every node targeted by a backward pointer except the root carries
/// overlapping pointers to all same-depth nodes whose MBR overlaps its own.
///
/// A window query for the search region of an object p then starts from
/// the lowest backward-pointed ancestor of p's leaf whose MBR covers the
/// region (Algorithm 3), plus the overlapping same-depth nodes intersecting
/// the region, instead of from the root.
///
/// The structure is built over a static tree (the paper's setting); it
/// must be rebuilt after tree modifications.
///
/// ThreadSafety: immutable after Build() returns — every member is const
/// and touches no mutable state, so concurrent readers are safe. Per-query
/// IoCounters passed to WindowQuery() must not be shared across threads.
class IwpIndex {
 public:
  /// Builds the pointer structure for `tree`. The tree must outlive the
  /// index and remain unmodified.
  static IwpIndex Build(const RStarTree& tree);

  /// Backward pointers of `leaf` (lowest first, root last); empty for an
  /// id that is not a leaf of the indexed tree.
  std::span<const NodePointer> BackwardPointers(NodeId leaf) const {
    return backward_.Of(leaf);
  }

  /// Overlapping pointers of `node` (empty for nodes that are not backward
  /// targets and for the root).
  std::span<const NodePointer> OverlapPointers(NodeId node) const { return overlaps_.Of(node); }

  /// Algorithm 3: answers the window query for `window`, issued while
  /// processing an object stored in `leaf`, and appends the objects inside
  /// to `out` (see WindowQueryFrom).
  ///
  /// I/O accounting: consulting the pointer tables is free — the backward
  /// pointers ride along with the object when its leaf is expanded into the
  /// priority queue, and the overlap table of the chosen start node is
  /// embedded in that node's page. Every node traversed by the window
  /// query itself charges one read, exactly as a root-based query would.
  void WindowQuery(const RStarTree& tree, NodeId leaf, const Rect& window,
                   std::vector<DataObject>* out, IoCounter* io,
                   IoPhase phase = IoPhase::kWindowQuery, QueryControl* control = nullptr) const;

  /// Appends to `out` the start nodes Algorithm 3 would search from
  /// (exposed for tests and for the storage/ablation analysis). A leaf
  /// without backward pointers falls back to the root.
  void ResolveStartNodes(NodeId leaf, const Rect& window, std::vector<NodeId>* out) const;

  /// Total number of stored backward pointers (Sec. 5.2 accounting).
  size_t backward_pointer_count() const { return backward_.pointers.size(); }

  /// Total number of stored overlapping pointers (Sec. 5.2 accounting).
  size_t overlap_pointer_count() const { return overlaps_.pointers.size(); }

  /// Storage overhead in bytes under the paper's 4-bytes-per-pointer
  /// assumption (MBR copies excluded, matching Sec. 5.2's accounting).
  size_t StorageBytes() const {
    return (backward_pointer_count() + overlap_pointer_count()) * kPointerBytes;
  }

 private:
  IwpIndex() = default;

  /// Per-node pointer lists in compressed-sparse-row form, indexed by
  /// NodeId: node v's pointers are pointers[offsets[v] .. offsets[v + 1]).
  /// A lookup is two array reads instead of a hash probe.
  struct PointerTable {
    std::vector<uint32_t> offsets;
    std::vector<NodePointer> pointers;

    static PointerTable FromLists(const std::vector<std::vector<NodePointer>>& lists);
    std::span<const NodePointer> Of(NodeId node) const {
      if (static_cast<size_t>(node) + 1 >= offsets.size()) return {};
      return std::span<const NodePointer>(pointers).subspan(
          offsets[node], offsets[node + 1] - offsets[node]);
    }
  };

  PointerTable backward_;
  PointerTable overlaps_;
  NodeId root_ = kInvalidNodeId;
};

}  // namespace nwc

#endif  // NWC_RTREE_IWP_INDEX_H_
