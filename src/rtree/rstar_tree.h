#ifndef NWC_RTREE_RSTAR_TREE_H_
#define NWC_RTREE_RSTAR_TREE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/io_stats.h"
#include "common/status.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "rtree/node.h"
#include "storage/page.h"

namespace nwc {

/// Construction parameters for an R*-tree. The paper's defaults: 4096-byte
/// pages with at most 50 entries per node; R* minimum fill of 40%.
struct RTreeOptions {
  /// Maximum entries per node (paper: 50).
  int max_entries = kMaxEntriesDefault;
  /// Minimum entries per node after a split / before underflow (R*: 40%).
  int min_entries = kMaxEntriesDefault * 2 / 5;
  /// Fraction of entries removed by R* forced reinsertion (R* paper: 30%).
  double reinsert_fraction = 0.3;
  /// Disable to fall back to plain split-on-overflow (Guttman-style
  /// overflow handling with the R* split); used by ablation benchmarks.
  bool forced_reinsert = true;

  /// Validates parameter consistency.
  Status Validate() const;
};

/// An in-memory R*-tree (Beckmann, Kriegel, Schneider, Seeger; SIGMOD 1990)
/// over 2-D point data, with simulated-page I/O accounting.
///
/// Features:
///  * insertion with ChooseSubtree (minimum overlap enlargement at the leaf
///    level), forced reinsertion, and the R* topological split;
///  * deletion with underflow condensation and re-insertion;
///  * structural accessors for query algorithms (queries.h), the IWP
///    augmentation (iwp_index.h), and the validator (validate.h).
///
/// I/O model: every node occupies one page. Query algorithms charge one
/// page read per visited node through AccessNode(); maintenance operations
/// do not charge I/O (the paper only measures query cost on static data).
///
/// ThreadSafety: the read path — node(), AccessNode(), IsLive(), bounds(),
/// and every query algorithm built on them — is safe for any number of
/// concurrent threads *provided no thread calls Insert()/Delete()
/// concurrently*. AccessNode() mutates nothing in the tree; all I/O
/// accounting goes to the caller-supplied per-query IoCounter, which must
/// not be shared across threads. The query service relies on this
/// const-reader contract (src/service/). Mutations require external
/// exclusive locking, or (the paper's and the service's setting) a tree
/// that is frozen after construction.
///
/// The class is move-only (it owns the node arena).
class RStarTree {
 public:
  explicit RStarTree(RTreeOptions options = RTreeOptions());

  RStarTree(RStarTree&&) = default;
  RStarTree& operator=(RStarTree&&) = default;
  RStarTree(const RStarTree&) = delete;
  RStarTree& operator=(const RStarTree&) = delete;

  /// Inserts one data object. Duplicate positions and ids are allowed (the
  /// tree is a multiset); NWC semantics treat every stored object as
  /// distinct.
  void Insert(const DataObject& object);

  /// Removes one object matching `object` exactly (id and position).
  /// Returns NotFound when no such object is stored.
  Status Delete(const DataObject& object);

  /// Number of stored objects.
  size_t size() const { return size_; }

  /// True when no objects are stored.
  bool empty() const { return size_ == 0; }

  /// Tree height as the number of edges from root to leaf (0 when the root
  /// is itself a leaf). The paper's leaf depth h equals this value.
  int height() const;

  /// Root node id (always valid; an empty tree has an empty leaf root).
  NodeId root() const { return root_; }

  /// MBR of all stored objects (empty rect when the tree is empty).
  Rect bounds() const;

  /// Number of live nodes (== simulated pages occupied by the index).
  size_t node_count() const;

  /// Arena capacity (live + freed slots); node ids are < this bound.
  size_t node_slot_count() const { return nodes_.size(); }

  /// Structural access without I/O accounting, for maintenance code, IWP
  /// construction, validation, and tests.
  const RTreeNode& node(NodeId id) const;

  /// Access with I/O accounting: charges one page read to `io` (if any)
  /// and returns the node. All query algorithms go through this.
  const RTreeNode& AccessNode(NodeId id, IoCounter* io, IoPhase phase) const;

  /// True when `id` names a live node.
  bool IsLive(NodeId id) const;

  const RTreeOptions& options() const { return options_; }

  /// Simulated on-disk footprint of the index: one page per live node.
  size_t StorageBytes() const { return node_count() * kPageSizeBytes; }

  /// Builder hook used by STR bulk loading and deserialization: adopts a
  /// fully-formed arena. `nodes[i]` may be null for freed slots. Performs
  /// no validation; call ValidateTree() afterwards in debug paths.
  static RStarTree FromParts(RTreeOptions options, std::vector<std::unique_ptr<RTreeNode>> nodes,
                             NodeId root, size_t size);

  /// Deep copy: duplicates the node arena (preserving node ids, the free
  /// list, and per-leaf SoA layout) so the copy and the original can
  /// diverge independently. O(n); the snapshot layer uses this to publish
  /// an immutable epoch while the writer keeps mutating its own tree.
  RStarTree Clone() const;

 private:
  friend class RStarTreeTestPeer;

  RTreeNode* MutableNode(NodeId id);
  NodeId AllocateNode(int level);
  void FreeNode(NodeId id);

  /// R* ChooseSubtree: descends from the root to a node at `target_level`.
  NodeId ChooseSubtree(const Rect& entry_mbr, int target_level);

  /// Inserts an entry at `target_level` (level 0 object or reinserted
  /// subtree). `levels_reinserted` tracks which levels already performed a
  /// forced reinsert during the current top-level insertion.
  void InsertAtLevel(const Rect& entry_mbr, const DataObject* object, const ChildEntry* subtree,
                     int target_level, std::vector<bool>& levels_reinserted);

  /// Handles an overfull node: forced reinsert (once per level per
  /// insertion) or split.
  void OverflowTreatment(NodeId node_id, std::vector<bool>& levels_reinserted);

  void ReinsertEntries(NodeId node_id, std::vector<bool>& levels_reinserted);
  void SplitNode(NodeId node_id, std::vector<bool>& levels_reinserted);

  /// Recomputes MBRs from `node_id` to the root.
  void AdjustPathMbrs(NodeId node_id);

  /// Replaces the MBR stored for `child` inside its parent.
  void UpdateParentEntry(NodeId child);

  /// Deletion helper: finds the leaf containing `object`, or kInvalidNodeId.
  NodeId FindLeafFor(const DataObject& object, NodeId subtree) const;

  /// Deletion helper: prunes underfull ancestors and reinserts orphans.
  void CondenseTree(NodeId leaf_id);

  RTreeOptions options_;
  std::vector<std::unique_ptr<RTreeNode>> nodes_;
  std::vector<NodeId> free_list_;
  NodeId root_ = kInvalidNodeId;
  size_t size_ = 0;
};

}  // namespace nwc

#endif  // NWC_RTREE_RSTAR_TREE_H_
