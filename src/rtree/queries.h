#ifndef NWC_RTREE_QUERIES_H_
#define NWC_RTREE_QUERIES_H_

#include <cstddef>
#include <cstdint>
#include <queue>
#include <span>
#include <vector>

#include "common/cancel.h"
#include "common/io_stats.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "rtree/rstar_tree.h"

namespace nwc {

/// Returns all objects whose position lies inside `window` (boundary
/// inclusive), via depth-first traversal from the root. Every visited node
/// (including the root) charges one page read to `io` in `phase`.
///
/// When `control` is non-null the walk polls it before each node access and
/// abandons the traversal once the control reports a stop (deadline, cancel,
/// or injected fault). A stopped walk returns a *truncated* hit set; callers
/// must consult the control's status before treating the result as complete
/// (the NWC engines surface the stop as a non-OK query status, so truncated
/// hits never leak into an ok answer).
std::vector<DataObject> WindowQuery(const RStarTree& tree, const Rect& window, IoCounter* io,
                                    IoPhase phase = IoPhase::kWindowQuery,
                                    QueryControl* control = nullptr);

/// Window query that starts from an explicit set of subtree roots instead
/// of the tree root, appending the hits to `out` (which keeps its earlier
/// contents and its capacity, so a caller reusing one buffer allocates
/// nothing in steady state). The IWP technique (Algorithm 3) uses this with
/// the nodes reached through backward/overlapping pointers, and the NWC
/// search with the root alone. Subtrees must be disjoint (as same-depth
/// R-tree nodes are), or duplicates will result. I/O accounting and
/// `control` as for WindowQuery.
void WindowQueryFrom(const RStarTree& tree, std::span<const NodeId> start_nodes,
                     const Rect& window, std::vector<DataObject>* out, IoCounter* io,
                     IoPhase phase = IoPhase::kWindowQuery, QueryControl* control = nullptr);

/// Counts the objects inside `window` without materializing them; same
/// traversal and I/O accounting as WindowQuery.
size_t WindowCount(const RStarTree& tree, const Rect& window, IoCounter* io,
                   IoPhase phase = IoPhase::kWindowQuery, QueryControl* control = nullptr);

/// Returns the `k` objects nearest to `q`, ascending by distance (fewer
/// when the tree holds fewer than `k`). Best-first search (Hjaltason &
/// Samet, TODS 1999); each expanded node charges one page read.
std::vector<DataObject> KnnQuery(const RStarTree& tree, const Point& q, size_t k, IoCounter* io,
                                 IoPhase phase = IoPhase::kTraversal);

/// Incremental nearest-object iterator ("distance browsing", Hjaltason &
/// Samet). Yields stored objects in non-decreasing distance from `q`,
/// expanding R*-tree nodes lazily; the NWC algorithm's visit order
/// (Sec. 3.2: "visits all data objects based on their distance to q in
/// ascending order") is built on the same queue discipline.
///
/// The browser borrows the tree; the tree must outlive it and must not be
/// modified while browsing.
class DistanceBrowser {
 public:
  /// An object produced by the browser, together with its distance from q
  /// and the leaf that stores it (the leaf id is what the IWP technique
  /// attaches backward pointers to).
  struct BrowseItem {
    DataObject object;
    double distance = 0.0;
    NodeId leaf = kInvalidNodeId;
  };

  DistanceBrowser(const RStarTree& tree, const Point& q, IoCounter* io,
                  IoPhase phase = IoPhase::kTraversal);

  /// True when another object is available.
  bool HasNext();

  /// Returns the next nearest object. Requires HasNext().
  BrowseItem Next();

 private:
  struct QueueEntry {
    double distance = 0.0;
    bool is_object = false;
    NodeId node = kInvalidNodeId;   // node to expand, or leaf holding object
    DataObject object;

    // std::priority_queue is a max-heap; invert for nearest-first. Nodes
    // win ties against objects so an object is only emitted once every node
    // that could contain a closer object has been expanded. The remaining
    // tie-breaks make this a strict total order — without them,
    // equal-distance entries popped in heap-layout order, so the browse
    // sequence depended on how the tree was built (insertion vs bulk load).
    // Object ties break on object id (layout-independent: every leaf whose
    // MINDIST is within the tie distance has already been expanded, so all
    // tied objects are in the queue together and emit in ascending id).
    // Node ties break on node id, which only affects expansion order, not
    // emission order.
    friend bool operator<(const QueueEntry& a, const QueueEntry& b) {
      if (a.distance != b.distance) return a.distance > b.distance;
      if (a.is_object != b.is_object) return a.is_object;
      if (a.is_object) return a.object.id > b.object.id;
      return a.node > b.node;
    }
  };

  /// Expands queue-front nodes until an object is at the front (or empty).
  void Advance();

  const RStarTree& tree_;
  Point q_;
  IoCounter* io_;
  IoPhase phase_;
  std::priority_queue<QueueEntry> queue_;
};

}  // namespace nwc

#endif  // NWC_RTREE_QUERIES_H_
