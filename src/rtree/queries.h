#ifndef NWC_RTREE_QUERIES_H_
#define NWC_RTREE_QUERIES_H_

#include <span>
#include <vector>

#include "common/cancel.h"
#include "common/io_stats.h"
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

}  // namespace nwc

#endif  // NWC_RTREE_QUERIES_H_
