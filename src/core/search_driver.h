#ifndef NWC_CORE_SEARCH_DRIVER_H_
#define NWC_CORE_SEARCH_DRIVER_H_

#include <vector>

#include "common/cancel.h"
#include "common/io_stats.h"
#include "core/nwc_types.h"
#include "geometry/point.h"
#include "grid/density_grid.h"
#include "obs/query_trace.h"
#include "rtree/iwp_index.h"
#include "rtree/rstar_tree.h"

namespace nwc::internal {

/// Consumer of candidate groups produced by the search driver. NwcEngine
/// keeps the single best group; KnwcEngine maintains the k-group list of
/// Sec. 3.4.
class GroupSink {
 public:
  virtual ~GroupSink() = default;

  /// The pruning radius for SRR / DIP / the per-window MINDIST gate:
  /// dist_best for NWC, dist(q, objs_k) for kNWC (+infinity while no bound
  /// exists). Every candidate whose relevant lower bound reaches this
  /// value is skipped.
  virtual double PruneDistance() const = 0;

  /// Offers a qualified group: the n objects of a qualified window closest
  /// to q, with `distance` already computed under the query's measure.
  /// Called only when distance < PruneDistance() held at window-gate time;
  /// the sink re-checks against its own state as needed.
  virtual void Offer(std::vector<DataObject> group, double distance) = 0;
};

/// Runs the NWC search (Algorithm 1): best-first traversal of the R*-tree
/// from q, per-object search-region construction and window queries, and
/// qualified-window evaluation, feeding every surviving group to `sink`.
///
/// Optimization toggles in `options` select SRR / DIP / DEP / IWP exactly
/// as in the paper; `iwp` may be null unless options.use_iwp, `grid` may
/// be null unless options.use_dep (callers validate beforehand). All node
/// visits are charged to `io` (traversal vs. window-query phases).
///
/// `trace` records the search as hierarchical spans: one kBrowseNode span
/// per node expansion (with DIP/DEP check children), one kCandidate span
/// per object popped (with SRR/DEP/window-query children), plus the
/// structured pruning counters and the traversal-heap high-water mark.
/// Pass NullTrace() to run untraced — the disabled recorder reduces every
/// record call to a single branch.
///
/// `control` makes the search cooperative: it is polled at every queue pop
/// and inside the window-query walks, and the loop exits as soon as it
/// reports a stop (deadline, external cancel, or a fault routed in via
/// ReportFault). A stopped search leaves the sink holding whatever partial
/// state it had — callers must check control.stopped() and surface the
/// control's status instead of the sink's result. Pass NullControl() to run
/// unguarded (one branch per checkpoint, like NullTrace()).
///
void RunNwcSearch(const RStarTree& tree, const IwpIndex* iwp, const DensityGrid* grid,
                  const NwcQuery& query, const NwcOptions& options, IoCounter* io,
                  GroupSink& sink, QueryTrace& trace, QueryControl& control);

}  // namespace nwc::internal

#endif  // NWC_CORE_SEARCH_DRIVER_H_
