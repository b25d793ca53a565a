#ifndef NWC_CORE_NWC_ENGINE_H_
#define NWC_CORE_NWC_ENGINE_H_

#include "common/cancel.h"
#include "common/io_stats.h"
#include "common/status.h"
#include "core/nwc_types.h"
#include "grid/density_grid.h"
#include "obs/query_trace.h"
#include "rtree/iwp_index.h"
#include "rtree/rstar_tree.h"

namespace nwc {

/// Answers NWC queries over an R*-tree (paper Sec. 3, Algorithm 1).
///
/// The engine incrementally discovers qualified windows nearest to q —
/// visiting objects in ascending distance via best-first traversal,
/// building each object's search region, and evaluating the windows it
/// generates — and keeps the best n-object group under the query's
/// distance measure. The four optimization techniques are selected per
/// call through NwcOptions; every preset returns a group at the same
/// (optimal) distance, only the I/O cost differs.
///
/// Usage:
///   RStarTree tree = BulkLoadStr(dataset.objects, RTreeOptions{});
///   IwpIndex iwp = IwpIndex::Build(tree);                 // for IWP
///   DensityGrid grid(dataset.space, 25.0, dataset.objects);  // for DEP
///   NwcEngine engine(tree, &iwp, &grid);
///   IoCounter io;
///   Result<NwcResult> result =
///       engine.Execute({q, 8.0, 8.0, 8}, NwcOptions::Star(), &io);
///
/// The tree (and, when supplied, the IWP index and density grid) must
/// outlive the engine and stay unmodified while it is used.
class NwcEngine {
 public:
  /// Binds the engine to an index. `iwp` is required only for options with
  /// use_iwp; `grid` only for use_dep.
  explicit NwcEngine(const RStarTree& tree, const IwpIndex* iwp = nullptr,
                     const DensityGrid* grid = nullptr)
      : tree_(tree), iwp_(iwp), grid_(grid) {}

  /// Runs one NWC query. Returns InvalidArgument for malformed queries and
  /// FailedPrecondition when an enabled optimization lacks its structure.
  /// `io` (optional) accumulates the simulated I/O cost. `trace` (optional)
  /// records the execution as hierarchical spans plus pruning counters; a
  /// null / disabled recorder costs one branch per record site (see
  /// obs/query_trace.h).
  ///
  /// `control` (optional) arms cooperative deadline/cancel/fault handling:
  /// when the control stops mid-search, Execute discards any partial result
  /// and returns the control's status (DeadlineExceeded, Cancelled, or the
  /// reported IoError) — a stopped query never yields a truncated answer.
  Result<NwcResult> Execute(const NwcQuery& query, const NwcOptions& options, IoCounter* io,
                            QueryTrace* trace = nullptr, QueryControl* control = nullptr) const;

 private:
  const RStarTree& tree_;
  const IwpIndex* iwp_;
  const DensityGrid* grid_;
};

}  // namespace nwc

#endif  // NWC_CORE_NWC_ENGINE_H_
