#ifndef NWC_CORE_KNWC_ENGINE_H_
#define NWC_CORE_KNWC_ENGINE_H_

#include "common/cancel.h"
#include "common/io_stats.h"
#include "common/status.h"
#include "core/nwc_types.h"
#include "grid/density_grid.h"
#include "obs/query_trace.h"
#include "rtree/iwp_index.h"
#include "rtree/rstar_tree.h"

namespace nwc {

/// Answers kNWC queries (paper Sec. 3.4): k object groups, each of n
/// objects within an l x w window, pairwise sharing at most m objects,
/// ordered by ascending distance to q.
///
/// The engine runs the same incremental nearest-qualified-window search as
/// NwcEngine; each qualified group is offered to the Steps 1-5 maintenance
/// procedure of Sec. 3.4 (positional insert among the current k groups,
/// overlap check against nearer groups, eviction of farther groups that
/// overlap the new one too much). Once k groups are held, dist(q, objs_k)
/// replaces dist_best in the SRR and DIP pruning rules.
///
/// Like the paper's algorithm, the group list is maintained greedily in
/// discovery order: a group dropped for overlapping a nearer group is not
/// revisited if that nearer group is itself evicted later. Because windows
/// are discovered in (approximately) ascending distance, this matches the
/// greedy-by-distance semantics of Definition 3 in all but adversarial tie
/// structures.
class KnwcEngine {
 public:
  explicit KnwcEngine(const RStarTree& tree, const IwpIndex* iwp = nullptr,
                      const DensityGrid* grid = nullptr)
      : tree_(tree), iwp_(iwp), grid_(grid) {}

  /// Runs one kNWC query; see NwcEngine::Execute for the error contract,
  /// the tracing semantics (`trace` additionally captures the Steps 2-5
  /// overlap filtering as kOverlapFilter spans), and the cooperative
  /// deadline/cancel/fault contract of `control`.
  Result<KnwcResult> Execute(const KnwcQuery& query, const NwcOptions& options, IoCounter* io,
                             QueryTrace* trace = nullptr, QueryControl* control = nullptr) const;

 private:
  const RStarTree& tree_;
  const IwpIndex* iwp_;
  const DensityGrid* grid_;
};

}  // namespace nwc

#endif  // NWC_CORE_KNWC_ENGINE_H_
