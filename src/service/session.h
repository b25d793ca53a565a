#ifndef NWC_SERVICE_SESSION_H_
#define NWC_SERVICE_SESSION_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/nwc_types.h"
#include "grid/density_grid.h"
#include "rtree/iwp_index.h"
#include "rtree/rstar_tree.h"

namespace nwc {

/// The density grid's geometry; a Session always builds the IWP index and
/// the grid next to the tree.
struct SessionConfig {
  double grid_cell_size = 25.0;  ///< cell side for the density grid
  /// Grid data space; an empty rect means "the tree's bounds". Pass the
  /// normalized space when queries may fall outside the data bounds.
  Rect grid_space = Rect::Empty();

  Status Validate() const;
};

/// An immutable, shareable snapshot of the index stack: the R*-tree plus
/// the IWP augmentation and density grid built over it. Every stack
/// carries all three, so every scheme runs on every Session.
///
/// A Session is the unit the service shares across worker threads: after
/// Open() (or FromParts()) returns, nothing in it ever mutates, so any
/// number of concurrent readers is safe (see the ThreadSafety notes on
/// RStarTree, IwpIndex and DensityGrid). Mutating the tree requires
/// publishing a new Session — either by hand, or through the epoch-based
/// SnapshotStore (service/snapshot.h), which keeps a mutable writer stack
/// and publishes immutable Sessions from it.
class Session {
 public:
  /// Takes ownership of `tree` and builds the IWP index and density grid
  /// over it (grid objects are collected from the tree's own leaves, so no
  /// separate dataset is needed). Returns InvalidArgument for a bad config.
  static Result<Session> Open(RStarTree tree, const SessionConfig& config = SessionConfig());

  /// Builder hook for the snapshot layer: adopts an already-built stack.
  /// All three parts must be non-null; `iwp` and `grid` must have been
  /// built over / maintained in lockstep with `tree`, and `grid` must be
  /// frozen (prefix sums clean). Asserts the null checks; validates nothing
  /// else.
  static Session FromParts(std::unique_ptr<RStarTree> tree, std::unique_ptr<IwpIndex> iwp,
                           std::unique_ptr<DensityGrid> grid);

  Session(Session&&) = default;
  Session& operator=(Session&&) = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const RStarTree& tree() const { return *tree_; }
  /// Never null; pointers because the engines take the structures that way.
  const IwpIndex* iwp() const { return iwp_.get(); }
  const DensityGrid* grid() const { return grid_.get(); }

 private:
  Session() = default;

  // unique_ptrs keep Session movable while workers hold stable references.
  std::unique_ptr<RStarTree> tree_;
  std::unique_ptr<IwpIndex> iwp_;
  std::unique_ptr<DensityGrid> grid_;
};

/// Collects every stored object by walking the tree's leaves (structural
/// access, no I/O charged). Used to build grids from the index itself and
/// to seed rebuild-from-scratch oracles in the differential tests.
std::vector<DataObject> CollectTreeObjects(const RStarTree& tree);

}  // namespace nwc

#endif  // NWC_SERVICE_SESSION_H_
