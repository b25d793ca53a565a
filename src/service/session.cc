#include "service/session.h"

#include <cassert>
#include <memory>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "rtree/node.h"

namespace nwc {

Status SessionConfig::Validate() const {
  if (!(grid_cell_size > 0.0)) {
    return Status::InvalidArgument("grid_cell_size must be positive");
  }
  return Status::Ok();
}

std::vector<DataObject> CollectTreeObjects(const RStarTree& tree) {
  std::vector<DataObject> objects;
  objects.reserve(tree.size());
  std::vector<NodeId> stack{tree.root()};
  while (!stack.empty()) {
    const RTreeNode& node = tree.node(stack.back());
    stack.pop_back();
    if (node.is_leaf()) {
      objects.insert(objects.end(), node.objects.begin(), node.objects.end());
    } else {
      for (const ChildEntry& entry : node.children) stack.push_back(entry.child);
    }
  }
  return objects;
}

Result<Session> Session::Open(RStarTree tree, const SessionConfig& config) {
  const Status valid = config.Validate();
  if (!valid.ok()) return valid;

  Rect space = config.grid_space;
  if (space.IsEmpty()) space = tree.bounds();
  if (space.IsEmpty()) {
    // Empty tree: a 1-cell grid with zero counts keeps DEP sound (it
    // prunes everything, which is the right answer for no data; in a
    // SnapshotStore, later inserts clamp into the single cell).
    space = Rect{0.0, 0.0, config.grid_cell_size, config.grid_cell_size};
  }
  const double cells = DensityGrid::CellsPerAxis(space, config.grid_cell_size);
  if (cells * cells > static_cast<double>(kMaxGridCells)) {
    return Status::InvalidArgument(StrFormat(
        "grid_cell_size %g needs %.0f x %.0f density-grid cells; at most %zu are allowed",
        config.grid_cell_size, cells, cells, kMaxGridCells));
  }

  Session session;
  session.tree_ = std::make_unique<RStarTree>(std::move(tree));
  session.iwp_ = std::make_unique<IwpIndex>(IwpIndex::Build(*session.tree_));
  session.grid_ = std::make_unique<DensityGrid>(space, config.grid_cell_size,
                                                CollectTreeObjects(*session.tree_));
  return session;
}

Session Session::FromParts(std::unique_ptr<RStarTree> tree, std::unique_ptr<IwpIndex> iwp,
                           std::unique_ptr<DensityGrid> grid) {
  assert(tree != nullptr && iwp != nullptr && grid != nullptr);
  Session session;
  session.tree_ = std::move(tree);
  session.iwp_ = std::move(iwp);
  session.grid_ = std::move(grid);
  return session;
}

}  // namespace nwc
