#ifndef NWC_RTREE_BULK_LOAD_H_
#define NWC_RTREE_BULK_LOAD_H_

#include <vector>

#include "geometry/point.h"
#include "rtree/rstar_tree.h"

namespace nwc {

/// Parameters for STR bulk loading.
struct BulkLoadOptions {
  /// Fraction of max_entries each packed node is filled to; 1.0 packs
  /// nodes full (classic STR), lower values leave slack for later inserts.
  double fill_factor = 0.7;
};

/// Builds an R*-tree over `objects` with Sort-Tile-Recursive packing
/// (Leutenegger, Lopez, Edgington; ICDE 1997): sort by x, cut into
/// vertical slabs of ~sqrt(#leaves) leaves each, sort each slab by y, and
/// pack; repeat one level up until a single root remains.
///
/// Produces the same logical point set as repeated Insert() but orders of
/// magnitude faster and with near-perfect space utilization; the benchmark
/// harness uses it to build the 250k-object indexes. Query results are
/// identical either way (only node layout differs, hence absolute I/O
/// counts shift slightly).
RStarTree BulkLoadStr(const std::vector<DataObject>& objects, RTreeOptions tree_options,
                      BulkLoadOptions load_options = BulkLoadOptions());

}  // namespace nwc

#endif  // NWC_RTREE_BULK_LOAD_H_
