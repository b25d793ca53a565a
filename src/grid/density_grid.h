#ifndef NWC_GRID_DENSITY_GRID_H_
#define NWC_GRID_DENSITY_GRID_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geometry/point.h"
#include "geometry/rect.h"

namespace nwc {

/// Most cells a density grid may have (2048 per axis). The largest grid
/// any experiment builds is 400 x 400; Session::Open rejects a cell size
/// that would need more than this over its grid space.
inline constexpr size_t kMaxGridCells = size_t{1} << 22;

/// The density grid backing the DEP optimization (paper Sec. 3.3.3).
///
/// The data space is divided into square cells of a configurable side
/// length (the paper's "grid size"; default 25 over the 10,000-unit space,
/// giving 400 x 400 = 160,000 cells); each cell stores the number of
/// objects inside it. CountUpperBound() implements Algorithm 2's bound:
/// the sum of the counts of every cell intersecting a rectangle, which
/// upper-bounds the number of objects the rectangle can contain. DEP
/// prunes an index node / cancels a window query when the bound for its
/// (extended) rectangle is below the query's n.
///
/// Cell membership is half-open ([min, min+cell) per axis, with the last
/// row/column closed) so each object is counted exactly once; the
/// intersection test in CountUpperBound is closed, preserving the bound's
/// soundness for objects on cell boundaries.
///
/// ThreadSafety: CountUpperBound()/CellCount() are safe for concurrent
/// readers as long as no OnInsert()/OnRemove() has intervened since
/// construction (the constructor builds the prefix sums eagerly, so a
/// freshly built grid is read-only). After any update the next query
/// rebuilds the lazily-invalidated prefix sums and must therefore be
/// serialized with the updates — the query service only shares grids in
/// the frozen, post-construction state.
class DensityGrid {
 public:
  /// Builds a grid over `space` (typically the dataset bounds or the
  /// normalized 10,000-unit square) with cells of side `cell_size`,
  /// counting `objects`. Objects outside `space` are clamped to the
  /// boundary cells so the bound stays sound for them too.
  DensityGrid(const Rect& space, double cell_size, const std::vector<DataObject>& objects);

  /// Cells per axis of a grid over `space` with cells of side
  /// `cell_size`, as a double so an absurd ratio compares without
  /// overflowing.
  static double CellsPerAxis(const Rect& space, double cell_size);

  /// Upper bound on the number of objects within `rect`: the count-sum of
  /// all cells intersecting it (Algorithm 2). Rectangles outside the grid
  /// clamp to the boundary cells (every object is in some cell).
  uint64_t CountUpperBound(const Rect& rect) const;

  /// Records an object inserted at `p` (paper extension: the evaluation
  /// assumes static data; these keep the grid usable alongside R*-tree
  /// updates). O(1); the prefix sums are rebuilt lazily on the next
  /// CountUpperBound call after any update.
  void OnInsert(const Point& p);

  /// Records the removal of an object at `p`. Removing from an empty cell
  /// is a caller bug and asserts in debug builds.
  void OnRemove(const Point& p);

  /// Forces the lazy prefix-sum rebuild now, returning the grid to the
  /// frozen read-only state in which concurrent CountUpperBound() calls are
  /// safe. The snapshot layer calls this before publishing a grid (or a
  /// copy of one) to readers.
  void Freeze() const { RebuildPrefixIfDirty(); }

  /// Exact count of objects assigned to the cell holding `p` (for tests).
  uint32_t CellCount(const Point& p) const;

  /// Number of cells per axis.
  size_t cells_per_axis() const { return cells_per_axis_; }

  /// Configured cell side length.
  double cell_size() const { return cell_size_; }

  /// Total objects counted.
  uint64_t total_count() const { return total_count_; }

  /// Storage overhead under the paper's accounting (Sec. 5.2: one short
  /// integer, i.e. 2 bytes, per cell).
  size_t StorageBytes() const { return cells_per_axis_ * cells_per_axis_ * 2; }

 private:
  size_t CellIndexFor(double coord, double space_min) const;
  void RebuildPrefixIfDirty() const;

  Rect space_;
  double cell_size_;
  size_t cells_per_axis_;
  uint64_t total_count_ = 0;
  // Row-major counts; kept 32-bit in memory (the 2-byte figure is the
  // paper's on-disk accounting, reported by StorageBytes()).
  std::vector<uint32_t> counts_;
  // Prefix sums over the count matrix make CountUpperBound O(1) instead of
  // O(cells in rect); an implementation refinement that does not change
  // the bound. Rebuilt lazily (O(cells)) after OnInsert/OnRemove updates,
  // so update-heavy phases cost O(1) per update and the rebuild is paid
  // once by the next query. The sums are 32-bit: every count fits, since
  // object ids are 32-bit, and the table is read by every DEP check, so
  // half the width is half the cache footprint. Sums that wrap are still
  // exact modulo 2^32, and so is CountUpperBound's 4-term difference,
  // whose true value is a count and fits.
  mutable std::vector<uint32_t> prefix_;
  mutable bool prefix_dirty_ = false;
};

}  // namespace nwc

#endif  // NWC_GRID_DENSITY_GRID_H_
