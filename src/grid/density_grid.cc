#include "grid/density_grid.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace nwc {

namespace {

// The cell index floor(offset) clamped to [0, n - 1], for offset >= 0 or
// NaN. The clamp happens in double: a far-out coordinate's offset can
// exceed every size_t, and casting it would be undefined.
size_t ClampedCell(double offset, size_t n) {
  return offset < static_cast<double>(n - 1) ? static_cast<size_t>(offset) : n - 1;
}

}  // namespace

DensityGrid::DensityGrid(const Rect& space, double cell_size,
                         const std::vector<DataObject>& objects)
    : space_(space), cell_size_(cell_size) {
  assert(cell_size > 0.0 && !space.IsEmpty());
  cells_per_axis_ = static_cast<size_t>(CellsPerAxis(space, cell_size));
  assert(cells_per_axis_ * cells_per_axis_ <= kMaxGridCells);
  counts_.assign(cells_per_axis_ * cells_per_axis_, 0);

  for (const DataObject& obj : objects) {
    const size_t cx = CellIndexFor(obj.pos.x, space_.min_x);
    const size_t cy = CellIndexFor(obj.pos.y, space_.min_y);
    ++counts_[cy * cells_per_axis_ + cx];
    ++total_count_;
  }

  prefix_dirty_ = true;
  RebuildPrefixIfDirty();
}

double DensityGrid::CellsPerAxis(const Rect& space, double cell_size) {
  return std::max(1.0, std::ceil(std::max(space.length(), space.width()) / cell_size));
}

void DensityGrid::RebuildPrefixIfDirty() const {
  if (!prefix_dirty_) return;
  // 2-D prefix sums with a zero row/column of padding:
  // prefix[(y+1)*(n+1) + (x+1)] = sum of counts[0..y][0..x].
  const size_t n = cells_per_axis_;
  prefix_.assign((n + 1) * (n + 1), 0);
  for (size_t y = 0; y < n; ++y) {
    for (size_t x = 0; x < n; ++x) {
      prefix_[(y + 1) * (n + 1) + (x + 1)] = counts_[y * n + x] +
                                             prefix_[y * (n + 1) + (x + 1)] +
                                             prefix_[(y + 1) * (n + 1) + x] -
                                             prefix_[y * (n + 1) + x];
    }
  }
  prefix_dirty_ = false;
}

void DensityGrid::OnInsert(const Point& p) {
  const size_t cx = CellIndexFor(p.x, space_.min_x);
  const size_t cy = CellIndexFor(p.y, space_.min_y);
  ++counts_[cy * cells_per_axis_ + cx];
  ++total_count_;
  prefix_dirty_ = true;
}

void DensityGrid::OnRemove(const Point& p) {
  const size_t cx = CellIndexFor(p.x, space_.min_x);
  const size_t cy = CellIndexFor(p.y, space_.min_y);
  uint32_t& cell = counts_[cy * cells_per_axis_ + cx];
  assert(cell > 0 && "removing an object from an empty cell");
  if (cell > 0) {
    --cell;
    --total_count_;
  }
  prefix_dirty_ = true;
}

size_t DensityGrid::CellIndexFor(double coord, double space_min) const {
  const double offset = (coord - space_min) / cell_size_;
  if (offset <= 0.0) return 0;
  return ClampedCell(offset, cells_per_axis_);
}

uint64_t DensityGrid::CountUpperBound(const Rect& rect) const {
  if (rect.IsEmpty()) return 0;
  RebuildPrefixIfDirty();
  // Cells intersecting [rect.min, rect.max] under closed intersection:
  // every cell whose closed extent touches the rect. A cell c spans
  // [min + c*s, min + (c+1)*s]; it intersects when c*s <= rect.max-min and
  // (c+1)*s >= rect.min-min.
  const size_t n = cells_per_axis_;
  const auto first_cell = [&](double lo, double space_min) -> size_t {
    const double offset = (lo - space_min) / cell_size_;
    if (offset <= 0.0) return 0;
    // Largest c with (c+1)*s >= lo-min, i.e. c >= offset-1; boundary-
    // touching cells count (closed intersection).
    return ClampedCell(std::max(0.0, std::ceil(offset - 1.0)), n);
  };
  const auto last_cell = [&](double hi, double space_min) -> size_t {
    const double offset = (hi - space_min) / cell_size_;
    if (offset < 0.0) return 0;
    return ClampedCell(offset, n);
  };

  const size_t x0 = first_cell(rect.min_x, space_.min_x);
  const size_t x1 = last_cell(rect.max_x, space_.min_x);
  const size_t y0 = first_cell(rect.min_y, space_.min_y);
  const size_t y1 = last_cell(rect.max_y, space_.min_y);
  if (x1 < x0 || y1 < y0) return 0;

  const size_t stride = n + 1;
  const uint32_t count = prefix_[(y1 + 1) * stride + (x1 + 1)] -
                         prefix_[y0 * stride + (x1 + 1)] - prefix_[(y1 + 1) * stride + x0] +
                         prefix_[y0 * stride + x0];
  return count;
}

uint32_t DensityGrid::CellCount(const Point& p) const {
  const size_t cx = CellIndexFor(p.x, space_.min_x);
  const size_t cy = CellIndexFor(p.y, space_.min_y);
  return counts_[cy * cells_per_axis_ + cx];
}

}  // namespace nwc
