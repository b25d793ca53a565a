#include "datasets/dataset.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <unordered_map>

#include "common/string_util.h"

namespace nwc {

Rect Dataset::Bounds() const {
  Rect bounds = Rect::Empty();
  for (const DataObject& obj : objects) bounds.Expand(obj.pos);
  return bounds;
}

Rect NormalizedSpace() { return Rect{0.0, 0.0, kSpaceExtent, kSpaceExtent}; }

void NormalizeToSpace(std::vector<DataObject>& objects, const Rect& target) {
  Rect bounds = Rect::Empty();
  for (const DataObject& obj : objects) bounds.Expand(obj.pos);
  if (bounds.IsEmpty()) return;

  const auto scale_axis = [](double value, double src_lo, double src_hi, double dst_lo,
                             double dst_hi) {
    const double span = src_hi - src_lo;
    if (span <= 0.0) return (dst_lo + dst_hi) * 0.5;
    return dst_lo + (value - src_lo) / span * (dst_hi - dst_lo);
  };
  for (DataObject& obj : objects) {
    obj.pos.x = scale_axis(obj.pos.x, bounds.min_x, bounds.max_x, target.min_x, target.max_x);
    obj.pos.y = scale_axis(obj.pos.y, bounds.min_y, bounds.max_y, target.min_y, target.max_y);
  }
}

Status SaveDatasetCsv(const Dataset& dataset, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IoError(StrFormat("cannot open %s for writing", path.c_str()));
  }
  std::fprintf(file, "id,x,y\n");
  for (const DataObject& obj : dataset.objects) {
    std::fprintf(file, "%u,%.17g,%.17g\n", obj.id, obj.pos.x, obj.pos.y);
  }
  const bool ok = std::fclose(file) == 0;
  if (!ok) return Status::IoError(StrFormat("error closing %s", path.c_str()));
  return Status::Ok();
}

Result<Dataset> LoadDatasetCsv(const std::string& path, const std::string& name) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) {
    return Status::IoError(StrFormat("cannot open %s for reading", path.c_str()));
  }
  Dataset dataset;
  dataset.name = name;
  dataset.space = NormalizedSpace();

  char line[256];
  bool first = true;
  size_t line_number = 0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    ++line_number;
    if (first) {
      first = false;
      continue;  // header
    }
    const std::string trimmed = Trim(line);
    if (trimmed.empty()) continue;
    // "id,x,y", each field parsed whole: the id an unsigned 32-bit
    // integer, the coordinates finite numbers.
    const std::vector<std::string> fields = Split(trimmed, ',');
    std::optional<ObjectId> id;
    std::optional<double> x;
    std::optional<double> y;
    if (fields.size() == 3) {
      id = ParseNumber<ObjectId>(Trim(fields[0]));
      x = ParseFinite(Trim(fields[1]));
      y = ParseFinite(Trim(fields[2]));
    }
    if (!id || !x || !y) {
      std::fclose(file);
      return Status::IoError(StrFormat(
          "%s:%zu: malformed row '%s' (expected an id in [0, 4294967295] and two finite "
          "coordinates)",
          path.c_str(), line_number, trimmed.c_str()));
    }
    const DataObject obj{*id, Point{*x, *y}};
    dataset.objects.push_back(obj);
  }
  std::fclose(file);
  return dataset;
}

DatasetStats ComputeStats(const Dataset& dataset) {
  DatasetStats stats;
  stats.cardinality = dataset.objects.size();
  stats.bounds = dataset.Bounds();
  if (dataset.objects.empty()) return stats;

  constexpr size_t kCells = 100;
  const Rect& space = dataset.space;
  const double cell_x = space.length() / kCells;
  const double cell_y = space.width() / kCells;
  std::unordered_map<size_t, size_t> histogram;
  // Clamped in double before the cast: an object below the space (or a
  // NaN offset) lands in cell 0, one at or past the last cell in the last.
  const auto cell_of = [](double offset, double cell) -> size_t {
    if (!(cell > 0.0)) return 0;
    offset /= cell;
    if (!(offset > 0.0)) return 0;
    return offset < static_cast<double>(kCells - 1) ? static_cast<size_t>(offset) : kCells - 1;
  };
  for (const DataObject& obj : dataset.objects) {
    const size_t cx = cell_of(obj.pos.x - space.min_x, cell_x);
    const size_t cy = cell_of(obj.pos.y - space.min_y, cell_y);
    ++histogram[cy * kCells + cx];
  }

  std::vector<size_t> counts;
  counts.reserve(histogram.size());
  for (const auto& [cell, count] : histogram) {
    (void)cell;
    counts.push_back(count);
  }
  std::sort(counts.begin(), counts.end(), std::greater<size_t>());

  stats.occupied_cell_fraction =
      static_cast<double>(counts.size()) / static_cast<double>(kCells * kCells);
  stats.mean_occupied_cell_count =
      static_cast<double>(dataset.objects.size()) / static_cast<double>(counts.size());

  const size_t top = std::max<size_t>(1, counts.size() / 100);
  size_t top_mass = 0;
  for (size_t i = 0; i < top; ++i) top_mass += counts[i];
  stats.top1pct_mass = static_cast<double>(top_mass) / static_cast<double>(dataset.objects.size());
  return stats;
}

}  // namespace nwc
