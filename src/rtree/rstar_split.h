#ifndef NWC_RTREE_RSTAR_SPLIT_H_
#define NWC_RTREE_RSTAR_SPLIT_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "geometry/rect.h"

namespace nwc {

/// Result of a node split: the input entries partitioned into two groups.
template <typename Entry>
struct SplitResult {
  std::vector<Entry> first;
  std::vector<Entry> second;
};

namespace rstar_internal {

/// Prefix/suffix MBR arrays for a sorted entry sequence; shared by the
/// margin and overlap computations so each sort is scanned only twice.
template <typename Entry, typename MbrOf>
struct PrefixSuffixMbrs {
  std::vector<Rect> prefix;  // prefix[i] = MBR of entries[0..i]
  std::vector<Rect> suffix;  // suffix[i] = MBR of entries[i..n-1]

  PrefixSuffixMbrs(const std::vector<Entry>& entries, const MbrOf& mbr_of) {
    const size_t n = entries.size();
    prefix.resize(n, Rect::Empty());
    suffix.resize(n, Rect::Empty());
    Rect acc = Rect::Empty();
    for (size_t i = 0; i < n; ++i) {
      acc.Expand(mbr_of(entries[i]));
      prefix[i] = acc;
    }
    acc = Rect::Empty();
    for (size_t i = n; i-- > 0;) {
      acc.Expand(mbr_of(entries[i]));
      suffix[i] = acc;
    }
  }
};

}  // namespace rstar_internal

/// R* topological split (Beckmann et al., SIGMOD 1990, Sec. 4.2).
///
/// ChooseSplitAxis: for each axis, sort the entries by lower and by upper
/// MBR boundary and sum the margins of all legal distributions; pick the
/// axis with the minimum margin sum. ChooseSplitIndex: along that axis,
/// pick the distribution with minimum overlap between the two groups,
/// breaking ties by minimum combined area.
///
/// `min_entries` is the R* parameter m; legal distributions put between m
/// and (n - m) entries in the first group. Requires entries.size() >= 2 and
/// 1 <= min_entries <= entries.size() / 2.
///
/// `mbr_of` maps an Entry to its Rect (a point entry maps to a degenerate
/// rect). The same template serves leaf (DataObject) and internal
/// (ChildEntry) splits.
template <typename Entry, typename MbrOf>
SplitResult<Entry> RStarSplit(std::vector<Entry> entries, size_t min_entries,
                              const MbrOf& mbr_of) {
  using rstar_internal::PrefixSuffixMbrs;
  const size_t n = entries.size();
  const size_t m = min_entries;

  // The four candidate sort orders: (axis, by-lower/by-upper boundary).
  const auto sort_by = [&](std::vector<Entry>& items, int axis, bool by_lower) {
    std::stable_sort(items.begin(), items.end(), [&](const Entry& a, const Entry& b) {
      const Rect ra = mbr_of(a);
      const Rect rb = mbr_of(b);
      if (axis == 0) return by_lower ? ra.min_x < rb.min_x : ra.max_x < rb.max_x;
      return by_lower ? ra.min_y < rb.min_y : ra.max_y < rb.max_y;
    });
  };

  // ChooseSplitAxis: margin sum over all legal distributions, both sorts.
  double best_axis_margin = 0.0;
  int best_axis = -1;
  for (int axis = 0; axis < 2; ++axis) {
    double margin_sum = 0.0;
    for (const bool by_lower : {true, false}) {
      std::vector<Entry> sorted = entries;
      sort_by(sorted, axis, by_lower);
      PrefixSuffixMbrs<Entry, MbrOf> mbrs(sorted, mbr_of);
      for (size_t k = m; k + m <= n; ++k) {
        margin_sum += mbrs.prefix[k - 1].Margin() + mbrs.suffix[k].Margin();
      }
    }
    if (best_axis < 0 || margin_sum < best_axis_margin) {
      best_axis_margin = margin_sum;
      best_axis = axis;
    }
  }

  // ChooseSplitIndex on the chosen axis: min overlap, ties by min area.
  double best_overlap = 0.0;
  double best_area = 0.0;
  bool best_by_lower = true;
  size_t best_k = m;
  bool have_best = false;
  for (const bool by_lower : {true, false}) {
    std::vector<Entry> sorted = entries;
    sort_by(sorted, best_axis, by_lower);
    PrefixSuffixMbrs<Entry, MbrOf> mbrs(sorted, mbr_of);
    for (size_t k = m; k + m <= n; ++k) {
      const Rect& g1 = mbrs.prefix[k - 1];
      const Rect& g2 = mbrs.suffix[k];
      const double overlap = g1.OverlapArea(g2);
      const double area = g1.Area() + g2.Area();
      if (!have_best || overlap < best_overlap ||
          (overlap == best_overlap && area < best_area)) {
        have_best = true;
        best_overlap = overlap;
        best_area = area;
        best_by_lower = by_lower;
        best_k = k;
      }
    }
  }

  sort_by(entries, best_axis, best_by_lower);
  SplitResult<Entry> result;
  result.first.assign(entries.begin(), entries.begin() + static_cast<ptrdiff_t>(best_k));
  result.second.assign(entries.begin() + static_cast<ptrdiff_t>(best_k), entries.end());
  return result;
}

}  // namespace nwc

#endif  // NWC_RTREE_RSTAR_SPLIT_H_
