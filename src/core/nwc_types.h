#ifndef NWC_CORE_NWC_TYPES_H_
#define NWC_CORE_NWC_TYPES_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "geometry/point.h"

namespace nwc {

/// How the distance between the query point q and a group of n objects is
/// measured (paper Sec. 2.1, Eq. 1-4). MINDIST(q, qwin) lower-bounds all
/// four, which is the property the incremental search relies on.
enum class DistanceMeasure {
  kMin,            ///< Eq. 1: distance to the closest group member.
  kMax,            ///< Eq. 2: distance to the farthest group member.
  kAvg,            ///< Eq. 3: mean distance over the group.
  kNearestWindow,  ///< Eq. 4: MINDIST to the nearest window containing the group.
};

/// Stable display name of a measure ("min", "max", "avg", "nearest").
const char* DistanceMeasureName(DistanceMeasure measure);

/// An NWC query (Definition 1): find the n objects clustered within some
/// l x w window whose distance to q is minimal.
struct NwcQuery {
  Point q;          ///< query location
  double length = 0.0;  ///< window x-extent (paper's l)
  double width = 0.0;   ///< window y-extent (paper's w)
  size_t n = 0;         ///< number of objects to retrieve

  /// Rejects a non-finite q, window extents that are not positive and
  /// finite, and n == 0.
  Status Validate() const;
};

/// A kNWC query (Definition 3): k groups of n objects, pairwise sharing at
/// most m objects, ordered by distance to q.
struct KnwcQuery {
  NwcQuery base;
  size_t k = 1;  ///< number of groups
  size_t m = 0;  ///< max identical objects between any two groups

  /// Rejects invalid base queries, k == 0, and m >= n (with m >= n the
  /// same group could repeat k times, which is never what a caller wants).
  Status Validate() const;
};

/// Which optimization techniques (paper Sec. 3.3) an engine run enables,
/// plus the distance measure. The seven presets mirror Table 3.
struct NwcOptions {
  bool use_srr = false;  ///< search region reduction (Sec. 3.3.1)
  bool use_dip = false;  ///< distance-based pruning (Sec. 3.3.2)
  bool use_dep = false;  ///< density-based pruning (Sec. 3.3.3)
  bool use_iwp = false;  ///< incremental window query processing (Sec. 3.3.4)
  DistanceMeasure measure = DistanceMeasure::kNearestWindow;

  /// Table 3 presets. "Plain" is the unoptimized NWC algorithm.
  static NwcOptions Plain() { return NwcOptions{}; }
  static NwcOptions Srr() { return NwcOptions{.use_srr = true}; }
  static NwcOptions Dip() { return NwcOptions{.use_dip = true}; }
  static NwcOptions Dep() { return NwcOptions{.use_dep = true}; }
  static NwcOptions Iwp() { return NwcOptions{.use_iwp = true}; }
  /// NWC+ (SRR + DIP): the best schemes needing no extra storage.
  static NwcOptions Plus() { return NwcOptions{.use_srr = true, .use_dip = true}; }
  /// NWC* (all four techniques).
  static NwcOptions Star() {
    return NwcOptions{.use_srr = true, .use_dip = true, .use_dep = true, .use_iwp = true};
  }
};

/// Result of an NWC query. When `found` is false the dataset contains no
/// qualified window (fewer than n objects fit any l x w window), and
/// `distance` is 0 and `objects` empty. `==` is exact equality: same
/// distance bits and the same objects in the same order.
struct NwcResult {
  bool found = false;
  double distance = 0.0;               ///< dist_best under the query's measure
  std::vector<DataObject> objects;     ///< the n best objects

  friend bool operator==(const NwcResult&, const NwcResult&) = default;
};

/// One group of a kNWC result.
struct NwcGroup {
  double distance = 0.0;
  std::vector<DataObject> objects;

  friend bool operator==(const NwcGroup&, const NwcGroup&) = default;
};

/// Result of a kNWC query: up to k groups, ascending by distance. Fewer
/// than k groups are returned when the data cannot supply k sufficiently
/// distinct groups.
struct KnwcResult {
  std::vector<NwcGroup> groups;

  friend bool operator==(const KnwcResult&, const KnwcResult&) = default;
};

}  // namespace nwc

#endif  // NWC_CORE_NWC_TYPES_H_
