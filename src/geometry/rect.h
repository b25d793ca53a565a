#ifndef NWC_GEOMETRY_RECT_H_
#define NWC_GEOMETRY_RECT_H_

#include <algorithm>
#include <cmath>
#include <ostream>

#include "geometry/point.h"

namespace nwc {

/// An axis-aligned rectangle [min_x, max_x] x [min_y, max_y], used both as
/// the MBR of R*-tree entries and as query windows / search regions.
///
/// A Rect is *valid* when min <= max on both axes. The canonical empty
/// rectangle (from Rect::Empty()) has inverted infinite bounds so that
/// Expand() of an empty rect by a point/rect yields that point/rect.
struct Rect {
  double min_x = 0.0;
  double min_y = 0.0;
  double max_x = 0.0;
  double max_y = 0.0;

  /// The canonical empty rectangle (identity element for Expand).
  static Rect Empty();

  /// Rectangle covering exactly one point.
  static Rect FromPoint(const Point& p);

  /// Rectangle from two opposite corners, in any order.
  static Rect FromCorners(const Point& a, const Point& b);

  /// Window of length `l` (x-extent) and width `w` (y-extent) whose
  /// bottom-left corner is `origin`. Matches the paper's (l, w) convention.
  static Rect Window(const Point& origin, double l, double w);

  /// True when this rect is the canonical empty rect or otherwise inverted.
  bool IsEmpty() const { return min_x > max_x || min_y > max_y; }

  double length() const { return max_x - min_x; }  ///< x-extent (paper's l).
  double width() const { return max_y - min_y; }   ///< y-extent (paper's w).

  // Area, Intersects, Expand(Rect), Union and OverlapArea are inline so
  // the R*-tree's insert path can inline them. simd/kernels_avx2.cc is
  // built with -mavx2 and sees this header: it must not call them, or its
  // AVX2 copies could be the ones the linker keeps for every caller.

  /// Area; 0 for degenerate (point/segment) rects. Empty rects yield 0.
  double Area() const { return IsEmpty() ? 0.0 : length() * width(); }

  /// Half-perimeter (the R*-tree "margin" used by the split heuristic).
  double Margin() const;

  /// Center point of the rectangle.
  Point Center() const;

  /// True when `p` lies inside or on the boundary.
  bool Contains(const Point& p) const;

  /// True when `other` lies entirely inside or on the boundary of this rect.
  bool Contains(const Rect& other) const;

  /// True when the two rects share at least a boundary point.
  bool Intersects(const Rect& other) const {
    if (IsEmpty() || other.IsEmpty()) return false;
    return min_x <= other.max_x && other.min_x <= max_x && min_y <= other.max_y &&
           other.min_y <= max_y;
  }

  /// Grows this rect to cover `p`.
  void Expand(const Point& p);

  /// Grows this rect to cover `other` (no-op when `other` is empty).
  void Expand(const Rect& other) {
    if (other.IsEmpty()) return;
    min_x = std::min(min_x, other.min_x);
    min_y = std::min(min_y, other.min_y);
    max_x = std::max(max_x, other.max_x);
    max_y = std::max(max_y, other.max_y);
  }

  /// Returns the union MBR of the two rects.
  static Rect Union(const Rect& a, const Rect& b) {
    Rect out = a;
    out.Expand(b);
    return out;
  }

  /// Returns the intersection, or an empty rect when disjoint.
  static Rect Intersection(const Rect& a, const Rect& b);

  /// Area of overlap with `other` (0 when disjoint): the area of
  /// Intersection(*this, other).
  double OverlapArea(const Rect& other) const {
    if (!Intersects(other)) return 0.0;
    return Rect{std::max(min_x, other.min_x), std::max(min_y, other.min_y),
                std::min(max_x, other.max_x), std::min(max_y, other.max_y)}
        .Area();
  }

  /// Area increase needed for this rect to cover `other`.
  double EnlargementArea(const Rect& other) const;

  /// Returns this rect grown by `dx` on both x sides and `dy` on both y
  /// sides (negative values shrink; the result may become empty).
  Rect Inflated(double dx, double dy) const;

  friend bool operator==(const Rect& a, const Rect& b) {
    return a.min_x == b.min_x && a.min_y == b.min_y && a.max_x == b.max_x && a.max_y == b.max_y;
  }
  friend bool operator!=(const Rect& a, const Rect& b) { return !(a == b); }
};

/// MINDIST(q, r): Euclidean distance from `q` to the nearest point of `r`
/// (0 when `q` is inside). This is the lower bound that drives best-first
/// traversal and all of the paper's pruning rules.
double MinDist(const Point& q, const Rect& r);

/// Squared MINDIST; cheaper for ordering comparisons.
double SquaredMinDist(const Point& q, const Rect& r);

/// MAXDIST(q, r): distance from `q` to the farthest point of `r`.
double MaxDist(const Point& q, const Rect& r);

std::ostream& operator<<(std::ostream& os, const Rect& r);

}  // namespace nwc

#endif  // NWC_GEOMETRY_RECT_H_
