#include "geometry/rect.h"

#include <limits>

namespace nwc {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Rect Rect::Empty() {
  Rect r;
  r.min_x = kInf;
  r.min_y = kInf;
  r.max_x = -kInf;
  r.max_y = -kInf;
  return r;
}

Rect Rect::FromPoint(const Point& p) { return Rect{p.x, p.y, p.x, p.y}; }

Rect Rect::FromCorners(const Point& a, const Point& b) {
  return Rect{std::min(a.x, b.x), std::min(a.y, b.y), std::max(a.x, b.x), std::max(a.y, b.y)};
}

Rect Rect::Window(const Point& origin, double l, double w) {
  return Rect{origin.x, origin.y, origin.x + l, origin.y + w};
}

double Rect::Margin() const {
  if (IsEmpty()) return 0.0;
  return length() + width();
}

Point Rect::Center() const { return Point{(min_x + max_x) * 0.5, (min_y + max_y) * 0.5}; }

bool Rect::Contains(const Point& p) const {
  return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
}

bool Rect::Contains(const Rect& other) const {
  if (other.IsEmpty()) return true;
  return other.min_x >= min_x && other.max_x <= max_x && other.min_y >= min_y &&
         other.max_y <= max_y;
}

void Rect::Expand(const Point& p) {
  min_x = std::min(min_x, p.x);
  min_y = std::min(min_y, p.y);
  max_x = std::max(max_x, p.x);
  max_y = std::max(max_y, p.y);
}

Rect Rect::Intersection(const Rect& a, const Rect& b) {
  if (!a.Intersects(b)) return Empty();
  return Rect{std::max(a.min_x, b.min_x), std::max(a.min_y, b.min_y), std::min(a.max_x, b.max_x),
              std::min(a.max_y, b.max_y)};
}

double Rect::EnlargementArea(const Rect& other) const {
  return Union(*this, other).Area() - Area();
}

Rect Rect::Inflated(double dx, double dy) const {
  if (IsEmpty()) return *this;
  return Rect{min_x - dx, min_y - dy, max_x + dx, max_y + dy};
}

double SquaredMinDist(const Point& q, const Rect& r) {
  if (r.IsEmpty()) return kInf;
  const double dx = std::max({r.min_x - q.x, 0.0, q.x - r.max_x});
  const double dy = std::max({r.min_y - q.y, 0.0, q.y - r.max_y});
  return dx * dx + dy * dy;
}

double MinDist(const Point& q, const Rect& r) { return std::sqrt(SquaredMinDist(q, r)); }

double MaxDist(const Point& q, const Rect& r) {
  if (r.IsEmpty()) return 0.0;
  const double dx = std::max(std::abs(q.x - r.min_x), std::abs(q.x - r.max_x));
  const double dy = std::max(std::abs(q.y - r.min_y), std::abs(q.y - r.max_y));
  return std::sqrt(dx * dx + dy * dy);
}

std::ostream& operator<<(std::ostream& os, const Rect& r) {
  return os << "[" << r.min_x << ", " << r.max_x << "] x [" << r.min_y << ", " << r.max_y << "]";
}

}  // namespace nwc
