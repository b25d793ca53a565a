// AVX2 implementations of the hot-path kernels. This translation unit is
// the only one compiled with -mavx2; nothing here runs unless runtime
// CPUID dispatch (kernels.cc) selected it, so the rest of the binary stays
// executable on any x86-64.
//
// Bit-exactness vs the scalar oracle is the design constraint, not an
// afterthought:
//  * compiled with -ffp-contract=off and -mno-fma so dx*dx + dy*dy is a
//    multiply followed by an add in both implementations (FMA's single
//    rounding would diverge from the scalar oracle's two);
//  * _mm256_{add,sub,mul,sqrt}_pd are IEEE-754 correctly rounded, exactly
//    like their scalar counterparts;
//  * _mm256_max_pd picks the same *value* as std::max for the non-NaN
//    inputs these kernels see — it may differ on the sign of a zero, but
//    every max result here is squared immediately, which erases the sign;
//  * comparisons (_CMP_GE_OQ / _CMP_LE_OQ) are exact predicates with the
//    same semantics as the scalar <= / >= they replace.
// The remainder of each span (count % 4) runs through the same inline
// geometry primitives the scalar kernels use.

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstdint>

#include "simd/kernels.h"

namespace nwc::simd::avx2_impl {

// Namespace-scope const would otherwise give kOps internal linkage; the
// dispatcher in kernels.cc resolves it as an extern symbol.
extern const KernelOps kOps;

namespace {

// Lane mask of points inside the window, boundary inclusive (lane i maps
// to point i of the 4-point block).
inline int ContainsMask(__m256d xs, __m256d ys, __m256d min_x, __m256d max_x, __m256d min_y,
                        __m256d max_y) {
  const __m256d in_x = _mm256_and_pd(_mm256_cmp_pd(xs, min_x, _CMP_GE_OQ),
                                     _mm256_cmp_pd(xs, max_x, _CMP_LE_OQ));
  const __m256d in_y = _mm256_and_pd(_mm256_cmp_pd(ys, min_y, _CMP_GE_OQ),
                                     _mm256_cmp_pd(ys, max_y, _CMP_LE_OQ));
  return _mm256_movemask_pd(_mm256_and_pd(in_x, in_y));
}

// One register per coordinate of the four {min_x, min_y, max_x, max_y}
// rects at `stride_bytes * (i + 0..3)` past `base` (lane j is rect i + j).
struct RectLanes {
  __m256d min_x, max_x, min_y, max_y;
};

inline RectLanes LoadRectLanes(const char* base, size_t stride_bytes, size_t i) {
  const __m256d r0 =
      _mm256_loadu_pd(reinterpret_cast<const double*>(base + (i + 0) * stride_bytes));
  const __m256d r1 =
      _mm256_loadu_pd(reinterpret_cast<const double*>(base + (i + 1) * stride_bytes));
  const __m256d r2 =
      _mm256_loadu_pd(reinterpret_cast<const double*>(base + (i + 2) * stride_bytes));
  const __m256d r3 =
      _mm256_loadu_pd(reinterpret_cast<const double*>(base + (i + 3) * stride_bytes));
  const __m256d lo01 = _mm256_unpacklo_pd(r0, r1);  // [minx0 minx1 | maxx0 maxx1]
  const __m256d hi01 = _mm256_unpackhi_pd(r0, r1);  // [miny0 miny1 | maxy0 maxy1]
  const __m256d lo23 = _mm256_unpacklo_pd(r2, r3);
  const __m256d hi23 = _mm256_unpackhi_pd(r2, r3);
  return RectLanes{_mm256_permute2f128_pd(lo01, lo23, 0x20),
                   _mm256_permute2f128_pd(lo01, lo23, 0x31),
                   _mm256_permute2f128_pd(hi01, hi23, 0x20),
                   _mm256_permute2f128_pd(hi01, hi23, 0x31)};
}

// Rect::Intersects spelled out for a non-empty window: the inline member
// must not be instantiated in this translation unit (see rect.h).
inline bool IntersectsNonEmptyWindow(const Rect& r, const Rect& window) {
  if (r.min_x > r.max_x || r.min_y > r.max_y) return false;
  return r.min_x <= window.max_x && window.min_x <= r.max_x && r.min_y <= window.max_y &&
         window.min_y <= r.max_y;
}

}  // namespace

size_t CountInWindow(const double* xs, const double* ys, size_t count, const Rect& window) {
  const __m256d min_x = _mm256_set1_pd(window.min_x);
  const __m256d max_x = _mm256_set1_pd(window.max_x);
  const __m256d min_y = _mm256_set1_pd(window.min_y);
  const __m256d max_y = _mm256_set1_pd(window.max_y);
  size_t hits = 0;
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const int mask = ContainsMask(_mm256_loadu_pd(xs + i), _mm256_loadu_pd(ys + i), min_x,
                                  max_x, min_y, max_y);
    hits += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(mask)));
  }
  for (; i < count; ++i) {
    if (window.Contains(Point{xs[i], ys[i]})) ++hits;
  }
  return hits;
}

size_t CollectInWindow(const double* xs, const double* ys, size_t count, const Rect& window,
                       uint32_t* out_indices) {
  const __m256d min_x = _mm256_set1_pd(window.min_x);
  const __m256d max_x = _mm256_set1_pd(window.max_x);
  const __m256d min_y = _mm256_set1_pd(window.min_y);
  const __m256d max_y = _mm256_set1_pd(window.max_y);
  size_t hits = 0;
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    unsigned mask = static_cast<unsigned>(ContainsMask(
        _mm256_loadu_pd(xs + i), _mm256_loadu_pd(ys + i), min_x, max_x, min_y, max_y));
    while (mask != 0) {
      const unsigned lane = static_cast<unsigned>(__builtin_ctz(mask));
      out_indices[hits++] = static_cast<uint32_t>(i + lane);
      mask &= mask - 1;
    }
  }
  for (; i < count; ++i) {
    if (window.Contains(Point{xs[i], ys[i]})) out_indices[hits++] = static_cast<uint32_t>(i);
  }
  return hits;
}

void BatchDistance(const Point& q, const double* xs, const double* ys, size_t count,
                   double* out) {
  const __m256d qx = _mm256_set1_pd(q.x);
  const __m256d qy = _mm256_set1_pd(q.y);
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d dx = _mm256_sub_pd(qx, _mm256_loadu_pd(xs + i));
    const __m256d dy = _mm256_sub_pd(qy, _mm256_loadu_pd(ys + i));
    const __m256d sq = _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
    _mm256_storeu_pd(out + i, _mm256_sqrt_pd(sq));
  }
  for (; i < count; ++i) {
    out[i] = Distance(q, Point{xs[i], ys[i]});
  }
}

void BatchDistancePoints(const Point& q, const DataObject* objects, size_t count, double* out) {
  const __m256d qx = _mm256_set1_pd(q.x);
  const __m256d qy = _mm256_set1_pd(q.y);
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d px = _mm256_set_pd(objects[i + 3].pos.x, objects[i + 2].pos.x,
                                     objects[i + 1].pos.x, objects[i].pos.x);
    const __m256d py = _mm256_set_pd(objects[i + 3].pos.y, objects[i + 2].pos.y,
                                     objects[i + 1].pos.y, objects[i].pos.y);
    const __m256d dx = _mm256_sub_pd(qx, px);
    const __m256d dy = _mm256_sub_pd(qy, py);
    const __m256d sq = _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
    _mm256_storeu_pd(out + i, _mm256_sqrt_pd(sq));
  }
  for (; i < count; ++i) {
    out[i] = Distance(q, objects[i].pos);
  }
}

void BatchMinDist(const Point& q, const Rect* first, size_t stride_bytes, size_t count,
                  double* out) {
  const char* base = reinterpret_cast<const char*>(first);
  const __m256d qx = _mm256_set1_pd(q.x);
  const __m256d qy = _mm256_set1_pd(q.y);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d inf = _mm256_set1_pd(__builtin_inf());
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const RectLanes r = LoadRectLanes(base, stride_bytes, i);
    const __m256d min_x = r.min_x;
    const __m256d max_x = r.max_x;
    const __m256d min_y = r.min_y;
    const __m256d max_y = r.max_y;

    // dx = max(min_x - qx, 0, qx - max_x); any sign-of-zero difference vs
    // std::max is erased by the square. Same for dy.
    const __m256d dx = _mm256_max_pd(_mm256_max_pd(_mm256_sub_pd(min_x, qx), zero),
                                     _mm256_sub_pd(qx, max_x));
    const __m256d dy = _mm256_max_pd(_mm256_max_pd(_mm256_sub_pd(min_y, qy), zero),
                                     _mm256_sub_pd(qy, max_y));
    __m256d sq = _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
    // Empty (inverted) rects report +inf, matching scalar SquaredMinDist.
    const __m256d empty = _mm256_or_pd(_mm256_cmp_pd(min_x, max_x, _CMP_GT_OQ),
                                       _mm256_cmp_pd(min_y, max_y, _CMP_GT_OQ));
    sq = _mm256_blendv_pd(sq, inf, empty);
    _mm256_storeu_pd(out + i, _mm256_sqrt_pd(sq));
  }
  for (; i < count; ++i) {
    const Rect* rect = reinterpret_cast<const Rect*>(base + i * stride_bytes);
    out[i] = MinDist(q, *rect);
  }
}

size_t CollectIntersecting(const Rect* first, size_t stride_bytes, size_t count,
                           const Rect& window, uint32_t* out_indices) {
  if (window.min_x > window.max_x || window.min_y > window.max_y) return 0;
  const char* base = reinterpret_cast<const char*>(first);
  const __m256d w_min_x = _mm256_set1_pd(window.min_x);
  const __m256d w_max_x = _mm256_set1_pd(window.max_x);
  const __m256d w_min_y = _mm256_set1_pd(window.min_y);
  const __m256d w_max_y = _mm256_set1_pd(window.max_y);
  size_t hits = 0;
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const RectLanes r = LoadRectLanes(base, stride_bytes, i);
    const __m256d in_x = _mm256_and_pd(_mm256_cmp_pd(r.min_x, w_max_x, _CMP_LE_OQ),
                                       _mm256_cmp_pd(w_min_x, r.max_x, _CMP_LE_OQ));
    const __m256d in_y = _mm256_and_pd(_mm256_cmp_pd(r.min_y, w_max_y, _CMP_LE_OQ),
                                       _mm256_cmp_pd(w_min_y, r.max_y, _CMP_LE_OQ));
    // Empty (inverted) rects intersect nothing, as in Rect::Intersects.
    const __m256d empty = _mm256_or_pd(_mm256_cmp_pd(r.min_x, r.max_x, _CMP_GT_OQ),
                                       _mm256_cmp_pd(r.min_y, r.max_y, _CMP_GT_OQ));
    unsigned mask = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_andnot_pd(empty, _mm256_and_pd(in_x, in_y))));
    while (mask != 0) {
      const unsigned lane = static_cast<unsigned>(__builtin_ctz(mask));
      out_indices[hits++] = static_cast<uint32_t>(i + lane);
      mask &= mask - 1;
    }
  }
  for (; i < count; ++i) {
    const Rect* rect = reinterpret_cast<const Rect*>(base + i * stride_bytes);
    if (IntersectsNonEmptyWindow(*rect, window)) out_indices[hits++] = static_cast<uint32_t>(i);
  }
  return hits;
}

bool CpuSupportsAvx2() { return __builtin_cpu_supports("avx2"); }

const KernelOps kOps = {
    &CountInWindow, &CollectInWindow,     &BatchDistance, &BatchDistancePoints,
    &BatchMinDist,  &CollectIntersecting, "avx2",
};

}  // namespace nwc::simd::avx2_impl

#endif  // defined(__AVX2__)
