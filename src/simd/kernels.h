#ifndef NWC_SIMD_KERNELS_H_
#define NWC_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "geometry/point.h"
#include "geometry/rect.h"

/// Vectorized hot-path kernels over structure-of-arrays data.
///
/// The per-object work of every query algorithm — window containment over
/// leaf points, point-to-query distances for the best-first traversal,
/// MINDIST-to-rect over child MBRs and the child-MBR intersection test of
/// window walks — runs through this layer. Each kernel
/// exists twice: a scalar implementation (built from the exact same
/// geometry primitives the query code used before this layer existed) and
/// an AVX2 implementation compiled into a separate translation unit with
/// -mavx2. Which one runs is decided once per process by runtime CPUID
/// dispatch; the scalar build is kept forever as the differential oracle.
///
/// Bit-exactness contract: for identical inputs the AVX2 kernels return
/// bit-identical outputs to the scalar kernels. Both translation units are
/// compiled with -ffp-contract=off (no FMA fusion), AVX2 lane operations
/// (add/sub/mul/max/sqrt/compare) are IEEE-754 exact or correctly rounded
/// exactly like their scalar counterparts, and every kernel performs the
/// same operations in the same per-element order. The differential test
/// suite and the micro-bench --smoke gate enforce this.
///
/// Escape hatch: setting the environment variable NWC_DISABLE_AVX2 (to any
/// value other than "0" or empty) forces the scalar kernels regardless of
/// CPU support; SetDispatchMode() does the same programmatically for tests.
namespace nwc::simd {

/// Function table of one kernel implementation set.
struct KernelOps {
  /// Number of points (xs[i], ys[i]) inside `window`, boundary inclusive.
  size_t (*count_in_window)(const double* xs, const double* ys, size_t count,
                            const Rect& window);
  /// Writes the indices of the points inside `window` to `out_indices` in
  /// ascending index order; returns how many were written. `out_indices`
  /// must have room for `count` entries.
  size_t (*collect_in_window)(const double* xs, const double* ys, size_t count,
                              const Rect& window, uint32_t* out_indices);
  /// out[i] = Distance(q, {xs[i], ys[i]}).
  void (*batch_distance)(const Point& q, const double* xs, const double* ys, size_t count,
                         double* out);
  /// out[i] = Distance(q, objects[i].pos) over an array-of-structs span.
  void (*batch_distance_points)(const Point& q, const DataObject* objects, size_t count,
                                double* out);
  /// out[i] = MinDist(q, rect_i) where rect_i lives at
  /// `stride_bytes * i` past `first` (strided so child-MBR arrays whose
  /// elements embed a Rect as their first member can be scanned in place).
  void (*batch_min_dist)(const Point& q, const Rect* first, size_t stride_bytes, size_t count,
                         double* out);
  /// Writes the indices i of the strided rects (laid out as for
  /// batch_min_dist) with rect_i.Intersects(window) to `out_indices` in
  /// ascending order; returns how many were written. Empty rects and an
  /// empty window intersect nothing. `out_indices` must have room for
  /// `count` entries.
  size_t (*collect_intersecting)(const Rect* first, size_t stride_bytes, size_t count,
                                 const Rect& window, uint32_t* out_indices);
  /// Human-readable implementation name ("scalar", "avx2").
  const char* name;
};

/// The scalar implementation set — the differential oracle.
const KernelOps& ScalarOps();

/// The AVX2 implementation set, or nullptr when the binary was built
/// without AVX2 support or the CPU lacks it.
const KernelOps* Avx2OpsOrNull();

/// True when the AVX2 kernels are compiled in and the CPU supports them
/// (independent of the dispatch mode / escape hatch).
bool Avx2Supported();

/// Dispatch policy. kAuto picks AVX2 when supported (unless the
/// NWC_DISABLE_AVX2 environment variable is set); kForceScalar always runs
/// the oracle.
enum class DispatchMode { kAuto, kForceScalar };

/// Overrides the dispatch decision process-wide. Intended for tests and
/// the scalar-fallback CI leg; not meant to be flipped while queries are
/// in flight (the switch itself is atomic, but in-flight queries may mix
/// implementations — harmless, since both are bit-exact, just confusing
/// to benchmark).
void SetDispatchMode(DispatchMode mode);
DispatchMode GetDispatchMode();

/// The implementation set queries run on under the current mode.
const KernelOps& Ops();

/// Name of the active implementation ("avx2" or "scalar").
const char* ActiveKernelName();

// Convenience wrappers through the active dispatch table.
inline size_t CollectInWindow(const double* xs, const double* ys, size_t count,
                              const Rect& window, uint32_t* out_indices) {
  return Ops().collect_in_window(xs, ys, count, window, out_indices);
}
inline void BatchDistance(const Point& q, const double* xs, const double* ys, size_t count,
                          double* out) {
  Ops().batch_distance(q, xs, ys, count, out);
}
inline void BatchDistancePoints(const Point& q, const DataObject* objects, size_t count,
                                double* out) {
  Ops().batch_distance_points(q, objects, count, out);
}
inline void BatchMinDist(const Point& q, const Rect* first, size_t stride_bytes, size_t count,
                         double* out) {
  Ops().batch_min_dist(q, first, stride_bytes, count, out);
}
inline size_t CollectIntersecting(const Rect* first, size_t stride_bytes, size_t count,
                                  const Rect& window, uint32_t* out_indices) {
  return Ops().collect_intersecting(first, stride_bytes, count, window, out_indices);
}

}  // namespace nwc::simd

#endif  // NWC_SIMD_KERNELS_H_
