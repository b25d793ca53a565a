#include "simd/kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace nwc::simd {

namespace scalar_impl {

// The scalar kernels are the differential oracle: they are written in
// terms of the same inline geometry primitives (Rect::Contains, Distance,
// SquaredMinDist) the query algorithms called directly before the kernel
// layer existed, and this translation unit is compiled with
// -ffp-contract=off, so their results are the historical results.

size_t CountInWindow(const double* xs, const double* ys, size_t count, const Rect& window) {
  size_t hits = 0;
  for (size_t i = 0; i < count; ++i) {
    if (window.Contains(Point{xs[i], ys[i]})) ++hits;
  }
  return hits;
}

size_t CollectInWindow(const double* xs, const double* ys, size_t count, const Rect& window,
                       uint32_t* out_indices) {
  size_t hits = 0;
  for (size_t i = 0; i < count; ++i) {
    if (window.Contains(Point{xs[i], ys[i]})) out_indices[hits++] = static_cast<uint32_t>(i);
  }
  return hits;
}

void BatchDistance(const Point& q, const double* xs, const double* ys, size_t count,
                   double* out) {
  for (size_t i = 0; i < count; ++i) {
    out[i] = Distance(q, Point{xs[i], ys[i]});
  }
}

void BatchDistancePoints(const Point& q, const DataObject* objects, size_t count, double* out) {
  for (size_t i = 0; i < count; ++i) {
    out[i] = Distance(q, objects[i].pos);
  }
}

void BatchMinDist(const Point& q, const Rect* first, size_t stride_bytes, size_t count,
                  double* out) {
  const char* base = reinterpret_cast<const char*>(first);
  for (size_t i = 0; i < count; ++i) {
    const Rect* rect = reinterpret_cast<const Rect*>(base + i * stride_bytes);
    out[i] = MinDist(q, *rect);
  }
}

size_t CollectIntersecting(const Rect* first, size_t stride_bytes, size_t count,
                           const Rect& window, uint32_t* out_indices) {
  const char* base = reinterpret_cast<const char*>(first);
  size_t hits = 0;
  for (size_t i = 0; i < count; ++i) {
    const Rect* rect = reinterpret_cast<const Rect*>(base + i * stride_bytes);
    if (rect->Intersects(window)) out_indices[hits++] = static_cast<uint32_t>(i);
  }
  return hits;
}

}  // namespace scalar_impl

const KernelOps& ScalarOps() {
  static constexpr KernelOps kOps = {
      &scalar_impl::CountInWindow,  &scalar_impl::CollectInWindow,
      &scalar_impl::BatchDistance,  &scalar_impl::BatchDistancePoints,
      &scalar_impl::BatchMinDist,   &scalar_impl::CollectIntersecting,
      "scalar",
  };
  return kOps;
}

#if defined(NWC_HAVE_AVX2_KERNELS)
namespace avx2_impl {
// Defined in kernels_avx2.cc (compiled with -mavx2).
extern const KernelOps kOps;
bool CpuSupportsAvx2();
}  // namespace avx2_impl
#endif

const KernelOps* Avx2OpsOrNull() {
#if defined(NWC_HAVE_AVX2_KERNELS)
  if (avx2_impl::CpuSupportsAvx2()) return &avx2_impl::kOps;
#endif
  return nullptr;
}

bool Avx2Supported() { return Avx2OpsOrNull() != nullptr; }

namespace {

// True when NWC_DISABLE_AVX2 is set to anything but "" or "0"; read once.
bool DisabledByEnv() {
  static const bool disabled = [] {
    const char* value = std::getenv("NWC_DISABLE_AVX2");
    return value != nullptr && value[0] != '\0' && std::strcmp(value, "0") != 0;
  }();
  return disabled;
}

std::atomic<DispatchMode> g_mode{DispatchMode::kAuto};

}  // namespace

void SetDispatchMode(DispatchMode mode) { g_mode.store(mode, std::memory_order_release); }

DispatchMode GetDispatchMode() { return g_mode.load(std::memory_order_acquire); }

const KernelOps& Ops() {
  if (GetDispatchMode() == DispatchMode::kForceScalar || DisabledByEnv()) return ScalarOps();
  const KernelOps* avx2 = Avx2OpsOrNull();
  return avx2 != nullptr ? *avx2 : ScalarOps();
}

const char* ActiveKernelName() { return Ops().name; }

}  // namespace nwc::simd
