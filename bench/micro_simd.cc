// Microbenchmark of the SIMD kernel layer: scalar oracle vs AVX2 for each
// kernel, over leaf-sized and sweep-sized spans.
//
// `--smoke` runs the CI regression gate instead of the timing table:
//   1. bit-exactness of every AVX2 kernel against the scalar oracle over a
//      randomized sweep (mandatory, any mismatch fails the gate);
//   2. on AVX2 hosts, a relative timing bar: the vectorized set must not
//      be slower than the scalar set beyond a small tolerance, and at
//      least one kernel must show a clear speedup. The bar is deliberately
//      loose — CI machines are noisy — but catches a dispatch regression
//      (vectorized path silently running scalar code) or a kernel that
//      degenerated to per-element work.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/float_bits.h"
#include "common/rng.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "rtree/node.h"
#include "simd/kernels.h"

namespace {

using namespace nwc;

struct Workload {
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<DataObject> objects;
  std::vector<ChildEntry> entries;
  Rect window{-250.0, -250.0, 250.0, 250.0};
  Point q{0.0, 0.0};
};

Workload MakeWorkload(size_t count, uint64_t seed) {
  Workload w;
  Rng rng(seed);
  for (size_t i = 0; i < count; ++i) {
    const double x = rng.NextDouble(-1000.0, 1000.0);
    const double y = rng.NextDouble(-1000.0, 1000.0);
    w.xs.push_back(x);
    w.ys.push_back(y);
    w.objects.push_back(DataObject{static_cast<ObjectId>(i), Point{x, y}});
    const Point other{rng.NextDouble(-1000.0, 1000.0), rng.NextDouble(-1000.0, 1000.0)};
    w.entries.push_back(ChildEntry{Rect::FromCorners(Point{x, y}, other),
                                   static_cast<NodeId>(i)});
  }
  return w;
}

double MedianSeconds(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// Times `fn` (which must consume the workload and fold into a sink) over
// `reps` repetitions, best-of-5 medians.
template <typename Fn>
double TimeKernel(const Fn& fn, int reps) {
  std::vector<double> samples;
  for (int sample = 0; sample < 5; ++sample) {
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) fn();
    const auto stop = std::chrono::steady_clock::now();
    samples.push_back(std::chrono::duration<double>(stop - start).count());
  }
  return MedianSeconds(samples);
}

struct KernelTimings {
  double count_s = 0.0;
  double collect_s = 0.0;
  double distance_s = 0.0;
  double distance_points_s = 0.0;
  double min_dist_s = 0.0;
  double intersect_s = 0.0;
};

volatile uint64_t g_sink;  // defeats dead-code elimination across timings

KernelTimings TimeOps(const simd::KernelOps& ops, const Workload& w, int reps) {
  KernelTimings t;
  const size_t n = w.xs.size();
  std::vector<uint32_t> indices(n);
  std::vector<double> out(n);
  t.count_s = TimeKernel(
      [&] { g_sink = g_sink + ops.count_in_window(w.xs.data(), w.ys.data(), n, w.window); }, reps);
  t.collect_s = TimeKernel(
      [&] {
        g_sink = g_sink + ops.collect_in_window(w.xs.data(), w.ys.data(), n, w.window, indices.data());
      },
      reps);
  t.distance_s = TimeKernel(
      [&] {
        ops.batch_distance(w.q, w.xs.data(), w.ys.data(), n, out.data());
        g_sink = g_sink + static_cast<uint64_t>(out[n / 2]);
      },
      reps);
  t.distance_points_s = TimeKernel(
      [&] {
        ops.batch_distance_points(w.q, w.objects.data(), n, out.data());
        g_sink = g_sink + static_cast<uint64_t>(out[n / 2]);
      },
      reps);
  t.min_dist_s = TimeKernel(
      [&] {
        ops.batch_min_dist(w.q, &w.entries.data()->mbr, sizeof(ChildEntry), n, out.data());
        g_sink = g_sink + static_cast<uint64_t>(out[n / 2]);
      },
      reps);
  t.intersect_s = TimeKernel(
      [&] {
        g_sink = g_sink + ops.collect_intersecting(&w.entries.data()->mbr, sizeof(ChildEntry), n,
                                                   w.window, indices.data());
      },
      reps);
  return t;
}

// Bit-exactness sweep; returns the number of mismatched outputs.
size_t CountMismatches(const simd::KernelOps& scalar, const simd::KernelOps& avx2) {
  size_t mismatches = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const Workload w = MakeWorkload(501, seed);
    const size_t n = w.xs.size();
    if (scalar.count_in_window(w.xs.data(), w.ys.data(), n, w.window) !=
        avx2.count_in_window(w.xs.data(), w.ys.data(), n, w.window)) {
      ++mismatches;
    }
    std::vector<uint32_t> idx_a(n);
    std::vector<uint32_t> idx_b(n);
    const size_t hits_a =
        scalar.collect_in_window(w.xs.data(), w.ys.data(), n, w.window, idx_a.data());
    const size_t hits_b =
        avx2.collect_in_window(w.xs.data(), w.ys.data(), n, w.window, idx_b.data());
    if (hits_a != hits_b ||
        !std::equal(idx_a.begin(), idx_a.begin() + static_cast<ptrdiff_t>(hits_a),
                    idx_b.begin())) {
      ++mismatches;
    }
    std::vector<double> out_a(n);
    std::vector<double> out_b(n);
    const auto compare_doubles = [&] {
      for (size_t i = 0; i < n; ++i) {
        if (DoubleBits(out_a[i]) != DoubleBits(out_b[i])) return false;
      }
      return true;
    };
    scalar.batch_distance(w.q, w.xs.data(), w.ys.data(), n, out_a.data());
    avx2.batch_distance(w.q, w.xs.data(), w.ys.data(), n, out_b.data());
    if (!compare_doubles()) ++mismatches;
    scalar.batch_distance_points(w.q, w.objects.data(), n, out_a.data());
    avx2.batch_distance_points(w.q, w.objects.data(), n, out_b.data());
    if (!compare_doubles()) ++mismatches;
    scalar.batch_min_dist(w.q, &w.entries.data()->mbr, sizeof(ChildEntry), n, out_a.data());
    avx2.batch_min_dist(w.q, &w.entries.data()->mbr, sizeof(ChildEntry), n, out_b.data());
    if (!compare_doubles()) ++mismatches;
    const size_t boxes_a = scalar.collect_intersecting(&w.entries.data()->mbr, sizeof(ChildEntry),
                                                       n, w.window, idx_a.data());
    const size_t boxes_b = avx2.collect_intersecting(&w.entries.data()->mbr, sizeof(ChildEntry),
                                                     n, w.window, idx_b.data());
    if (boxes_a != boxes_b ||
        !std::equal(idx_a.begin(), idx_a.begin() + static_cast<ptrdiff_t>(boxes_a),
                    idx_b.begin())) {
      ++mismatches;
    }
  }
  return mismatches;
}

void PrintRow(const char* name, double scalar_s, double avx2_s) {
  std::printf("  %-22s %10.3f ms %10.3f ms %8.2fx\n", name, scalar_s * 1e3, avx2_s * 1e3,
              avx2_s > 0 ? scalar_s / avx2_s : 0.0);
}

int RunSmoke() {
  std::printf("micro_simd --smoke: kernel bit-exactness + dispatch speed gate\n");
  std::printf("  active kernel set: %s\n", simd::ActiveKernelName());

  const simd::KernelOps* avx2 = simd::Avx2OpsOrNull();
  if (avx2 == nullptr) {
    std::printf("  AVX2 unavailable (cpu or build); scalar-only smoke passes trivially\n");
    return 0;
  }

  const size_t mismatches = CountMismatches(simd::ScalarOps(), *avx2);
  std::printf("  bit-exactness sweep: %zu mismatches\n", mismatches);
  if (mismatches != 0) {
    std::fprintf(stderr, "FAIL: avx2 kernels diverge from the scalar oracle\n");
    return 1;
  }

  // Leaf-sized spans are what the query path actually feeds the kernels.
  const Workload w = MakeWorkload(128, 42);
  constexpr int kReps = 20000;
  TimeOps(simd::ScalarOps(), w, kReps);  // warm up
  const KernelTimings scalar_t = TimeOps(simd::ScalarOps(), w, kReps);
  const KernelTimings avx2_t = TimeOps(*avx2, w, kReps);
  std::printf("  %-22s %13s %13s %9s\n", "kernel", "scalar", "avx2", "speedup");
  PrintRow("count_in_window", scalar_t.count_s, avx2_t.count_s);
  PrintRow("collect_in_window", scalar_t.collect_s, avx2_t.collect_s);
  PrintRow("batch_distance", scalar_t.distance_s, avx2_t.distance_s);
  PrintRow("batch_distance_points", scalar_t.distance_points_s, avx2_t.distance_points_s);
  PrintRow("batch_min_dist", scalar_t.min_dist_s, avx2_t.min_dist_s);
  PrintRow("collect_intersecting", scalar_t.intersect_s, avx2_t.intersect_s);

  const double scalar_total = scalar_t.count_s + scalar_t.collect_s + scalar_t.distance_s +
                              scalar_t.distance_points_s + scalar_t.min_dist_s +
                              scalar_t.intersect_s;
  const double avx2_total = avx2_t.count_s + avx2_t.collect_s + avx2_t.distance_s +
                            avx2_t.distance_points_s + avx2_t.min_dist_s + avx2_t.intersect_s;
  const double best_speedup =
      std::max({scalar_t.count_s / avx2_t.count_s, scalar_t.collect_s / avx2_t.collect_s,
                scalar_t.distance_s / avx2_t.distance_s,
                scalar_t.distance_points_s / avx2_t.distance_points_s,
                scalar_t.min_dist_s / avx2_t.min_dist_s,
                scalar_t.intersect_s / avx2_t.intersect_s});
  std::printf("  total: scalar %.3f ms, avx2 %.3f ms, best kernel speedup %.2fx\n",
              scalar_total * 1e3, avx2_total * 1e3, best_speedup);

  // Gate: vectorized must not lose overall (10%% noise allowance), and at
  // least one kernel must be clearly vectorized (>=1.3x).
  if (avx2_total > scalar_total * 1.10) {
    std::fprintf(stderr, "FAIL: avx2 kernel set slower than scalar (%.3f ms vs %.3f ms)\n",
                 avx2_total * 1e3, scalar_total * 1e3);
    return 1;
  }
  if (best_speedup < 1.3) {
    std::fprintf(stderr, "FAIL: no kernel shows a vectorized speedup (best %.2fx < 1.3x)\n",
                 best_speedup);
    return 1;
  }
  std::printf("  gate passed\n");
  return 0;
}

int RunTable() {
  std::printf("SIMD kernel microbench: scalar vs %s\n",
              simd::Avx2Supported() ? "avx2" : "avx2 (unavailable)");
  const simd::KernelOps* avx2 = simd::Avx2OpsOrNull();
  for (const size_t span : {32u, 128u, 1024u, 16384u}) {
    const Workload w = MakeWorkload(span, 42 + span);
    const int reps = static_cast<int>(4'000'000 / span) + 1;
    const KernelTimings scalar_t = TimeOps(simd::ScalarOps(), w, reps);
    const KernelTimings avx2_t = avx2 != nullptr ? TimeOps(*avx2, w, reps) : KernelTimings{};
    std::printf("span=%zu (reps=%d)\n", span, reps);
    PrintRow("count_in_window", scalar_t.count_s, avx2_t.count_s);
    PrintRow("collect_in_window", scalar_t.collect_s, avx2_t.collect_s);
    PrintRow("batch_distance", scalar_t.distance_s, avx2_t.distance_s);
    PrintRow("batch_distance_points", scalar_t.distance_points_s, avx2_t.distance_points_s);
    PrintRow("batch_min_dist", scalar_t.min_dist_s, avx2_t.min_dist_s);
    PrintRow("collect_intersecting", scalar_t.intersect_s, avx2_t.intersect_s);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return RunSmoke();
    std::fprintf(stderr, "unknown flag %s (supported: --smoke)\n", argv[i]);
    return 2;
  }
  return RunTable();
}
