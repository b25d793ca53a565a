#ifndef NWC_PERF_REPORT_PERF_INPUTS_H_
#define NWC_PERF_REPORT_PERF_INPUTS_H_

// Seeded inputs for the perf_report workloads. Everything a run sends —
// query points, the hot pool, the cold stream, mutation batches — derives
// from the run's --seed; the datasets themselves are the fixed CA/NY
// stand-ins every bench/ program uses, so two seeds measure the same data
// under different traffic.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "datasets/dataset.h"
#include "geometry/rect.h"
#include "service/snapshot.h"
#include "service/workload.h"

namespace nwc::perf {

/// Paper defaults (Sec. 5): n = 8, l = w = 8, grid cell 25; kNWC k = 4,
/// m = 2. Every query runs NWC*.
inline constexpr size_t kGroupSize = 8;
inline constexpr double kWindow = 8.0;
inline constexpr double kGridCell = 25.0;
inline constexpr size_t kKnwcK = 4;
inline constexpr size_t kKnwcM = 2;

/// The CA-like / NY-like stand-ins at `cardinality` objects (the paper's
/// 62,556 and 255,259 unless a quick run shrinks them).
Dataset CaDataset(size_t cardinality);
Dataset NyDataset(size_t cardinality);

/// The independent input streams of one run.
enum class Stream : uint64_t {
  kQueries = 1,  ///< a workload's query list
  kHotPool,      ///< ca_hot_served's 256 repeated queries
  kTraffic,      ///< ca_hot_served's hot/cold draws and kinds
  kCold,         ///< ca_hot_served's never-repeated query points
  kChurn,        ///< the churn writer's (and snapshot twin's) batches
};

/// Seed of `stream` in a run with seed `seed`.
uint64_t StreamSeed(uint64_t seed, Stream stream);

/// One query at `q` with the paper defaults.
WorkloadEntry MakeEntry(const Point& q, bool knwc);

/// One query per point; entries whose index is a multiple of `knwc_every`
/// are kNWC.
std::vector<WorkloadEntry> MakeEntries(const std::vector<Point>& points, size_t knwc_every);

/// Fresh uniform query points over `space`, drawn in sequence: a run takes
/// as many as it needs and never sees one twice.
class PointStream {
 public:
  PointStream(const Rect& space, uint64_t seed) : space_(space), rng_(seed) {}
  Point Next();

 private:
  Rect space_;
  Rng rng_;
};

/// The first `count` points of PointStream(space, seed).
std::vector<Point> UniformPoints(const Rect& space, size_t count, uint64_t seed);

/// The churn writer's mutation stream: each batch deletes size / 2
/// distinct live objects, then inserts as many fresh ids at the deleted
/// positions. The tree and every published epoch change, but the point set
/// the queries see does not, so read cost does not drift with which
/// hotspots a seed happens to thin. The stream tracks the live set, so an
/// oracle can be rebuilt from it after any prefix of batches.
class ChurnStream {
 public:
  ChurnStream(std::vector<DataObject> initial, uint64_t seed);

  MutationBatch Next(size_t size);
  const std::vector<DataObject>& live() const { return live_; }

 private:
  std::vector<DataObject> live_;
  Rng rng_;
  ObjectId next_id_ = 0;
};

}  // namespace nwc::perf

#endif  // NWC_PERF_REPORT_PERF_INPUTS_H_
