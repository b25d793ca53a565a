#include "perf/inputs.h"

#include <algorithm>

#include "datasets/generators.h"

namespace nwc::perf {
namespace {

// The dataset seed every bench/ program shares (bench/bench_common.h).
constexpr uint64_t kDatasetSeed = 20160315;

}  // namespace

Dataset CaDataset(size_t cardinality) { return MakeCaLike(kDatasetSeed, cardinality); }

Dataset NyDataset(size_t cardinality) { return MakeNyLike(kDatasetSeed, cardinality); }

uint64_t StreamSeed(uint64_t seed, Stream stream) {
  // SplitMix64 finalizer over (seed, stream): nearby seeds and streams map
  // to unrelated generator states.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull +
               static_cast<uint64_t>(stream) * 0xD1B54A32D192ED03ull + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

WorkloadEntry MakeEntry(const Point& q, bool knwc) {
  WorkloadEntry entry;
  entry.is_knwc = knwc;
  entry.nwc = NwcQuery{q, kWindow, kWindow, kGroupSize};
  entry.knwc = KnwcQuery{entry.nwc, kKnwcK, kKnwcM};
  return entry;
}

std::vector<WorkloadEntry> MakeEntries(const std::vector<Point>& points, size_t knwc_every) {
  std::vector<WorkloadEntry> entries;
  entries.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    entries.push_back(MakeEntry(points[i], i % knwc_every == 0));
  }
  return entries;
}

Point PointStream::Next() {
  return Point{rng_.NextDouble(space_.min_x, space_.max_x),
               rng_.NextDouble(space_.min_y, space_.max_y)};
}

std::vector<Point> UniformPoints(const Rect& space, size_t count, uint64_t seed) {
  PointStream stream(space, seed);
  std::vector<Point> points(count);
  for (Point& p : points) p = stream.Next();
  return points;
}

ChurnStream::ChurnStream(std::vector<DataObject> initial, uint64_t seed)
    : live_(std::move(initial)), rng_(seed) {
  for (const DataObject& object : live_) next_id_ = std::max(next_id_, object.id + 1);
}

MutationBatch ChurnStream::Next(size_t size) {
  MutationBatch batch;
  batch.reserve(2 * (size / 2));
  // Deletes are drawn (and removed) before this batch's inserts exist, so
  // every delete names an object live when the batch is applied.
  for (size_t i = 0; i < size / 2 && !live_.empty(); ++i) {
    const size_t victim = rng_.NextUint64(live_.size());
    batch.push_back(Mutation::Delete(live_[victim]));
    live_[victim] = live_.back();
    live_.pop_back();
  }
  const size_t deletes = batch.size();
  for (size_t i = 0; i < deletes; ++i) {
    const DataObject object{next_id_++, batch[i].object.pos};
    batch.push_back(Mutation::Insert(object));
    live_.push_back(object);
  }
  return batch;
}

}  // namespace nwc::perf
