// Microbenchmarks (google-benchmark): wall-clock cost of the substrate
// operations, plus an ablation the paper motivates but does not plot: the
// IWP window-query saving in isolation.

#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "common/rng.h"
#include "datasets/generators.h"
#include "rtree/bulk_load.h"
#include "rtree/iwp_index.h"
#include "rtree/queries.h"

namespace {

using namespace nwc;

std::vector<DataObject> BenchObjects(size_t count) {
  ClusteredSpec spec;
  spec.cardinality = count;
  spec.background_fraction = 0.25;
  Rng rng(7);
  for (int i = 0; i < 12; ++i) {
    spec.clusters.push_back(ClusterSpec{
        Point{rng.NextDouble(500, 9500), rng.NextDouble(500, 9500)},
        50.0 + 150.0 * rng.NextDouble(), 50.0 + 150.0 * rng.NextDouble(), 1.0});
  }
  return MakeClustered(spec, 7, "bench").objects;
}

void BM_RStarInsert(benchmark::State& state) {
  const std::vector<DataObject> objects = BenchObjects(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    RStarTree tree;
    for (const DataObject& obj : objects) tree.Insert(obj);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RStarInsert)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);

void BM_StrBulkLoad(benchmark::State& state) {
  const std::vector<DataObject> objects = BenchObjects(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    RStarTree tree = BulkLoadStr(objects, RTreeOptions{});
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StrBulkLoad)->Arg(10000)->Arg(50000)->Arg(250000)->Unit(benchmark::kMillisecond);

void BM_WindowQuery(benchmark::State& state) {
  const std::vector<DataObject> objects = BenchObjects(100000);
  const RStarTree tree = BulkLoadStr(objects, RTreeOptions{});
  Rng rng(11);
  const double side = static_cast<double>(state.range(0));
  for (auto _ : state) {
    const Point corner{rng.NextDouble(0, 10000 - side), rng.NextDouble(0, 10000 - side)};
    benchmark::DoNotOptimize(
        WindowQuery(tree, Rect::Window(corner, side, side), nullptr).size());
  }
}
BENCHMARK(BM_WindowQuery)->Arg(16)->Arg(128)->Arg(1024);

// IWP ablation: the same small window query answered from the root vs.
// through the backward/overlapping pointers of a nearby leaf.
void BM_WindowQueryFromRoot(benchmark::State& state) {
  const std::vector<DataObject> objects = BenchObjects(100000);
  const RStarTree tree = BulkLoadStr(objects, RTreeOptions{});
  const NodeId root = tree.root();
  Rng rng(13);
  uint64_t reads = 0;
  uint64_t windows = 0;
  std::vector<DataObject> hits;
  for (auto _ : state) {
    const size_t idx = rng.NextUint64(objects.size());
    const Rect window = Rect::FromPoint(objects[idx].pos).Inflated(8, 8);
    IoCounter io;
    hits.clear();
    WindowQueryFrom(tree, {&root, 1}, window, &hits, &io);
    benchmark::DoNotOptimize(hits.size());
    reads += io.window_query_reads();
    ++windows;
  }
  state.counters["node_reads_per_query"] =
      benchmark::Counter(static_cast<double>(reads) / static_cast<double>(windows));
}
BENCHMARK(BM_WindowQueryFromRoot);

void BM_WindowQueryViaIwp(benchmark::State& state) {
  const std::vector<DataObject> objects = BenchObjects(100000);
  const RStarTree tree = BulkLoadStr(objects, RTreeOptions{});
  const IwpIndex iwp = IwpIndex::Build(tree);
  // Map each object to the leaf that stores it.
  std::vector<std::pair<DataObject, NodeId>> located;
  located.reserve(objects.size());
  for (NodeId id = 0; id < tree.node_slot_count(); ++id) {
    if (!tree.IsLive(id) || !tree.node(id).is_leaf()) continue;
    for (const DataObject& object : tree.node(id).objects) located.emplace_back(object, id);
  }
  Rng rng(13);
  uint64_t reads = 0;
  uint64_t windows = 0;
  std::vector<DataObject> hits;
  for (auto _ : state) {
    const auto& [obj, leaf] = located[rng.NextUint64(located.size())];
    const Rect window = Rect::FromPoint(obj.pos).Inflated(8, 8);
    IoCounter io;
    hits.clear();
    iwp.WindowQuery(tree, leaf, window, &hits, &io);
    benchmark::DoNotOptimize(hits.size());
    reads += io.window_query_reads();
    ++windows;
  }
  state.counters["node_reads_per_query"] =
      benchmark::Counter(static_cast<double>(reads) / static_cast<double>(windows));
}
BENCHMARK(BM_WindowQueryViaIwp);

}  // namespace

BENCHMARK_MAIN();
