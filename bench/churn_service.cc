// Churn maintenance gate: incremental MVCC publishes vs rebuild-per-batch
// (CI's bench-smoke job).
//
// A dynamic deployment has two ways to keep the index stack fresh while
// data mutates: apply each batch to the writer R*-tree and publish a
// copy-on-write snapshot (SnapshotStore: tree clone, IWP build over the
// clone, frozen grid copy), or rebuild the whole stack from scratch after
// every batch (STR bulk load + IWP build + grid rebuild). Both serve
// bit-exact answers.
//
// `--smoke` replays 10% churn in batches of 5 over 20k objects through
// both strategies, running probe queries against both stacks at every
// publish point. It fails (exit 1) when incremental maintenance is not at
// least 5x faster than rebuild-per-batch, or when any probe disagrees
// between the two stacks. Any other command line prints the usage line
// and exits 2.
//
// Publish latency under live reads is perf_report's `snapshot.*` metrics
// (the ca_churn workload).

#include <cstddef>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "core/nwc_engine.h"
#include "grid/density_grid.h"
#include "rtree/bulk_load.h"
#include "rtree/iwp_index.h"
#include "service/session.h"
#include "service/snapshot.h"
#include "service/workload.h"

namespace {

using namespace nwc;
using namespace nwc::bench;

/// The rebuild-per-batch strategy's state: the flat object set plus the
/// freshly rebuilt stack. Deletes go through an id index so the rebuild
/// path isn't penalized by linear scans the strategy itself doesn't need.
struct RebuildStack {
  std::vector<DataObject> objects;
  std::unordered_map<ObjectId, size_t> index;  // id -> slot in objects
  std::unique_ptr<RStarTree> tree;
  std::unique_ptr<IwpIndex> iwp;
  std::unique_ptr<DensityGrid> grid;

  explicit RebuildStack(std::vector<DataObject> initial) : objects(std::move(initial)) {
    for (size_t i = 0; i < objects.size(); ++i) index[objects[i].id] = i;
    Rebuild(25.0);
  }

  void ApplyAndRebuild(const MutationBatch& batch, double grid_cell) {
    for (const Mutation& m : batch) {
      if (m.kind == Mutation::Kind::kInsert) {
        index[m.object.id] = objects.size();
        objects.push_back(m.object);
      } else {
        const auto it = index.find(m.object.id);
        if (it == index.end()) continue;
        const size_t slot = it->second;
        index.erase(it);
        objects[slot] = objects.back();
        index[objects[slot].id] = slot;
        objects.pop_back();
      }
    }
    Rebuild(grid_cell);
  }

  void Rebuild(double grid_cell) {
    tree = std::make_unique<RStarTree>(BulkLoadStr(objects, RTreeOptions{}));
    iwp = std::make_unique<IwpIndex>(IwpIndex::Build(*tree));
    Rect space = tree->bounds();
    if (space.IsEmpty()) space = Rect{0.0, 0.0, grid_cell, grid_cell};
    grid = std::make_unique<DensityGrid>(space, grid_cell, objects);
  }
};

struct ChurnRun {
  uint64_t incremental_us = 0;  ///< total ApplyAndPublish time
  uint64_t rebuild_us = 0;      ///< total apply+rebuild time
  size_t batches = 0;
  size_t probe_mismatches = 0;
  size_t probes = 0;
};

/// Replays `workload`'s mutations in batches of `batch_size` through both
/// strategies, timing each, and cross-checks `probes_per_batch` probe
/// queries (drawn from the workload's query steps) at every publish point.
ChurnRun RunChurn(const MutationWorkload& workload, size_t batch_size, size_t probes_per_batch) {
  Result<std::unique_ptr<SnapshotStore>> store =
      SnapshotStore::Open(BulkLoadStr(workload.initial, RTreeOptions{}), SnapshotStore::Config{});
  CheckOk(store.status(), "churn_service SnapshotStore::Open");

  RebuildStack rebuild{workload.initial};

  // Probe pool: the workload's own query steps, reused round-robin.
  std::vector<NwcQuery> probe_pool;
  for (const MutationStep& step : workload.steps) {
    if (step.is_query && !step.query.is_knwc) probe_pool.push_back(step.query.nwc);
  }

  ChurnRun run;
  size_t next_probe = 0;
  MutationBatch pending;
  const auto flush = [&] {
    if (pending.empty()) return;
    Stopwatch inc;
    SnapshotStore::SnapshotRef ref;
    CheckOk((*store)->ApplyAndPublish(pending, nullptr, &ref), "churn ApplyAndPublish");
    run.incremental_us += inc.ElapsedMicros();

    Stopwatch reb;
    rebuild.ApplyAndRebuild(pending, 25.0);
    run.rebuild_us += reb.ElapsedMicros();
    ++run.batches;
    pending.clear();

    // Bit-exactness probes: both stacks answer NWC*.
    const NwcOptions options = NwcOptions::Star();
    NwcEngine snapshot_engine(ref.session->tree(), ref.session->iwp(), ref.session->grid());
    NwcEngine rebuilt_engine(*rebuild.tree, rebuild.iwp.get(), rebuild.grid.get());
    for (size_t p = 0; p < probes_per_batch && !probe_pool.empty(); ++p) {
      const NwcQuery& query = probe_pool[next_probe++ % probe_pool.size()];
      const Result<NwcResult> a = snapshot_engine.Execute(query, options, nullptr);
      const Result<NwcResult> b = rebuilt_engine.Execute(query, options, nullptr);
      CheckOk(a.status(), "churn snapshot probe");
      CheckOk(b.status(), "churn rebuilt probe");
      ++run.probes;
      if (*a != *b) ++run.probe_mismatches;
    }
  };

  for (const MutationStep& step : workload.steps) {
    if (step.is_query) continue;
    pending.push_back(step.mutation);
    if (pending.size() >= batch_size) flush();
  }
  flush();
  return run;
}

// CI gate: incremental maintenance must beat rebuild-per-batch by >= 5x
// at 10% churn, and every probe must agree bit-exactly.
int RunSmoke() {
  std::printf("churn_service --smoke: incremental vs rebuild-per-batch gate\n");
  MutationWorkloadConfig config;
  config.steps = 1000;
  config.seed = 7;
  config.churn_ratio = 0.1;  // 100 mutations -> 20 batches of 5
  config.initial_objects = 20000;
  const MutationWorkload workload = MakeMutationWorkload(config);

  const ChurnRun run = RunChurn(workload, /*batch_size=*/5, /*probes_per_batch=*/5);
  const double speedup = run.incremental_us > 0
                             ? static_cast<double>(run.rebuild_us) /
                                   static_cast<double>(run.incremental_us)
                             : 0.0;
  std::printf("batches:      %zu\n", run.batches);
  std::printf("incremental:  %llu us total (%.0f us/batch)\n",
              static_cast<unsigned long long>(run.incremental_us),
              run.batches > 0 ? static_cast<double>(run.incremental_us) / run.batches : 0.0);
  std::printf("rebuild:      %llu us total (%.0f us/batch)\n",
              static_cast<unsigned long long>(run.rebuild_us),
              run.batches > 0 ? static_cast<double>(run.rebuild_us) / run.batches : 0.0);
  std::printf("speedup:      %.1fx\n", speedup);
  std::printf("probes:       %zu (%zu mismatch(es))\n", run.probes, run.probe_mismatches);
  if (run.probe_mismatches > 0) {
    std::fprintf(stderr, "FAIL: %zu probe(s) disagreed between snapshot and rebuild\n",
                 run.probe_mismatches);
    return 1;
  }
  if (speedup < 5.0) {
    std::fprintf(stderr, "FAIL: incremental maintenance only %.1fx faster (< 5x gate)\n",
                 speedup);
    return 1;
  }
  std::printf("PASS: bit-exact and %.1fx over the 5x gate\n", speedup);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return RunGate(argc, argv, RunSmoke); }
