// The mutation tentpole's proof: a seeded interleaved insert/delete/NWC/
// kNWC stream is replayed through the dynamic QueryService (SnapshotStore
// underneath, epoch-keyed result cache on), while a from-scratch oracle —
// BulkLoadStr over the exact live object set, full auxiliary structures —
// answers every query independently. Every answer must be bit-exact for
// the requested scheme, tree invariants must hold on every published
// snapshot, every published IWP must equal a fresh build over its tree,
// and concurrency / fault / deadline pressure must never turn a wrong
// answer into a visible one.

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/knwc_engine.h"
#include "core/nwc_engine.h"
#include "rtree/bulk_load.h"
#include "rtree/iwp_index.h"
#include "rtree/validate.h"
#include "service/query_service.h"
#include "service/session.h"
#include "service/snapshot.h"
#include "service/workload.h"

namespace nwc {
namespace {

bool SameNwc(const NwcResult& a, const NwcResult& b) {
  if (a.found != b.found) return false;
  if (!a.found) return true;
  if (a.distance != b.distance || a.objects.size() != b.objects.size()) return false;
  for (size_t i = 0; i < a.objects.size(); ++i) {
    if (!(a.objects[i] == b.objects[i])) return false;
  }
  return true;
}

bool SameKnwc(const KnwcResult& a, const KnwcResult& b) {
  if (a.groups.size() != b.groups.size()) return false;
  for (size_t i = 0; i < a.groups.size(); ++i) {
    if (a.groups[i].distance != b.groups[i].distance ||
        a.groups[i].objects.size() != b.groups[i].objects.size()) {
      return false;
    }
    for (size_t j = 0; j < a.groups[i].objects.size(); ++j) {
      if (!(a.groups[i].objects[j] == b.groups[i].objects[j])) return false;
    }
  }
  return true;
}

/// From-scratch index stack over an explicit live set. Rebuild() after the
/// live set changes; everything (tree layout, IWP, grid) is recomputed
/// from nothing, so it shares no maintenance code with the incremental
/// path under test.
struct Oracle {
  std::vector<DataObject> live;
  std::unique_ptr<Session> session;

  void Rebuild() {
    Result<Session> opened = Session::Open(BulkLoadStr(live, RTreeOptions{}));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    session = std::make_unique<Session>(std::move(*opened));
  }

  void ApplyMutation(const Mutation& m) {
    if (m.kind == Mutation::Kind::kInsert) {
      live.push_back(m.object);
      return;
    }
    for (size_t i = 0; i < live.size(); ++i) {
      if (live[i] == m.object) {
        live.erase(live.begin() + static_cast<ptrdiff_t>(i));
        return;
      }
    }
    FAIL() << "workload delete names a dead object (id " << m.object.id << ")";
  }

  NwcResult RunNwc(const NwcQuery& query, const NwcOptions& options) const {
    NwcEngine engine(session->tree(), session->iwp(), session->grid());
    Result<NwcResult> result = engine.Execute(query, options, nullptr);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *result : NwcResult{};
  }

  KnwcResult RunKnwc(const KnwcQuery& query, const NwcOptions& options) const {
    KnwcEngine engine(session->tree(), session->iwp(), session->grid());
    Result<KnwcResult> result = engine.Execute(query, options, nullptr);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *result : KnwcResult{};
  }
};

/// The published IWP must equal one built from scratch over the published
/// tree: its tables name node ids and MBRs of one exact tree.
void ExpectFreshIwp(const Session& session) {
  ASSERT_NE(session.iwp(), nullptr);
  const IwpIndex fresh = IwpIndex::Build(session.tree());
  const auto same = [](std::span<const NodePointer> a, std::span<const NodePointer> b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const NodePointer& x, const NodePointer& y) {
                        return x.node == y.node && x.mbr == y.mbr;
                      });
  };
  for (NodeId id = 0; id < session.tree().node_slot_count(); ++id) {
    ASSERT_TRUE(same(session.iwp()->BackwardPointers(id), fresh.BackwardPointers(id)))
        << "backward pointers of node " << id;
    ASSERT_TRUE(same(session.iwp()->OverlapPointers(id), fresh.OverlapPointers(id)))
        << "overlap pointers of node " << id;
  }
}

struct PresetCase {
  const char* name;
  NwcOptions options;
};

std::vector<PresetCase> Presets() {
  return {
      {"plain", NwcOptions::Plain()},
      {"dep", NwcOptions::Dep()},
      {"iwp", NwcOptions::Iwp()},
      {"star", NwcOptions::Star()},
  };
}

/// Replays `steps` interleaved steps under `preset`, comparing every query
/// against the oracle. Pending mutations are flushed through
/// QueryService::ApplyUpdate right before the next query, matching how a
/// serving deployment batches updates between reads.
void RunDifferential(const PresetCase& preset, size_t steps, uint64_t seed) {
  MutationWorkloadConfig workload_config;
  workload_config.steps = steps;
  workload_config.seed = seed;
  workload_config.initial_objects = 300;
  workload_config.churn_ratio = 0.1;
  const MutationWorkload workload = MakeMutationWorkload(workload_config);

  Result<std::unique_ptr<SnapshotStore>> store =
      SnapshotStore::Open(BulkLoadStr(workload.initial, RTreeOptions{}), SnapshotStore::Config{});
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  ServiceConfig service_config;
  service_config.num_threads = 2;
  service_config.default_options = preset.options;
  // The cache rides along on purpose: a single stale hit across any of the
  // epoch transitions below would fail the bit-exact comparison.
  service_config.result_cache_bytes = 1u << 20;
  QueryService service(**store, service_config);

  Oracle oracle;
  oracle.live = workload.initial;
  oracle.Rebuild();

  MutationBatch pending;
  size_t queries = 0;
  size_t published_batches = 0;
  for (size_t i = 0; i < workload.steps.size(); ++i) {
    const MutationStep& step = workload.steps[i];
    if (!step.is_query) {
      pending.push_back(step.mutation);
      continue;
    }
    if (!pending.empty()) {
      const size_t batch_size = pending.size();
      const UpdateResponse update = service.ApplyUpdate(pending);
      ASSERT_TRUE(update.status.ok())
          << preset.name << " step " << i << ": " << update.status.ToString();
      ASSERT_EQ(update.applied_inserts + update.applied_deletes, batch_size);
      ASSERT_EQ(update.delete_misses, 0u) << "faithful replay must never miss";
      for (const Mutation& m : pending) oracle.ApplyMutation(m);
      pending.clear();
      oracle.Rebuild();
      ++published_batches;

      // Invariants on the snapshot the service will now answer from.
      const SnapshotStore::SnapshotRef ref = (*store)->Acquire();
      ASSERT_EQ(ref.epoch, update.epoch);
      const Status valid = ValidateTree(ref.session->tree());
      ASSERT_TRUE(valid.ok()) << preset.name << " step " << i << ": " << valid.ToString();
      ASSERT_EQ(ref.session->tree().size(), oracle.live.size());
      ASSERT_NO_FATAL_FAILURE(ExpectFreshIwp(*ref.session)) << preset.name << " step " << i;
    }

    ++queries;
    if (step.query.is_knwc) {
      KnwcResponse response = service.SubmitKnwc(KnwcRequest{step.query.knwc, {}}).get();
      ASSERT_TRUE(response.status.ok())
          << preset.name << " step " << i << ": " << response.status.ToString();
      EXPECT_TRUE(SameKnwc(response.result, oracle.RunKnwc(step.query.knwc, preset.options)))
          << preset.name << " kNWC diverged at step " << i;
    } else {
      NwcResponse response = service.SubmitNwc(NwcRequest{step.query.nwc, {}}).get();
      ASSERT_TRUE(response.status.ok())
          << preset.name << " step " << i << ": " << response.status.ToString();
      EXPECT_TRUE(SameNwc(response.result, oracle.RunNwc(step.query.nwc, preset.options)))
          << preset.name << " NWC diverged at step " << i;
      // Every 16th query re-submits: the repeat must hit the epoch-keyed
      // cache and return the identical answer.
      if (queries % 16 == 0) {
        NwcResponse repeat = service.SubmitNwc(NwcRequest{step.query.nwc, {}}).get();
        ASSERT_TRUE(repeat.status.ok());
        EXPECT_TRUE(repeat.result_cache_hit) << preset.name << " step " << i;
        EXPECT_TRUE(SameNwc(repeat.result, response.result));
      }
    }
    if (::testing::Test::HasFatalFailure() || ::testing::Test::HasNonfatalFailure()) {
      return;  // first divergence identifies the step; don't flood the log
    }
  }
  EXPECT_GT(queries, steps / 2);
  EXPECT_GT(published_batches, 0u);
}

TEST(DynamicDifferentialTest, PlainPreset) { RunDifferential(Presets()[0], 2000, 101); }
TEST(DynamicDifferentialTest, DepPreset) { RunDifferential(Presets()[1], 2000, 102); }
TEST(DynamicDifferentialTest, IwpPreset) { RunDifferential(Presets()[2], 2000, 103); }
TEST(DynamicDifferentialTest, StarPreset) { RunDifferential(Presets()[3], 2000, 104); }

/// Many readers, one writer, no synchronization between them beyond the
/// store's own: every reader pins a snapshot, runs a query twice on that
/// pinned session and demands identical answers (a torn or mutated-under-
/// foot snapshot cannot answer twice identically), while the writer churns
/// epochs as fast as it can. Run under TSan in CI.
TEST(DynamicDifferentialTest, SnapshotStressManyReadersOneWriter) {
  MutationWorkloadConfig workload_config;
  workload_config.steps = 400;
  workload_config.seed = 7;
  workload_config.churn_ratio = 1.0;  // mutations only: the writer's feed
  workload_config.initial_objects = 500;
  const MutationWorkload workload = MakeMutationWorkload(workload_config);

  Result<std::unique_ptr<SnapshotStore>> store =
      SnapshotStore::Open(BulkLoadStr(workload.initial, RTreeOptions{}), SnapshotStore::Config{});
  ASSERT_TRUE(store.ok());

  // Forward batches plus their exact inverses: the writer replays
  // forward-then-backward in a loop until every reader finishes its quota,
  // so the delete-names-a-live-object invariant holds on every lap and the
  // publish rate tracks the (sanitizer-dependent) reader runtime.
  std::vector<MutationBatch> forward;
  MutationBatch batch;
  for (const MutationStep& step : workload.steps) {
    batch.push_back(step.mutation);
    if (batch.size() == 4) {
      forward.push_back(batch);
      batch.clear();
    }
  }
  std::vector<MutationBatch> inverse;
  for (auto it = forward.rbegin(); it != forward.rend(); ++it) {
    MutationBatch undo;
    for (auto m = it->rbegin(); m != it->rend(); ++m) {
      undo.push_back(m->kind == Mutation::Kind::kInsert ? Mutation::Delete(m->object)
                                                        : Mutation::Insert(m->object));
    }
    inverse.push_back(undo);
  }

  const size_t kReaders = 4;
  const size_t kReadsPerReader = 300;
  std::atomic<size_t> readers_running{kReaders};
  std::atomic<size_t> divergences{0};
  std::atomic<size_t> publishes{0};

  std::thread writer([&] {
    while (readers_running.load(std::memory_order_acquire) > 0) {
      for (const std::vector<MutationBatch>* lap : {&forward, &inverse}) {
        for (const MutationBatch& b : *lap) {
          if ((*store)->ApplyAndPublish(b, nullptr, nullptr).ok()) ++publishes;
          else ++divergences;  // faithful undo stream must never miss
          if (readers_running.load(std::memory_order_acquire) == 0) return;
        }
      }
    }
  });

  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(1000 + r);
      for (size_t i = 0; i < kReadsPerReader; ++i) {
        const SnapshotStore::SnapshotRef ref = (*store)->Acquire();
        const NwcOptions options = NwcOptions::Star();
        NwcQuery query;
        query.q = Point{rng.NextDouble(0, 1000), rng.NextDouble(0, 1000)};
        query.length = 60;
        query.width = 60;
        query.n = 3;
        NwcEngine engine(ref.session->tree(), ref.session->iwp(), ref.session->grid());
        Result<NwcResult> first = engine.Execute(query, options, nullptr);
        Result<NwcResult> second = engine.Execute(query, options, nullptr);
        if (!first.ok() || !second.ok() || !SameNwc(*first, *second)) ++divergences;
      }
      readers_running.fetch_sub(1, std::memory_order_acq_rel);
    });
  }
  for (std::thread& t : readers) t.join();
  writer.join();
  EXPECT_EQ(divergences.load(), 0u);
  EXPECT_GT(publishes.load(), 0u);
  // The writer may stop mid-lap, so the final cardinality is whatever the
  // last published batch left — only the structural invariants are stable.
  EXPECT_TRUE(ValidateTree((*store)->Acquire().session->tree()).ok());
}

/// Property sweep: under injected I/O faults with bounded retries AND a
/// tight default deadline, a churning service must only ever produce (a)
/// bit-exact answers or (b) typed errors — never a silently wrong result.
TEST(DynamicDifferentialTest, FaultAndDeadlineSweepNeverWrong) {
  MutationWorkloadConfig workload_config;
  workload_config.steps = 600;
  workload_config.seed = 55;
  workload_config.initial_objects = 250;
  const MutationWorkload workload = MakeMutationWorkload(workload_config);

  Result<std::unique_ptr<SnapshotStore>> store =
      SnapshotStore::Open(BulkLoadStr(workload.initial, RTreeOptions{}), SnapshotStore::Config{});
  ASSERT_TRUE(store.ok());

  ServiceConfig service_config;
  service_config.num_threads = 2;
  service_config.default_options = NwcOptions::Star();
  service_config.fault_plan = FaultPlan::Bernoulli(0.02, 9);
  service_config.max_retries = 2;
  service_config.retry_backoff_micros = 1;
  service_config.default_deadline_micros = 5000;  // tight but mostly met
  service_config.result_cache_bytes = 1u << 20;
  QueryService service(**store, service_config);

  Oracle oracle;
  oracle.live = workload.initial;
  oracle.Rebuild();

  MutationBatch pending;
  size_t ok_answers = 0;
  size_t typed_errors = 0;
  for (const MutationStep& step : workload.steps) {
    if (!step.is_query) {
      pending.push_back(step.mutation);
      continue;
    }
    if (!pending.empty()) {
      ASSERT_TRUE(service.ApplyUpdate(pending).status.ok());
      for (const Mutation& m : pending) oracle.ApplyMutation(m);
      pending.clear();
      oracle.Rebuild();
    }
    if (step.query.is_knwc) continue;  // NWC-only keeps the sweep fast

    const NwcResponse response = service.SubmitNwc(NwcRequest{step.query.nwc, {}}).get();
    if (response.status.ok()) {
      ++ok_answers;
      EXPECT_TRUE(SameNwc(response.result, oracle.RunNwc(step.query.nwc, NwcOptions::Star())))
          << "fault/deadline pressure produced a WRONG answer (not an error)";
    } else {
      ++typed_errors;
      const StatusCode code = response.status.code();
      EXPECT_TRUE(code == StatusCode::kIoError || code == StatusCode::kDeadlineExceeded)
          << response.status.ToString();
    }
    if (::testing::Test::HasFatalFailure() || ::testing::Test::HasNonfatalFailure()) return;
  }
  // With p=0.02 and 2 retries most queries succeed; the sweep must have
  // exercised the success path heavily (errors are environment-dependent).
  EXPECT_GT(ok_answers, 100u);
}

}  // namespace
}  // namespace nwc
