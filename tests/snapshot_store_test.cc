// SnapshotStore semantics: epoch-based copy-on-write publishing, snapshot
// lifetime pinned by readers, every epoch carrying the whole index stack,
// the rejection of non-finite mutations, and the service-level guarantees
// built on top — epoch-keyed result-cache correctness under real mutations
// (positive and negative entries), and a service built over a plain
// Session taking updates through a store of its own without touching the
// caller's Session.

#include <future>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/nwc_engine.h"
#include "rtree/bulk_load.h"
#include "rtree/validate.h"
#include "service/query_service.h"
#include "service/snapshot.h"

namespace nwc {
namespace {

std::vector<DataObject> UniformObjects(size_t count, uint64_t seed, double span = 100.0) {
  Rng rng(seed);
  std::vector<DataObject> objects;
  objects.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    objects.push_back(DataObject{static_cast<ObjectId>(i),
                                 Point{rng.NextDouble(0, span), rng.NextDouble(0, span)}});
  }
  return objects;
}

std::unique_ptr<SnapshotStore> OpenStore(const std::vector<DataObject>& objects) {
  Result<std::unique_ptr<SnapshotStore>> store =
      SnapshotStore::Open(BulkLoadStr(objects, RTreeOptions{}), SnapshotStore::Config{});
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(*store);
}

NwcResult RunQuery(const Session& session, const NwcQuery& query, const NwcOptions& options) {
  NwcEngine engine(session.tree(), session.iwp(), session.grid());
  Result<NwcResult> result = engine.Execute(query, options, nullptr);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

std::vector<NwcQuery> ProbeQueries() {
  std::vector<NwcQuery> queries;
  for (int i = 0; i < 12; ++i) {
    queries.push_back(NwcQuery{Point{8.0 * i, 95.0 - 7.0 * i}, 12.0, 10.0, static_cast<size_t>(3 + i % 3)});
  }
  return queries;
}

TEST(SnapshotStoreTest, OpenPublishesEpochOne) {
  auto store = OpenStore(UniformObjects(50, 1));
  EXPECT_EQ(store->epoch(), 1u);
  const SnapshotStore::SnapshotRef ref = store->Acquire();
  ASSERT_NE(ref.session, nullptr);
  EXPECT_EQ(ref.epoch, 1u);
  EXPECT_EQ(ref.session->tree().size(), 50u);
  EXPECT_NE(ref.session->iwp(), nullptr);
  EXPECT_NE(ref.session->grid(), nullptr);
  EXPECT_TRUE(ValidateTree(ref.session->tree()).ok());
}

TEST(SnapshotStoreTest, ApplyIsInvisibleUntilPublish) {
  auto store = OpenStore(UniformObjects(50, 2));
  MutationBatch batch{Mutation::Insert(DataObject{1000, Point{50, 50}})};
  ASSERT_TRUE(store->Apply(batch).ok());
  EXPECT_EQ(store->writer_object_count(), 51u);
  EXPECT_EQ(store->Acquire().session->tree().size(), 50u);  // readers see epoch 1
  EXPECT_EQ(store->epoch(), 1u);

  const SnapshotStore::SnapshotRef ref = store->Publish();
  EXPECT_EQ(ref.epoch, 2u);
  EXPECT_EQ(ref.session->tree().size(), 51u);
}

TEST(SnapshotStoreTest, PublishWithoutMutationsReturnsCurrentSnapshot) {
  auto store = OpenStore(UniformObjects(20, 3));
  const SnapshotStore::SnapshotRef before = store->Acquire();
  const SnapshotStore::SnapshotRef again = store->Publish();
  EXPECT_EQ(again.epoch, 1u);
  EXPECT_EQ(again.session.get(), before.session.get());  // no clone happened

  SnapshotStore::SnapshotRef out;
  ASSERT_TRUE(store->ApplyAndPublish(MutationBatch{}, nullptr, &out).ok());
  EXPECT_EQ(out.epoch, 1u);
}

TEST(SnapshotStoreTest, ReaderHoldingOldEpochGetsBitExactOldAnswers) {
  const std::vector<DataObject> objects = UniformObjects(200, 4);
  auto store = OpenStore(objects);
  const NwcQuery query{Point{50, 50}, 20, 20, 4};

  const SnapshotStore::SnapshotRef old_ref = store->Acquire();
  const NwcResult before = RunQuery(*old_ref.session, query, NwcOptions::Star());

  // Pile mutations right into the query window across several publishes.
  for (int round = 0; round < 3; ++round) {
    MutationBatch batch;
    for (int i = 0; i < 10; ++i) {
      batch.push_back(Mutation::Insert(DataObject{
          static_cast<ObjectId>(5000 + round * 10 + i),
          Point{45.0 + i * 0.5, 45.0 + round * 0.5}}));
    }
    ASSERT_TRUE(store->ApplyAndPublish(batch, nullptr, nullptr).ok());
  }
  EXPECT_EQ(store->epoch(), 4u);

  // The pinned epoch-1 session answers exactly as before the churn...
  const NwcResult after = RunQuery(*old_ref.session, query, NwcOptions::Star());
  EXPECT_TRUE(before == after);
  // ...while the current epoch sees the new, denser data.
  const NwcResult fresh = RunQuery(*store->Acquire().session, query, NwcOptions::Star());
  ASSERT_TRUE(fresh.found);
  EXPECT_LE(fresh.distance, before.found ? before.distance : 1e300);
}

TEST(SnapshotStoreTest, OldSessionDestroyedOnlyAfterLastReaderReleases) {
  auto store = OpenStore(UniformObjects(30, 5));
  SnapshotStore::SnapshotRef ref = store->Acquire();
  std::weak_ptr<const Session> watch = ref.session;

  ASSERT_TRUE(store
                  ->ApplyAndPublish(
                      MutationBatch{Mutation::Insert(DataObject{999, Point{1, 1}})},
                      nullptr, nullptr)
                  .ok());
  // Epoch 2 is published, but the reader still pins epoch 1.
  EXPECT_FALSE(watch.expired());
  ref.session.reset();
  EXPECT_TRUE(watch.expired());
}

TEST(SnapshotStoreTest, DeleteMissReportsNotFoundButAppliesRest) {
  auto store = OpenStore(UniformObjects(10, 6));
  const SnapshotStore::SnapshotRef before = store->Acquire();
  const DataObject real = [&] {
    // Any stored object: collect from the published tree.
    return CollectTreeObjects(before.session->tree()).front();
  }();

  MutationBatch batch{
      Mutation::Delete(DataObject{4242, Point{3, 3}}),  // no such object
      Mutation::Delete(real),
      Mutation::Insert(DataObject{777, Point{7, 7}}),
  };
  SnapshotStore::ApplyStats stats;
  SnapshotStore::SnapshotRef out;
  const Status status = store->ApplyAndPublish(batch, &stats, &out);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.deletes, 1u);
  EXPECT_EQ(stats.delete_misses, 1u);
  EXPECT_EQ(out.session->tree().size(), 10u);  // -1 +1
  EXPECT_TRUE(ValidateTree(out.session->tree()).ok());
}

TEST(SnapshotStoreTest, EpochOneStaysPinnedAndBitExactAfterTheFirstPublish) {
  const std::vector<DataObject> objects = UniformObjects(300, 12);
  auto store = OpenStore(objects);
  const SnapshotStore::SnapshotRef epoch_one = store->Acquire();
  const std::vector<NwcQuery> probes = ProbeQueries();
  std::vector<NwcResult> before;
  for (const NwcQuery& probe : probes) {
    before.push_back(RunQuery(*epoch_one.session, probe, NwcOptions::Star()));
  }

  // The first Apply builds the writer from epoch 1; Publish clones it.
  MutationBatch batch;
  for (int i = 0; i < 6; ++i) {
    batch.push_back(Mutation::Insert(
        DataObject{static_cast<ObjectId>(7000 + i), Point{2.0 + 0.5 * i, 94.0}}));
  }
  batch.push_back(Mutation::Delete(objects[3]));
  ASSERT_TRUE(store->Apply(batch).ok());
  EXPECT_EQ(store->writer_object_count(), objects.size() + 5);
  const SnapshotStore::SnapshotRef epoch_two = store->Publish();
  ASSERT_EQ(epoch_two.epoch, 2u);
  EXPECT_NE(epoch_two.session.get(), epoch_one.session.get());
  EXPECT_EQ(epoch_two.session->tree().size(), objects.size() + 5);

  // Epoch 1 is untouched: same size, valid, and bit-exact against both its
  // own earlier answers and a from-scratch stack over the original data.
  EXPECT_EQ(epoch_one.session->tree().size(), objects.size());
  EXPECT_TRUE(ValidateTree(epoch_one.session->tree()).ok());
  EXPECT_EQ(epoch_one.session->grid()->total_count(), objects.size());
  Result<Session> oracle = Session::Open(BulkLoadStr(objects, RTreeOptions{}));
  ASSERT_TRUE(oracle.ok());
  for (size_t i = 0; i < probes.size(); ++i) {
    const NwcResult pinned = RunQuery(*epoch_one.session, probes[i], NwcOptions::Star());
    EXPECT_TRUE(pinned == before[i]) << "probe " << i;
    EXPECT_TRUE(pinned == RunQuery(*oracle, probes[i], NwcOptions::Star()))
        << "probe " << i;
  }
}

// Every stack carries the tree, the IWP index and the density grid: an
// opened Session, a store's borrowed epoch 1 and every publish.
TEST(SnapshotStoreTest, EveryEpochCarriesTheWholeStack) {
  const std::vector<DataObject> objects = UniformObjects(50, 8);
  Result<Session> session = Session::Open(BulkLoadStr(objects, RTreeOptions{}));
  ASSERT_TRUE(session.ok());
  EXPECT_NE(session->iwp(), nullptr);
  EXPECT_NE(session->grid(), nullptr);

  SnapshotStore store(*session);
  const SnapshotStore::SnapshotRef borrowed = store.Acquire();
  EXPECT_EQ(borrowed.session.get(), &*session);
  EXPECT_NE(borrowed.session->iwp(), nullptr);
  EXPECT_NE(borrowed.session->grid(), nullptr);

  ASSERT_TRUE(store.ApplyAndPublish(MutationBatch{Mutation::Insert(DataObject{50, Point{2, 2}})},
                                    nullptr, nullptr)
                  .ok());
  const SnapshotStore::SnapshotRef published = store.Acquire();
  ASSERT_EQ(published.epoch, 2u);
  EXPECT_NE(published.session->iwp(), nullptr);
  ASSERT_NE(published.session->grid(), nullptr);
  EXPECT_EQ(published.session->grid()->total_count(), objects.size() + 1);
}

// A batch holding a non-finite position is rejected whole, through Apply
// and ApplyAndPublish alike: none of its mutations reaches the writer, no
// epoch is published (not even one carrying earlier unpublished work), and
// every answer stays the same.
TEST(SnapshotStoreTest, NonFiniteMutationRejectsTheWholeBatch) {
  const std::vector<DataObject> objects = UniformObjects(200, 10);
  auto store = OpenStore(objects);
  const std::vector<NwcQuery> probes = ProbeQueries();
  std::vector<NwcResult> before;
  for (const NwcQuery& probe : probes) {
    before.push_back(RunQuery(*store->Acquire().session, probe, NwcOptions::Star()));
  }
  const DataObject pending{1000, Point{50, 50}};
  ASSERT_TRUE(store->Apply(MutationBatch{Mutation::Insert(pending)}).ok());

  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const Point bad : {Point{kNan, 5}, Point{5, kNan}, Point{kInf, 5}, Point{5, -kInf}}) {
    SCOPED_TRACE(testing::Message() << "(" << bad.x << ", " << bad.y << ")");
    const MutationBatch batch{Mutation::Insert(DataObject{1001, Point{40, 40}}),
                              Mutation::Insert(DataObject{1002, bad}),
                              Mutation::Delete(objects[0])};
    SnapshotStore::ApplyStats stats;
    SnapshotStore::SnapshotRef out;
    const Status published = store->ApplyAndPublish(batch, &stats, &out);
    EXPECT_EQ(published.code(), StatusCode::kInvalidArgument) << published;
    EXPECT_EQ(stats.inserts + stats.deletes + stats.delete_misses, 0u);
    EXPECT_EQ(out.epoch, 1u);
    EXPECT_EQ(store->Apply(batch).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(store->epoch(), 1u);
    EXPECT_EQ(store->writer_object_count(), objects.size() + 1);
  }
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_TRUE(RunQuery(*store->Acquire().session, probes[i], NwcOptions::Star()) == before[i])
        << "probe " << i;
  }
  // The earlier unpublished insert is still the writer's, and publishes.
  const SnapshotStore::SnapshotRef next = store->Publish();
  EXPECT_EQ(next.epoch, 2u);
  EXPECT_EQ(next.session->tree().size(), objects.size() + 1);
  EXPECT_TRUE(ValidateTree(next.session->tree()).ok());
}

// ---- service-level guarantees -------------------------------------------

ServiceConfig CachedServiceConfig() {
  ServiceConfig config;
  config.num_threads = 2;
  config.queue_capacity = 64;
  config.default_options = NwcOptions::Star();
  config.result_cache_bytes = 4u << 20;
  return config;
}

TEST(DynamicServiceTest, SessionBuiltServiceAcceptsUpdatesAndLeavesTheSessionAlone) {
  const std::vector<DataObject> objects = UniformObjects(250, 9);
  Result<Session> session = Session::Open(BulkLoadStr(objects, RTreeOptions{}));
  ASSERT_TRUE(session.ok());
  const std::vector<NwcQuery> probes = ProbeQueries();
  std::vector<NwcResult> direct_before;
  for (const NwcQuery& probe : probes) {
    direct_before.push_back(RunQuery(*session, probe, NwcOptions::Star()));
  }

  QueryService service(*session, CachedServiceConfig());
  // A cluster next to the first probe, plus a delete of a stored object.
  MutationBatch batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(Mutation::Insert(
        DataObject{static_cast<ObjectId>(5000 + i), Point{1.0 + 0.5 * i, 95.0}}));
  }
  batch.push_back(Mutation::Delete(objects[17]));
  const UpdateResponse update = service.ApplyUpdate(batch);
  ASSERT_TRUE(update.status.ok()) << update.status.ToString();
  EXPECT_EQ(update.epoch, 2u);
  EXPECT_EQ(update.applied_inserts, 4u);
  EXPECT_EQ(update.applied_deletes, 1u);

  // Epoch 2 answers bit-exactly against a stack rebuilt with the mutation.
  std::vector<DataObject> mutated(objects.begin(), objects.end());
  mutated.erase(mutated.begin() + 17);
  for (const Mutation& m : batch) {
    if (m.kind == Mutation::Kind::kInsert) mutated.push_back(m.object);
  }
  Result<Session> oracle = Session::Open(BulkLoadStr(mutated, RTreeOptions{}));
  ASSERT_TRUE(oracle.ok());
  for (size_t i = 0; i < probes.size(); ++i) {
    const NwcResponse served = service.SubmitNwc(NwcRequest{probes[i], {}}).get();
    ASSERT_TRUE(served.status.ok()) << served.status.ToString();
    EXPECT_TRUE(served.result == RunQuery(*oracle, probes[i], NwcOptions::Star()))
        << "probe " << i;
  }

  // The caller's Session was cloned, never mutated.
  EXPECT_EQ(session->tree().size(), objects.size());
  EXPECT_TRUE(ValidateTree(session->tree()).ok());
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_TRUE(RunQuery(*session, probes[i], NwcOptions::Star()) == direct_before[i])
        << "probe " << i;
  }
}

TEST(DynamicServiceTest, CachedAnswersNeverSurviveAPublish) {
  // Seed data so sparse that no 8x8 window anywhere holds 3 objects: the
  // first query is "not found" — exercising the negative cache — until
  // inserts create a qualifying cluster.
  std::vector<DataObject> sparse;
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 6; ++j) {
      sparse.push_back(DataObject{static_cast<ObjectId>(i * 6 + j),
                                  Point{i * 50.0, j * 50.0}});
    }
  }
  auto store = OpenStore(sparse);
  QueryService service(*store, CachedServiceConfig());

  const NwcQuery probe{Point{10, 10}, 8, 8, 3};
  NwcResponse first = service.SubmitNwc(NwcRequest{probe, {}}).get();
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.result.found);

  // Same query again: served from the cache (negative entry).
  NwcResponse cached = service.SubmitNwc(NwcRequest{probe, {}}).get();
  ASSERT_TRUE(cached.status.ok());
  EXPECT_TRUE(cached.result_cache_hit);
  EXPECT_FALSE(cached.result.found);

  // Publish objects inside the probe window; the cached negative answer
  // must not survive the epoch change.
  MutationBatch batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(Mutation::Insert(
        DataObject{static_cast<ObjectId>(100 + i), Point{9.0 + i * 0.5, 10.0}}));
  }
  const UpdateResponse update = service.ApplyUpdate(batch);
  ASSERT_TRUE(update.status.ok()) << update.status.ToString();
  EXPECT_EQ(update.epoch, 2u);
  EXPECT_EQ(update.applied_inserts, 4u);

  NwcResponse after = service.SubmitNwc(NwcRequest{probe, {}}).get();
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.result_cache_hit);  // new epoch keys a fresh entry
  EXPECT_TRUE(after.result.found);
  ASSERT_EQ(after.result.objects.size(), 3u);

  // And the new answer is itself cacheable under the new epoch.
  NwcResponse again = service.SubmitNwc(NwcRequest{probe, {}}).get();
  ASSERT_TRUE(again.status.ok());
  EXPECT_TRUE(again.result_cache_hit);
  EXPECT_TRUE(after.result == again.result);
}

TEST(DynamicServiceTest, PositiveCachedAnswerTracksMutations) {
  const std::vector<DataObject> objects = UniformObjects(150, 11);
  auto store = OpenStore(objects);
  QueryService service(*store, CachedServiceConfig());

  // Probe from outside the data space so the best group sits at a strictly
  // positive distance (a window containing q would answer 0 under the
  // nearest-window measure and mask any improvement).
  const NwcQuery probe{Point{150, 150}, 10, 10, 4};
  const NwcResponse first = service.SubmitNwc(NwcRequest{probe, {}}).get();
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(first.result.found);
  ASSERT_GT(first.result.distance, 0.0);

  // A tight cluster just next to the query point must become the new best
  // group at a smaller distance.
  MutationBatch batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(Mutation::Insert(DataObject{
        static_cast<ObjectId>(800 + i), Point{145.0 + i * 0.01, 150.0}}));
  }
  ASSERT_TRUE(service.ApplyUpdate(batch).status.ok());

  const NwcResponse after = service.SubmitNwc(NwcRequest{probe, {}}).get();
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.result_cache_hit);
  ASSERT_TRUE(after.result.found);
  EXPECT_LT(after.result.distance, first.result.distance);

  // Oracle: rebuilt-from-scratch stack over the published data agrees.
  Result<Session> oracle = Session::Open(BulkLoadStr(
      CollectTreeObjects(store->Acquire().session->tree()), RTreeOptions{}));
  ASSERT_TRUE(oracle.ok());
  EXPECT_TRUE(after.result == RunQuery(*oracle, probe, NwcOptions::Star()));
}

}  // namespace
}  // namespace nwc
