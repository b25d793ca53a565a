// ResultCache correctness: key canonicalization, LRU eviction under byte
// pressure, generational invalidation, and — the gate the cache must pass
// before it may serve production traffic — a 500+ query differential
// replay proving that a cached service returns bit-identical results to
// an uncached one across the paper's option presets, and that aborted
// queries never populate the cache.

#include "service/result_cache.h"

#include <cmath>
#include <future>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/generators.h"
#include "response_compare.h"
#include "rtree/bulk_load.h"
#include "service/query_service.h"
#include "submit_all.h"

namespace nwc {
namespace {

constexpr uint64_t kSeed = 20160315;

NwcQuery MakeQuery(double x, double y, double l = 200, double w = 200, size_t n = 4) {
  return NwcQuery{Point{x, y}, l, w, n};
}

NwcResult MakeResult(uint32_t first_id, size_t count) {
  NwcResult result;
  result.found = count > 0;
  result.distance = static_cast<double>(first_id);
  for (size_t i = 0; i < count; ++i) {
    result.objects.push_back(DataObject{first_id + static_cast<uint32_t>(i),
                                        Point{static_cast<double>(i), static_cast<double>(i)}});
  }
  return result;
}

TEST(ResultCacheKeyTest, NegativeZeroCoordinatesFoldToPositiveZero) {
  // -0.0 == +0.0 through every comparison the engines make, so the two
  // must share a cache line; no other coordinate transform is folded.
  const NwcOptions options = NwcOptions::Plain();
  const ResultCacheKey neg = ResultCacheKey::ForNwc(MakeQuery(-0.0, -0.0), options);
  const ResultCacheKey pos = ResultCacheKey::ForNwc(MakeQuery(0.0, 0.0), options);
  EXPECT_TRUE(neg == pos);
  EXPECT_EQ(neg.Hash(), pos.Hash());

  const ResultCacheKey reflected = ResultCacheKey::ForNwc(MakeQuery(-1.0, 2.0), options);
  const ResultCacheKey original = ResultCacheKey::ForNwc(MakeQuery(1.0, 2.0), options);
  EXPECT_FALSE(reflected == original) << "quadrant reflection must NOT be canonicalized";
}

TEST(ResultCacheKeyTest, DistinguishesSchemeMeasureParametersAndKind) {
  const NwcQuery query = MakeQuery(10, 20);
  const ResultCacheKey base = ResultCacheKey::ForNwc(query, NwcOptions::Plain());

  EXPECT_FALSE(base == ResultCacheKey::ForNwc(query, NwcOptions::Star()))
      << "scheme must stay in the key: tie-breaks differ between presets";

  NwcOptions other_measure = NwcOptions::Plain();
  other_measure.measure = DistanceMeasure::kMax;
  EXPECT_FALSE(base == ResultCacheKey::ForNwc(query, other_measure));

  NwcQuery other_n = query;
  other_n.n += 1;
  EXPECT_FALSE(base == ResultCacheKey::ForNwc(other_n, NwcOptions::Plain()));

  // An NWC key never collides with a kNWC key over the same window.
  KnwcQuery knwc;
  knwc.base = query;
  knwc.k = 1;
  knwc.m = 0;
  EXPECT_FALSE(base == ResultCacheKey::ForKnwc(knwc, NwcOptions::Plain()));
}

TEST(ResultCacheKeyTest, DataEpochKeysDistinctEntries) {
  const NwcQuery query = MakeQuery(10, 20);
  const NwcOptions options = NwcOptions::Star();
  const ResultCacheKey epoch1 = ResultCacheKey::ForNwc(query, options, 1);
  const ResultCacheKey epoch2 = ResultCacheKey::ForNwc(query, options, 2);
  EXPECT_FALSE(epoch1 == epoch2) << "same query across epochs must not share an entry";
  EXPECT_TRUE(epoch1 == ResultCacheKey::ForNwc(query, options, 1));
  // The static-session default (epoch 0) is its own keyspace too.
  EXPECT_FALSE(epoch1 == ResultCacheKey::ForNwc(query, options));
}

TEST(ResultCacheTest, EpochsCoexistWithoutCrossTalk) {
  // The dynamic service's central cache property: entries from different
  // snapshot epochs live side by side, and a probe only ever sees its own
  // epoch's answer — publishing never needs to synchronously purge.
  ResultCache cache(1 << 20, /*shards=*/4);
  const NwcQuery query = MakeQuery(5, 5);
  const NwcOptions options = NwcOptions::Star();
  const NwcResult old_answer = MakeResult(100, 3);
  const NwcResult new_answer = MakeResult(200, 3);
  cache.InsertNwc(query, options, old_answer, /*data_epoch=*/1);
  cache.InsertNwc(query, options, new_answer, /*data_epoch=*/2);

  NwcResult out;
  ASSERT_TRUE(cache.LookupNwc(query, options, &out, 1));
  EXPECT_EQ(out.objects, old_answer.objects);
  ASSERT_TRUE(cache.LookupNwc(query, options, &out, 2));
  EXPECT_EQ(out.objects, new_answer.objects);
  EXPECT_FALSE(cache.LookupNwc(query, options, &out, 3))
      << "an epoch that never inserted must miss";
  EXPECT_FALSE(cache.LookupNwc(query, options, &out))
      << "the static keyspace must not alias any epoch";
}

TEST(ResultCacheTest, HitReturnsExactCopyAndCountsStats) {
  ResultCache cache(1 << 20, /*shards=*/4);
  const NwcQuery query = MakeQuery(100, 200);
  const NwcOptions options = NwcOptions::Plus();

  NwcResult out;
  EXPECT_FALSE(cache.LookupNwc(query, options, &out));
  cache.InsertNwc(query, options, MakeResult(7, 3));
  ASSERT_TRUE(cache.LookupNwc(query, options, &out));
  EXPECT_TRUE(out.found);
  EXPECT_EQ(out.distance, 7.0);
  ASSERT_EQ(out.objects.size(), 3u);
  EXPECT_EQ(out.objects[0].id, 7u);
  EXPECT_EQ(out.objects[2].id, 9u);

  const ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(ResultCacheTest, NegativeResultsAreCachedToo) {
  ResultCache cache(1 << 20);
  const NwcQuery query = MakeQuery(1, 2);
  NwcResult not_found;
  not_found.found = false;
  cache.InsertNwc(query, NwcOptions::Plain(), not_found);

  NwcResult out;
  out.found = true;  // must be overwritten by the cached negative
  ASSERT_TRUE(cache.LookupNwc(query, NwcOptions::Plain(), &out));
  EXPECT_FALSE(out.found);
  EXPECT_TRUE(out.objects.empty());
}

TEST(ResultCacheTest, KnwcRoundTripIsExact) {
  ResultCache cache(1 << 20);
  KnwcQuery query;
  query.base = MakeQuery(50, 60);
  query.k = 3;
  query.m = 1;

  KnwcResult stored;
  for (uint32_t g = 0; g < 3; ++g) {
    NwcGroup group;
    group.distance = 10.0 * g;
    group.objects.push_back(DataObject{g, Point{1.0 * g, 2.0 * g}});
    stored.groups.push_back(group);
  }
  cache.InsertKnwc(query, NwcOptions::Star(), stored);

  KnwcResult out;
  ASSERT_TRUE(cache.LookupKnwc(query, NwcOptions::Star(), &out));
  ASSERT_EQ(out.groups.size(), 3u);
  for (size_t g = 0; g < 3; ++g) {
    EXPECT_EQ(out.groups[g].distance, stored.groups[g].distance);
    ASSERT_EQ(out.groups[g].objects.size(), 1u);
    EXPECT_EQ(out.groups[g].objects[0].id, stored.groups[g].objects[0].id);
  }
}

TEST(ResultCacheTest, ReplacingAKeyKeepsOneEntry) {
  ResultCache cache(1 << 20, /*shards=*/1);
  const NwcQuery query = MakeQuery(5, 5);
  cache.InsertNwc(query, NwcOptions::Plain(), MakeResult(1, 2));
  cache.InsertNwc(query, NwcOptions::Plain(), MakeResult(9, 4));

  NwcResult out;
  ASSERT_TRUE(cache.LookupNwc(query, NwcOptions::Plain(), &out));
  EXPECT_EQ(out.objects.size(), 4u);
  EXPECT_EQ(out.objects[0].id, 9u);
  EXPECT_EQ(cache.GetStats().entries, 1u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedUnderBytePressure) {
  // One shard with a budget of a handful of entries; inserting far more
  // must evict from the tail while the hottest key survives.
  ResultCache cache(2048, /*shards=*/1);
  const NwcOptions options = NwcOptions::Plain();
  const NwcQuery hot = MakeQuery(0, 0);
  cache.InsertNwc(hot, options, MakeResult(0, 2));

  NwcResult out;
  for (int i = 1; i <= 64; ++i) {
    ASSERT_TRUE(cache.LookupNwc(hot, options, &out)) << "hot entry evicted at insert " << i;
    cache.InsertNwc(MakeQuery(i * 10.0, i * 10.0), options, MakeResult(0, 2));
  }

  const ResultCache::Stats stats = cache.GetStats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(stats.entries, 64u);
  EXPECT_LE(stats.bytes, cache.capacity_bytes());
  // The earliest cold keys are gone; the most recent insert is present.
  EXPECT_FALSE(cache.LookupNwc(MakeQuery(10, 10), options, &out));
  EXPECT_TRUE(cache.LookupNwc(MakeQuery(640, 640), options, &out));
}

TEST(ResultCacheTest, EntryLargerThanAShardIsNotAdmitted) {
  ResultCache cache(1024, /*shards=*/4);  // 256 bytes per shard
  const NwcQuery query = MakeQuery(1, 1);
  cache.InsertNwc(query, NwcOptions::Plain(), MakeResult(0, 1000));  // ~16 KB of objects

  NwcResult out;
  EXPECT_FALSE(cache.LookupNwc(query, NwcOptions::Plain(), &out));
  const ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

// ---------------------------------------------------------------------------
// Service-level differential gate.

Session OpenTestSession(size_t cardinality = 4000) {
  Dataset dataset = MakeCaLike(kSeed, cardinality);
  SessionConfig config;
  config.grid_space = dataset.space;
  Result<Session> session =
      Session::Open(BulkLoadStr(dataset.objects, RTreeOptions{}), config);
  EXPECT_TRUE(session.ok()) << session.status();
  return std::move(session).value();
}

std::vector<NwcRequest> SeededCacheRequests(size_t count) {
  // Draws from a small pool of distinct queries so replays hit the cache,
  // cycling the four presets of the differential gate (Plain, Plus, Iwp,
  // Star) and all four distance measures.
  Rng rng(kSeed ^ 0xCAC4E);
  std::vector<NwcQuery> pool;
  for (size_t i = 0; i < 40; ++i) {
    NwcQuery query;
    query.q = Point{rng.NextDouble(0, 10000), rng.NextDouble(0, 10000)};
    query.length = rng.NextDouble(80, 400);
    query.width = rng.NextDouble(80, 400);
    query.n = 3 + rng.NextUint64(8);
    pool.push_back(query);
  }
  const NwcOptions presets[] = {NwcOptions::Plain(), NwcOptions::Plus(), NwcOptions::Iwp(),
                                NwcOptions::Star()};
  std::vector<NwcRequest> requests;
  for (size_t i = 0; i < count; ++i) {
    NwcRequest request;
    request.query = pool[rng.NextUint64(pool.size())];
    NwcOptions options = presets[i % std::size(presets)];
    options.measure = static_cast<DistanceMeasure>(i % 4);
    request.options = options;
    requests.push_back(request);
  }
  return requests;
}

TEST(ResultCacheDifferentialTest, CachedServiceIsBitExactAgainstUncachedAcrossPresets) {
  const Session session = OpenTestSession();
  // 500+ requests over a 40-query pool: heavy repetition, every preset.
  const std::vector<NwcRequest> requests = SeededCacheRequests(520);

  ServiceConfig uncached_config;
  uncached_config.num_threads = 4;
  QueryService uncached(session, uncached_config);
  const std::vector<NwcResponse> baseline = SubmitAll(uncached, requests);

  ServiceConfig cached_config = uncached_config;
  cached_config.result_cache_bytes = 8 << 20;
  QueryService cached(session, cached_config);
  const std::vector<NwcResponse> replay = SubmitAll(cached, requests);

  ExpectSameResponses(replay, baseline);

  ASSERT_NE(cached.result_cache(), nullptr);
  const ResultCache::Stats stats = cached.result_cache()->GetStats();
  EXPECT_GT(stats.hits, requests.size() / 2) << "a 40-query pool replayed 520 times must hit";
  EXPECT_EQ(stats.hits + stats.misses, requests.size());

  const MetricsSnapshot metrics = cached.SnapshotMetrics();
  EXPECT_EQ(metrics.result_cache_hits, stats.hits);
  EXPECT_EQ(metrics.result_cache_misses, stats.misses);
  EXPECT_EQ(metrics.result_cache_entries, stats.entries);
  EXPECT_EQ(uncached.SnapshotMetrics().result_cache_hits, 0u);
}

TEST(ResultCacheDifferentialTest, CachedServiceStaysExactUnderEvictionPressure) {
  const Session session = OpenTestSession(2000);
  const std::vector<NwcRequest> requests = SeededCacheRequests(200);

  ServiceConfig uncached_config;
  uncached_config.num_threads = 2;
  QueryService uncached(session, uncached_config);
  const std::vector<NwcResponse> baseline = SubmitAll(uncached, requests);

  // A budget far below the working set forces constant eviction; results
  // must not change, only the hit rate.
  ServiceConfig tiny_config = uncached_config;
  tiny_config.result_cache_bytes = 4096;
  QueryService tiny(session, tiny_config);
  const std::vector<NwcResponse> replay = SubmitAll(tiny, requests);

  ExpectSameResponses(replay, baseline);
  ASSERT_NE(tiny.result_cache(), nullptr);
  EXPECT_GT(tiny.result_cache()->GetStats().evictions, 0u);
}

TEST(ResultCacheDifferentialTest, InvalidationForcesRecomputeWithSameAnswer) {
  const Session session = OpenTestSession(1000);
  ServiceConfig config;
  config.num_threads = 2;
  config.result_cache_bytes = 1 << 20;
  QueryService service(session, config);

  NwcRequest request;
  request.query = MakeQuery(5000, 5000, 300, 300, 4);
  const NwcResponse first = service.SubmitNwc(request).get();
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.result_cache_hit);

  const NwcResponse hit = service.SubmitNwc(request).get();
  ASSERT_TRUE(hit.status.ok());
  EXPECT_TRUE(hit.result_cache_hit);
  EXPECT_EQ(hit.traversal_reads, 0u) << "a cache hit performs no tree I/O";

  // Insert and delete one object: the data ends as it began, but the
  // batch publishes a new epoch, and the epoch is part of every key.
  const DataObject transient{900001, Point{0, 0}};
  const UpdateResponse update =
      service.ApplyUpdate({Mutation::Insert(transient), Mutation::Delete(transient)});
  ASSERT_TRUE(update.status.ok()) << update.status.ToString();
  EXPECT_EQ(update.epoch, 2u);
  const NwcResponse recomputed = service.SubmitNwc(request).get();
  ASSERT_TRUE(recomputed.status.ok());
  EXPECT_FALSE(recomputed.result_cache_hit) << "a publish must force a recompute";
  EXPECT_EQ(recomputed.result.found, first.result.found);
  EXPECT_EQ(recomputed.result.distance, first.result.distance);
  ASSERT_EQ(recomputed.result.objects.size(), first.result.objects.size());
  for (size_t i = 0; i < first.result.objects.size(); ++i) {
    EXPECT_EQ(recomputed.result.objects[i].id, first.result.objects[i].id);
  }
  EXPECT_EQ(service.result_cache()->GetStats().insertions, 2u);
}

TEST(ResultCacheDifferentialTest, UpdateThatPublishesNothingKeepsCachedAnswers) {
  const Session session = OpenTestSession(1000);
  ServiceConfig config;
  config.num_threads = 2;
  config.result_cache_bytes = 1 << 20;
  QueryService service(session, config);

  NwcRequest request;
  request.query = MakeQuery(5000, 5000, 300, 300, 4);
  ASSERT_TRUE(service.SubmitNwc(request).get().status.ok());

  // Neither an empty batch nor one whose every delete misses changes the
  // data, so neither publishes: the epoch and the cached answer stay.
  const UpdateResponse empty = service.ApplyUpdate({});
  ASSERT_TRUE(empty.status.ok()) << empty.status.ToString();
  EXPECT_EQ(empty.epoch, 1u);
  const UpdateResponse miss =
      service.ApplyUpdate({Mutation::Delete(DataObject{900001, Point{0, 0}})});
  EXPECT_EQ(miss.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(miss.epoch, 1u);
  EXPECT_EQ(miss.delete_misses, 1u);

  const NwcResponse again = service.SubmitNwc(request).get();
  ASSERT_TRUE(again.status.ok());
  EXPECT_TRUE(again.result_cache_hit) << "an update that publishes nothing keeps the cache";
  EXPECT_EQ(service.result_cache()->GetStats().insertions, 1u);
}

TEST(ResultCacheDifferentialTest, AbortedQueriesNeverPopulateTheCache) {
  const Session session = OpenTestSession(4000);
  ServiceConfig config;
  config.num_threads = 2;
  config.result_cache_bytes = 1 << 20;
  config.default_deadline_micros = 1;  // everything expires in the queue
  QueryService service(session, config);

  const std::vector<NwcRequest> requests = SeededCacheRequests(60);
  const std::vector<NwcResponse> responses = SubmitAll(service, requests);

  size_t aborted = 0;
  size_t ok_misses = 0;  // OK queries that executed (not served from cache)
  for (const NwcResponse& response : responses) {
    if (!response.status.ok()) {
      ++aborted;
      EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
      EXPECT_FALSE(response.result_cache_hit);
    } else if (!response.result_cache_hit) {
      ++ok_misses;
    }
  }
  EXPECT_GT(aborted, 0u) << "a 1us deadline must abort at least some queries";

  ASSERT_NE(service.result_cache(), nullptr);
  const ResultCache::Stats stats = service.result_cache()->GetStats();
  // Exactly the queries that completed OK off the miss path may insert;
  // aborted queries must never populate the cache.
  EXPECT_EQ(stats.insertions, ok_misses);
  if (aborted == responses.size()) {
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.bytes, 0u);
  }
}

TEST(ResultCacheDifferentialTest, ExpiredRequestIsNotServedFromCache) {
  // A cache hit must still respect deadline accounting: a request whose
  // deadline expired in the queue completes DeadlineExceeded even though
  // its exact answer is sitting in the cache.
  const Session session = OpenTestSession(4000);
  ServiceConfig config;
  config.num_threads = 1;  // one worker: the heavy query blocks the queue
  config.result_cache_bytes = 1 << 20;
  QueryService service(session, config);

  NwcRequest primed;
  primed.query = MakeQuery(5000, 5000, 300, 300, 4);
  ASSERT_TRUE(service.SubmitNwc(primed).get().status.ok());
  const uint64_t hits_before = service.result_cache()->GetStats().hits;

  // Occupy the single worker with an expensive plain-scheme query, then
  // queue the primed request with a deadline it cannot survive waiting.
  NwcRequest heavy;
  heavy.query = MakeQuery(5000, 5000, 600, 600, 24);
  heavy.options = NwcOptions::Plain();
  std::future<NwcResponse> heavy_future = service.SubmitNwc(heavy);

  NwcRequest expiring = primed;
  expiring.deadline_micros = 50;
  const NwcResponse expired = service.SubmitNwc(expiring).get();
  ASSERT_TRUE(heavy_future.get().status.ok());

  EXPECT_EQ(expired.status.code(), StatusCode::kDeadlineExceeded) << expired.status;
  EXPECT_FALSE(expired.result_cache_hit);
  EXPECT_EQ(service.result_cache()->GetStats().hits, hits_before)
      << "an expired request must not count (or take) a cache hit";
}

}  // namespace
}  // namespace nwc
