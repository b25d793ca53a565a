// ShardRouter unit tests: the Z-order partition machinery (ZOrderKey,
// equal-count boundaries, Morton range -> rect cover), ownership/halo
// routing of points and mutations, the sharded-serving guard rails (window
// cap, config validation), per-request metrics (reads under faults, slow
// queries), cancel semantics, update routing with authoritative owner
// counts, the per-shard Prometheus series, and the parallel shard build's
// byte-identity with a serial one.

#include "service/shard_router.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <iterator>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/generators.h"
#include "rtree/serialize.h"

namespace nwc {

class ShardRouterTestPeer {
 public:
  /// Shard `s`'s currently published snapshot.
  static SnapshotStore::SnapshotRef AcquireShard(const ShardRouter& router, size_t s) {
    return router.shards_[s].store->Acquire();
  }
};

namespace {

constexpr uint64_t kSeed = 20160315;

std::unique_ptr<ShardRouter> OpenRouter(ShardRouterConfig config, size_t cardinality = 3000) {
  Dataset dataset = MakeCaLike(kSeed, cardinality);
  Result<std::unique_ptr<ShardRouter>> router =
      ShardRouter::Open(dataset.objects, config);
  EXPECT_TRUE(router.ok()) << router.status();
  return std::move(router).value();
}

ShardRouterConfig FourShardConfig() {
  ShardRouterConfig config;
  config.num_shards = 4;
  config.max_window_length = 400;
  config.max_window_width = 400;
  config.service.num_threads = 2;
  return config;
}

Rect UnitSpace() { return Rect{0.0, 0.0, 1024.0, 1024.0}; }

TEST(ZOrderKeyTest, OriginMapsToZeroAndFarCornerToMax) {
  const Rect space = UnitSpace();
  EXPECT_EQ(ZOrderKey(Point{0, 0}, space), 0u);
  const uint64_t corner = ZOrderKey(Point{1024, 1024}, space);
  // Both 16-bit grid coordinates saturate: every interleaved bit is set.
  EXPECT_EQ(corner, (uint64_t{1} << 32) - 1);
}

TEST(ZOrderKeyTest, OutOfRangeAndNonFinitePointsClampInsteadOfWrapping) {
  const Rect space = UnitSpace();
  EXPECT_EQ(ZOrderKey(Point{-500, -500}, space), ZOrderKey(Point{0, 0}, space));
  EXPECT_EQ(ZOrderKey(Point{9999, 9999}, space), ZOrderKey(Point{1024, 1024}, space));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(ZOrderKey(Point{nan, nan}, space), 0u);
}

TEST(ZOrderKeyTest, DegenerateSpaceMapsEverythingToZero) {
  const Rect line = Rect{0.0, 5.0, 100.0, 5.0};  // zero-extent y axis
  const uint64_t a = ZOrderKey(Point{10, 5}, line);
  const uint64_t b = ZOrderKey(Point{90, 5}, line);
  EXPECT_LT(a, b) << "the live axis still orders";
  const Rect point_space = Rect{3.0, 3.0, 3.0, 3.0};
  EXPECT_EQ(ZOrderKey(Point{3, 3}, point_space), 0u);
}

TEST(ZOrderKeyTest, MonotonicAlongTheDiagonal) {
  // When both coordinates are nondecreasing the interleaved key is too —
  // the property that makes a Z-order sort a locality sort.
  const Rect space = UnitSpace();
  uint64_t previous = 0;
  for (int i = 0; i <= 1024; i += 32) {
    const uint64_t key = ZOrderKey(Point{static_cast<double>(i), static_cast<double>(i)}, space);
    EXPECT_GE(key, previous) << "diagonal step " << i;
    previous = key;
  }
}

TEST(ZOrderKeyTest, NearbyPointsShareHighBits) {
  const Rect space = UnitSpace();
  const uint64_t base = ZOrderKey(Point{100, 100}, space);
  const uint64_t near = ZOrderKey(Point{101, 101}, space);
  const uint64_t far = ZOrderKey(Point{900, 900}, space);
  // A one-cell neighbour differs only in low bits; the opposite corner
  // differs in the top bits.
  EXPECT_LT(base ^ near, base ^ far);
}

TEST(EqualCountKeyBoundaries, SplitsCountsEvenlyAndBracketsTheKeySpace) {
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 1000; ++i) keys.push_back(i * 977 % 65536);
  const std::vector<uint64_t> boundaries = EqualCountKeyBoundaries(keys, 4);
  ASSERT_EQ(boundaries.size(), 5u);
  EXPECT_EQ(boundaries.front(), 0u);
  EXPECT_EQ(boundaries.back(), kZOrderKeyEnd);
  for (size_t i = 1; i < boundaries.size(); ++i) {
    EXPECT_LT(boundaries[i - 1], boundaries[i]) << "boundaries must strictly increase";
  }
  // Each shard owns roughly a quarter of the keys.
  for (size_t s = 0; s < 4; ++s) {
    const auto owned = std::count_if(keys.begin(), keys.end(), [&](uint64_t k) {
      return k >= boundaries[s] && k < boundaries[s + 1];
    });
    EXPECT_NEAR(static_cast<double>(owned), 250.0, 60.0) << "shard " << s;
  }
}

TEST(EqualCountKeyBoundaries, EmptyAndDegenerateInputsStillBracket) {
  // No keys: uniform split of the key space.
  std::vector<uint64_t> uniform = EqualCountKeyBoundaries({}, 3);
  ASSERT_EQ(uniform.size(), 4u);
  EXPECT_EQ(uniform.front(), 0u);
  EXPECT_EQ(uniform.back(), kZOrderKeyEnd);
  for (size_t i = 1; i < uniform.size(); ++i) EXPECT_LT(uniform[i - 1], uniform[i]);

  // All keys identical: boundaries still strictly increase (trailing
  // shards own empty ranges), so OwnerShard stays total.
  std::vector<uint64_t> same(100, 42);
  std::vector<uint64_t> degenerate = EqualCountKeyBoundaries(same, 4);
  ASSERT_EQ(degenerate.size(), 5u);
  EXPECT_EQ(degenerate.front(), 0u);
  EXPECT_EQ(degenerate.back(), kZOrderKeyEnd);
  for (size_t i = 1; i < degenerate.size(); ++i) EXPECT_LT(degenerate[i - 1], degenerate[i]);
}

TEST(ZOrderRangeRegion, CoversEveryPointWhoseKeyFallsInTheRange) {
  const Rect space{0, 0, 10000, 8000};
  // Random key splits; for each, every sampled point must lie inside the
  // rect cover of the sub-range its key lands in.
  Rng rng(kSeed ^ 0x2E6);
  for (int trial = 0; trial < 8; ++trial) {
    uint64_t split = 1 + rng.NextUint64(kZOrderKeyEnd - 1);
    const std::vector<Rect> low = ZOrderRangeRegion(0, split, space);
    const std::vector<Rect> high = ZOrderRangeRegion(split, kZOrderKeyEnd, space);
    ASSERT_FALSE(low.empty());
    ASSERT_FALSE(high.empty());
    for (int i = 0; i < 200; ++i) {
      const Point p{rng.NextDouble(-100, 10100), rng.NextDouble(-100, 8100)};
      const uint64_t key = ZOrderKey(p, space);
      const std::vector<Rect>& cover = key < split ? low : high;
      const bool contained = std::any_of(cover.begin(), cover.end(),
                                         [&](const Rect& r) { return r.Contains(p); });
      EXPECT_TRUE(contained) << "trial " << trial << " point (" << p.x << "," << p.y
                             << ") key " << key << " split " << split;
    }
  }
}

TEST(ZOrderRangeRegion, FullRangeIsOneUnboundedRect) {
  const Rect space{0, 0, 100, 100};
  const std::vector<Rect> cover = ZOrderRangeRegion(0, kZOrderKeyEnd, space);
  ASSERT_EQ(cover.size(), 1u);
  // Boundary cells absorb out-of-space points, so the full range must
  // contain arbitrarily far points on every side.
  EXPECT_TRUE(cover[0].Contains(Point{-1e9, -1e9}));
  EXPECT_TRUE(cover[0].Contains(Point{1e9, 1e9}));
}

TEST(ShardRouterConfigValidate, EnforcesShardedServingParameters) {
  ShardRouterConfig config;
  EXPECT_TRUE(config.Validate().ok()) << "single shard needs no window bound";

  config.num_shards = 4;
  EXPECT_FALSE(config.Validate().ok()) << "shards > 1 requires max window extents";
  config.max_window_length = 400;
  config.max_window_width = 400;
  EXPECT_TRUE(config.Validate().ok());

  config.num_shards = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ShardRouter, PartitionOwnsEveryObjectExactlyOnceAndReplicatesHalos) {
  const size_t cardinality = 3000;
  const auto router = OpenRouter(FourShardConfig(), cardinality);
  ASSERT_EQ(router->num_shards(), 4u);

  size_t owned_total = 0;
  size_t resident_total = 0;
  for (size_t s = 0; s < router->num_shards(); ++s) {
    owned_total += router->shard_owned_count(s);
    resident_total += router->shard_resident_count(s);
    EXPECT_GE(router->shard_resident_count(s), router->shard_owned_count(s));
  }
  EXPECT_EQ(owned_total, cardinality) << "ownership is a partition";
  EXPECT_GT(resident_total, cardinality) << "halos replicate boundary objects";

  // Ownership is balanced: equal-count boundaries put ~N/4 in each shard.
  for (size_t s = 0; s < router->num_shards(); ++s) {
    EXPECT_NEAR(static_cast<double>(router->shard_owned_count(s)), cardinality / 4.0,
                cardinality / 8.0)
        << "shard " << s;
  }
}

TEST(ShardRouter, TargetShardsAlwaysIncludeTheOwner) {
  const auto router = OpenRouter(FourShardConfig());
  Rng rng(kSeed ^ 0x7A);
  for (int i = 0; i < 500; ++i) {
    const Point p{rng.NextDouble(-500, 10500), rng.NextDouble(-500, 10500)};
    const size_t owner = router->OwnerShard(p);
    ASSERT_LT(owner, router->num_shards());
    const std::vector<size_t> targets = router->TargetShards(p);
    EXPECT_NE(std::find(targets.begin(), targets.end(), owner), targets.end())
        << "owner must be a target at (" << p.x << "," << p.y << ")";
    // Ascending and unique.
    for (size_t t = 1; t < targets.size(); ++t) EXPECT_LT(targets[t - 1], targets[t]);
  }
}

TEST(ShardRouter, OversizedWindowIsRejectedUpFront) {
  const auto router = OpenRouter(FourShardConfig());
  NwcRequest request;
  request.query = NwcQuery{Point{5000, 5000}, 500, 200, 4};  // l > max 400
  const NwcResponse response = router->RouteNwc(request);
  EXPECT_EQ(response.status.code(), StatusCode::kFailedPrecondition) << response.status;
  EXPECT_NE(response.status.message().find("sharded serving bound"), std::string::npos)
      << response.status;

  KnwcRequest krequest;
  krequest.query = KnwcQuery{NwcQuery{Point{5000, 5000}, 200, 500, 4}, 2, 1};
  const KnwcResponse kresponse = router->RouteKnwc(krequest);
  EXPECT_EQ(kresponse.status.code(), StatusCode::kFailedPrecondition) << kresponse.status;

  // At the bound the query passes.
  request.query = NwcQuery{Point{5000, 5000}, 400, 400, 4};
  EXPECT_TRUE(router->RouteNwc(request).status.ok());
}

TEST(ShardRouter, SingleShardPassesOversizedWindowsThrough) {
  ShardRouterConfig config;  // num_shards = 1: no halo, no window cap
  config.service.num_threads = 2;
  const auto router = OpenRouter(config);
  ASSERT_EQ(router->num_shards(), 1u);
  NwcRequest request;
  request.query = NwcQuery{Point{5000, 5000}, 3000, 3000, 8};
  EXPECT_TRUE(router->RouteNwc(request).status.ok());
}

// An invalid query is the caller's error, not a shard failure: it fails
// InvalidArgument before any shard runs.
TEST(ShardRouter, InvalidQueryFailsBeforeAnyShard) {
  const auto router = OpenRouter(FourShardConfig(), 1000);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const NwcQuery& bad : {NwcQuery{Point{5000, 5000}, 300, 300, 0},   // n == 0
                              NwcQuery{Point{5000, 5000}, 0, 300, 4},     // l <= 0
                              NwcQuery{Point{5000, 5000}, nan, 300, 4},   // NaN l
                              NwcQuery{Point{inf, 5000}, 300, 300, 4}}) {  // infinite q.x
    NwcRequest nwc;
    nwc.query = bad;
    KnwcRequest knwc;
    knwc.query = KnwcQuery{bad, 2, 1};

    for (const Status& status :
         {router->RouteNwc(nwc).status, router->RouteKnwc(knwc).status,
          router->SubmitNwc(nwc).get().status, router->SubmitKnwc(knwc).get().status}) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
    }
  }
  for (size_t s = 0; s < router->num_shards(); ++s) {
    EXPECT_EQ(router->ShardMetrics(s).queries, 0u) << "shard " << s;
  }
}

TEST(ShardRouter, AsyncSubmitsResolveAndAggregateMetrics) {
  const auto router = OpenRouter(FourShardConfig());
  std::promise<NwcResponse> nwc_promise;
  router->SubmitNwcAsync(NwcRequest{NwcQuery{Point{5000, 5000}, 300, 300, 4}, {}, 0},
                         [&](NwcResponse r) { nwc_promise.set_value(std::move(r)); });
  std::promise<KnwcResponse> knwc_promise;
  router->SubmitKnwcAsync(
      KnwcRequest{KnwcQuery{NwcQuery{Point{5000, 5000}, 300, 300, 4}, 2, 1}, {}, 0},
      [&](KnwcResponse r) { knwc_promise.set_value(std::move(r)); });
  const NwcResponse nwc = nwc_promise.get_future().get();
  const KnwcResponse knwc = knwc_promise.get_future().get();
  EXPECT_TRUE(nwc.status.ok()) << nwc.status;
  EXPECT_TRUE(knwc.status.ok()) << knwc.status;

  // The router counts the two requests; the shards count executions (the
  // kNWC scatter runs on all four shards, the NWC chain on at least one).
  uint64_t per_shard_total = 0;
  for (size_t s = 0; s < router->num_shards(); ++s) {
    per_shard_total += router->ShardMetrics(s).queries;
  }
  const MetricsSnapshot aggregate = router->SnapshotMetrics();
  EXPECT_EQ(aggregate.queries, 2u);
  EXPECT_GE(per_shard_total, 5u) << "kNWC alone touches all 4 shards";
  EXPECT_EQ(aggregate.failures, 0u);
  EXPECT_EQ(aggregate.total_reads(), nwc.traversal_reads + nwc.window_query_reads +
                                         knwc.traversal_reads + knwc.window_query_reads);
  EXPECT_EQ(static_cast<uint64_t>(router->SnapshotLatencyHistogram().count()), 2u);
}

TEST(ShardRouter, MetricsCountEachRoutedRequestOnce) {
  const auto router = OpenRouter(FourShardConfig());
  Rng rng(kSeed);
  constexpr size_t kNwc = 12;
  constexpr size_t kKnwc = 4;
  uint64_t reads = 0;
  uint64_t not_found = 0;
  for (size_t i = 0; i < kNwc; ++i) {
    const Point q{rng.NextDouble(0.0, 10000.0), rng.NextDouble(0.0, 10000.0)};
    const NwcResponse response = router->RouteNwc(NwcRequest{NwcQuery{q, 300, 300, 4}, {}, 0});
    ASSERT_TRUE(response.status.ok()) << response.status;
    reads += response.traversal_reads + response.window_query_reads;
    if (!response.result.found) ++not_found;
  }
  for (size_t i = 0; i < kKnwc; ++i) {
    const Point q{rng.NextDouble(0.0, 10000.0), rng.NextDouble(0.0, 10000.0)};
    const KnwcResponse response =
        router->RouteKnwc(KnwcRequest{KnwcQuery{NwcQuery{q, 300, 300, 4}, 2, 1}, {}, 0});
    ASSERT_TRUE(response.status.ok()) << response.status;
    reads += response.traversal_reads + response.window_query_reads;
    if (response.result.groups.empty()) ++not_found;
  }
  // A window past the sharded bound fails at the router, before any shard.
  const NwcResponse rejected =
      router->RouteNwc(NwcRequest{NwcQuery{Point{5000, 5000}, 900, 300, 4}, {}, 0});
  EXPECT_EQ(rejected.status.code(), StatusCode::kFailedPrecondition);

  const MetricsSnapshot metrics = router->SnapshotMetrics();
  EXPECT_EQ(metrics.queries, kNwc + kKnwc + 1);
  EXPECT_EQ(metrics.failures, 1u);
  EXPECT_EQ(metrics.not_found, not_found);
  EXPECT_EQ(metrics.total_reads(), reads);
  EXPECT_EQ(static_cast<uint64_t>(router->SnapshotLatencyHistogram().count()), metrics.queries);
  uint64_t executions = 0;
  for (size_t s = 0; s < router->num_shards(); ++s) {
    executions += router->ShardMetrics(s).queries;
  }
  EXPECT_GE(executions, kNwc + router->num_shards() * kKnwc)
      << "every NWC runs on at least one shard and every kNWC on all of them";
}

// Under random read faults on every shard, a routed request that fails
// still reports every read its shard executions made: the router's read
// count equals the sum of the shards' own.
TEST(ShardRouter, RoutedReadsEqualShardReadsUnderFaults) {
  ShardRouterConfig config = FourShardConfig();
  config.service.fault_plan = FaultPlan::Bernoulli(0.004, kSeed);
  const auto router = OpenRouter(config);
  Rng rng(kSeed ^ 0xFA);
  size_t ok = 0;
  size_t io_errors = 0;
  const auto tally = [&](const Status& status) {
    if (status.ok()) ++ok;
    if (status.code() == StatusCode::kIoError) ++io_errors;
  };
  for (size_t i = 0; i < 48; ++i) {
    const Point q{rng.NextDouble(0.0, 10000.0), rng.NextDouble(0.0, 10000.0)};
    const NwcQuery query{q, 300, 300, 4};
    if (i % 4 == 3) {
      tally(router->RouteKnwc(KnwcRequest{KnwcQuery{query, 2, 1}, {}, 0}).status);
    } else {
      tally(router->RouteNwc(NwcRequest{query, {}, 0}).status);
    }
  }
  EXPECT_GT(ok, 0u) << "the fault rate must let some requests through";
  EXPECT_GT(io_errors, 0u) << "the fault rate must fail some requests";

  uint64_t shard_reads = 0;
  for (size_t s = 0; s < router->num_shards(); ++s) {
    shard_reads += router->ShardMetrics(s).total_reads();
  }
  EXPECT_EQ(router->SnapshotMetrics().total_reads(), shard_reads);
}

// The router applies the service's slow-query rule once per routed
// request: with a threshold of 0 every request is slow.
TEST(ShardRouter, SlowQueriesCountRoutedRequests) {
  ShardRouterConfig config = FourShardConfig();
  config.service.trace_slow_queries = true;
  config.service.slow_trace_us = 0;
  const auto router = OpenRouter(config, 1000);
  constexpr size_t kRequests = 6;
  for (size_t i = 0; i < kRequests; ++i) {
    const NwcQuery query{Point{5000, 5000}, 300, 300, 4};
    if (i % 2 == 0) {
      ASSERT_TRUE(router->RouteNwc(NwcRequest{query, {}, 0}).status.ok());
    } else {
      ASSERT_TRUE(router->RouteKnwc(KnwcRequest{KnwcQuery{query, 2, 1}, {}, 0}).status.ok());
    }
  }
  const MetricsSnapshot metrics = router->SnapshotMetrics();
  EXPECT_EQ(metrics.queries, kRequests);
  EXPECT_EQ(metrics.slow_queries, kRequests);
}

TEST(ShardRouter, CancelAllCancelsQueuedWorkButNotLaterSubmits) {
  ShardRouterConfig config = FourShardConfig();
  config.router_threads = 1;  // queue routed requests behind one executor
  config.service.num_threads = 1;
  // Slow every shard read so the first routed query pins the executor
  // while the rest sit in the router queue where CancelAll must reach.
  config.service.fault_plan = FaultPlan::LatencySpike(1, 200);
  const auto router = OpenRouter(config, 1000);

  constexpr size_t kInFlight = 8;
  std::vector<std::future<NwcResponse>> futures;
  for (size_t i = 0; i < kInFlight; ++i) {
    auto promise = std::make_shared<std::promise<NwcResponse>>();
    futures.push_back(promise->get_future());
    router->SubmitNwcAsync(NwcRequest{NwcQuery{Point{5000, 5000}, 300, 300, 4}, {}, 0},
                           [promise](NwcResponse r) { promise->set_value(std::move(r)); });
  }
  router->CancelAll();

  size_t cancelled = 0;
  for (auto& future : futures) {
    const NwcResponse response = future.get();
    if (response.status.code() == StatusCode::kCancelled) {
      ++cancelled;
    } else {
      EXPECT_TRUE(response.status.ok()) << response.status;
    }
  }
  EXPECT_GT(cancelled, 0u) << "queued routed requests must observe the cancel";

  // The contract matches QueryService::CancelAll: later submits run.
  NwcRequest after;
  after.query = NwcQuery{Point{5000, 5000}, 300, 300, 4};
  EXPECT_TRUE(router->RouteNwc(after).status.ok());
}

TEST(ShardRouter, UpdateRoutingKeepsOwnerCountsAuthoritative) {
  const auto router = OpenRouter(FourShardConfig());

  // Probe near the space center, then insert a tight cluster next to it:
  // the answer must strictly improve, proving the inserts landed in every
  // tree the router consults.
  const NwcQuery probe{Point{5000, 5000}, 120, 120, 4};
  const NwcResponse before = router->RouteNwc(NwcRequest{probe, {}, 0});
  ASSERT_TRUE(before.status.ok()) << before.status;

  MutationBatch inserts;
  for (int i = 0; i < 4; ++i) {
    inserts.push_back(Mutation::Insert(
        DataObject{static_cast<ObjectId>(700000 + i), Point{5001.0 + 0.25 * i, 5001.0}}));
  }
  const UpdateResponse applied = router->ApplyUpdate(inserts);
  ASSERT_TRUE(applied.status.ok()) << applied.status;
  // Counts come from owner shards only: 4 inserts, even though the
  // cluster sits in several shards' halos and was replicated there too.
  EXPECT_EQ(applied.applied_inserts, 4u);
  EXPECT_EQ(applied.applied_deletes, 0u);
  EXPECT_EQ(applied.delete_misses, 0u);
  // Every shard opened at epoch 1 and a touched shard publishes once.
  EXPECT_EQ(applied.epoch, 2u);

  const NwcResponse after = router->RouteNwc(NwcRequest{probe, {}, 0});
  ASSERT_TRUE(after.status.ok()) << after.status;
  ASSERT_TRUE(after.result.found);
  if (before.result.found) {
    EXPECT_LT(after.result.distance, before.result.distance);
  }

  // Deleting the cluster restores the original answer; counts again come
  // from the owners (4 deletes, no misses).
  MutationBatch deletes;
  for (int i = 0; i < 4; ++i) {
    deletes.push_back(Mutation::Delete(
        DataObject{static_cast<ObjectId>(700000 + i), Point{5001.0 + 0.25 * i, 5001.0}}));
  }
  const UpdateResponse removed = router->ApplyUpdate(deletes);
  ASSERT_TRUE(removed.status.ok()) << removed.status;
  EXPECT_EQ(removed.applied_deletes, 4u);
  EXPECT_EQ(removed.delete_misses, 0u);
  const NwcResponse restored = router->RouteNwc(NwcRequest{probe, {}, 0});
  ASSERT_TRUE(restored.status.ok());
  EXPECT_EQ(restored.result.found, before.result.found);
  if (before.result.found) {
    EXPECT_EQ(restored.result.distance, before.result.distance);
    EXPECT_EQ(restored.result.objects, before.result.objects);
  }

  // A miss surfaces as typed NotFound with the miss counted once.
  MutationBatch miss{Mutation::Delete(DataObject{987654321, Point{1234.0, 4321.0}})};
  const UpdateResponse missed = router->ApplyUpdate(miss);
  EXPECT_EQ(missed.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(missed.delete_misses, 1u);
}

/// Shard `s`'s published epoch, read back from the router's exposition.
uint64_t ShardEpoch(const ShardRouter& router, size_t s) {
  std::string text;
  router.AppendPrometheusText(&text);
  const std::string key = "nwc_shard_epoch{shard=\"" + std::to_string(s) + "\"} ";
  const size_t at = text.find(key);
  EXPECT_NE(at, std::string::npos) << text;
  return at == std::string::npos ? 0 : std::stoull(text.substr(at + key.size()));
}

TEST(ShardRouter, OwnedAndHaloMutationsPublishAShardOnce) {
  const auto router = OpenRouter(FourShardConfig());
  // A point replicated into some shard K's halo (owned elsewhere), and a
  // point K owns outright.
  const Rect& space = router->space();
  std::optional<Point> replica;
  size_t shard = 0;
  for (double x = space.min_x; x <= space.max_x && !replica; x += 25.0) {
    for (double y = space.min_y; y <= space.max_y && !replica; y += 25.0) {
      const std::vector<size_t> targets = router->TargetShards(Point{x, y});
      for (const size_t t : targets) {
        if (t != router->OwnerShard(Point{x, y})) {
          replica = Point{x, y};
          shard = t;
          break;
        }
      }
    }
  }
  ASSERT_TRUE(replica.has_value()) << "a 4-shard router must replicate some halo";
  std::optional<Point> owned;
  for (double x = space.min_x; x <= space.max_x && !owned; x += 25.0) {
    for (double y = space.min_y; y <= space.max_y && !owned; y += 25.0) {
      if (router->OwnerShard(Point{x, y}) == shard) owned = Point{x, y};
    }
  }
  ASSERT_TRUE(owned.has_value());

  ASSERT_EQ(ShardEpoch(*router, shard), 1u);
  const UpdateResponse applied = router->ApplyUpdate(
      MutationBatch{Mutation::Insert(DataObject{710000, *owned}),
                    Mutation::Insert(DataObject{710001, *replica})});
  ASSERT_TRUE(applied.status.ok()) << applied.status;
  EXPECT_EQ(applied.applied_inserts, 2u);
  // One publish carries both the owned insert and the halo copy.
  EXPECT_EQ(ShardEpoch(*router, shard), 2u) << "shard " << shard;
  EXPECT_EQ(applied.epoch, 2u);
}

// A batch holding a non-finite position is rejected before the split, so
// no shard applies or publishes any part of it.
TEST(ShardRouter, NonFiniteUpdateIsRejectedBeforeAnyShard) {
  const auto router = OpenRouter(FourShardConfig());
  const NwcQuery probe{Point{5000, 5000}, 120, 120, 4};
  const NwcResponse before = router->RouteNwc(NwcRequest{probe, {}, 0});
  ASSERT_TRUE(before.status.ok()) << before.status;

  const UpdateResponse rejected = router->ApplyUpdate(MutationBatch{
      Mutation::Insert(DataObject{720000, Point{5001, 5001}}),
      Mutation::Insert(DataObject{720001, Point{std::numeric_limits<double>::quiet_NaN(), 5001}})});
  EXPECT_EQ(rejected.status.code(), StatusCode::kInvalidArgument) << rejected.status;
  EXPECT_EQ(rejected.applied_inserts, 0u);
  for (size_t s = 0; s < router->num_shards(); ++s) {
    EXPECT_EQ(ShardEpoch(*router, s), 1u) << "shard " << s;
  }
  const NwcResponse after = router->RouteNwc(NwcRequest{probe, {}, 0});
  ASSERT_TRUE(after.status.ok()) << after.status;
  EXPECT_EQ(after.result.found, before.result.found);
  EXPECT_EQ(after.result.distance, before.result.distance);
  EXPECT_EQ(after.result.objects, before.result.objects);
}

/// The tree's SaveTree bytes.
std::string TreeBytes(const RStarTree& tree, const std::string& name) {
  const std::string path = testing::TempDir() + "shard_router_test_" + name + ".nwctree";
  const Status saved = SaveTree(tree, path);
  EXPECT_TRUE(saved.ok()) << saved;
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

TEST(ShardRouter, ParallelBuildMatchesSerialInsert) {
  const ShardRouterConfig config = FourShardConfig();
  const Dataset dataset = MakeCaLike(kSeed, 6000);
  Result<std::unique_ptr<ShardRouter>> opened = ShardRouter::Open(dataset.objects, config);
  ASSERT_TRUE(opened.ok()) << opened.status();
  const std::unique_ptr<ShardRouter> router = std::move(opened).value();
  std::string text;
  router->AppendPrometheusText(&text);

  for (size_t s = 0; s < router->num_shards(); ++s) {
    // The shard's members in input order, inserted on this thread alone.
    RStarTree serial(config.tree);
    for (const DataObject& object : dataset.objects) {
      const std::vector<size_t> targets = router->TargetShards(object.pos);
      if (std::find(targets.begin(), targets.end(), s) != targets.end()) serial.Insert(object);
    }
    ASSERT_GT(serial.size(), 0u) << "shard " << s;
    EXPECT_EQ(router->shard_resident_count(s), serial.size()) << "shard " << s;
    const std::string series = "nwc_shard_resident_objects{shard=\"" + std::to_string(s) +
                               "\"} " + std::to_string(serial.size()) + "\n";
    EXPECT_NE(text.find(series), std::string::npos) << series;

    const SnapshotStore::SnapshotRef snapshot = ShardRouterTestPeer::AcquireShard(*router, s);
    ASSERT_EQ(snapshot.epoch, 1u);
    const std::string name = "shard" + std::to_string(s);
    EXPECT_TRUE(TreeBytes(snapshot.session->tree(), name + "_routed") ==
                TreeBytes(serial, name + "_serial"))
        << "shard " << s << "'s tree differs from a serial insert build";
  }
}

TEST(ShardRouter, PrometheusTextCarriesPerShardSeries) {
  const auto router = OpenRouter(FourShardConfig());
  const NwcResponse response =
      router->RouteNwc(NwcRequest{NwcQuery{Point{5000, 5000}, 300, 300, 4}, {}, 0});
  ASSERT_TRUE(response.status.ok());

  std::string text;
  router->AppendPrometheusText(&text);
  for (size_t s = 0; s < router->num_shards(); ++s) {
    const std::string label = "{shard=\"" + std::to_string(s) + "\"}";
    EXPECT_NE(text.find("nwc_shard_queries_total" + label), std::string::npos) << text;
    EXPECT_NE(text.find("nwc_shard_resident_objects" + label), std::string::npos);
    EXPECT_NE(text.find("nwc_shard_owned_objects" + label), std::string::npos);
  }
  // Distinct family names: the per-shard series must not collide with the
  // aggregate families the exposition renderer emits.
  EXPECT_EQ(text.find("nwc_queries_total{"), std::string::npos);
  // Every shard serves from a store: a never-updated router reports
  // epoch 1 on each.
  for (size_t s = 0; s < router->num_shards(); ++s) {
    EXPECT_NE(text.find("nwc_shard_epoch{shard=\"" + std::to_string(s) + "\"} 1\n"),
              std::string::npos)
        << text;
  }
}

}  // namespace
}  // namespace nwc
