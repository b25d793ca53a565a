// Sharded-serving acceptance differential: routed NWC and kNWC answers
// through a 4-shard ShardRouter must be bit-exact (statuses, distances,
// member ids, positions) against a single-tree oracle over the same data,
// across all four scheme presets, before and across MVCC updates, and
// under random read faults on every shard the router must answer
// bit-exact or fail with the shard's typed error — never silently wrong.
//
// Two carve-outs, checked rather than waved away. (1) Ties: when two
// distinct groups achieve the *identical* distance, the single-tree engine
// keeps whichever one its best-first traversal discovers first — a
// tiebreak order no sharded merge can observe. On such exact ties the
// routed group is accepted iff it is provably an equally-optimal answer:
// same cardinality, fits the query window, and its distance recomputed
// from its own members equals the oracle's bit-for-bit. (2) kNWC overlap
// chains: beyond the nearest group the engine's online Step 1-5
// maintenance is offer-order-dependent (its header documents the greedy
// rejection chains as approximate), so secondary groups may legitimately
// differ — the routed list is then held to the structural contract
// (honest distances, sorted, pairwise overlap within m). Group 0 and all
// NWC answers stay strictly bit-exact up to provable ties, and
// divergences must stay the rare exception.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/distance_measures.h"
#include "core/nwc_types.h"
#include "datasets/generators.h"
#include "rtree/bulk_load.h"
#include "service/query_service.h"
#include "service/session.h"
#include "service/shard_router.h"
#include "service/snapshot.h"

namespace nwc {
namespace {

constexpr uint64_t kSeed = 20160315;
constexpr double kMaxWindow = 400.0;

ShardRouterConfig RouterConfig(size_t num_shards) {
  ShardRouterConfig config;
  config.num_shards = num_shards;
  config.max_window_length = kMaxWindow;
  config.max_window_width = kMaxWindow;
  config.service.num_threads = 2;
  return config;
}

/// Seeded request mix across the four presets and all measures; windows
/// stay within the router's max-window bound.
std::vector<NwcRequest> SeededNwcRequests(size_t count, uint64_t salt) {
  const NwcOptions presets[] = {NwcOptions::Plain(), NwcOptions::Plus(), NwcOptions::Star(),
                                NwcOptions::Dep()};
  Rng rng(kSeed ^ salt);
  std::vector<NwcRequest> requests;
  for (size_t i = 0; i < count; ++i) {
    NwcRequest request;
    request.query.q = Point{rng.NextDouble(0, 10000), rng.NextDouble(0, 10000)};
    request.query.length = rng.NextDouble(60, kMaxWindow);
    request.query.width = rng.NextDouble(60, kMaxWindow);
    request.query.n = 3 + rng.NextUint64(8);
    NwcOptions options = presets[i % std::size(presets)];
    options.measure = static_cast<DistanceMeasure>(i % 4);
    request.options = options;
    requests.push_back(request);
  }
  return requests;
}

std::vector<KnwcRequest> SeededKnwcRequests(size_t count, uint64_t salt) {
  const NwcOptions presets[] = {NwcOptions::Plain(), NwcOptions::Plus(), NwcOptions::Star(),
                                NwcOptions::Dep()};
  Rng rng(kSeed ^ salt ^ 0xA3);
  std::vector<KnwcRequest> requests;
  for (size_t i = 0; i < count; ++i) {
    KnwcRequest request;
    request.query.base.q = Point{rng.NextDouble(0, 10000), rng.NextDouble(0, 10000)};
    request.query.base.length = rng.NextDouble(100, kMaxWindow);
    request.query.base.width = rng.NextDouble(100, kMaxWindow);
    request.query.base.n = 4 + rng.NextUint64(5);
    request.query.k = 2 + rng.NextUint64(3);
    request.query.m = rng.NextUint64(request.query.base.n - 1);
    request.options = presets[i % std::size(presets)];
    requests.push_back(request);
  }
  return requests;
}

bool SameObjects(const std::vector<DataObject>& got, const std::vector<DataObject>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < want.size(); ++i) {
    if (got[i].id != want[i].id || got[i].pos.x != want[i].pos.x ||
        got[i].pos.y != want[i].pos.y) {
      return false;
    }
  }
  return true;
}

size_t SharedMembers(const std::vector<DataObject>& a, const std::vector<DataObject>& b) {
  std::vector<ObjectId> sa, sb;
  sa.reserve(a.size());
  sb.reserve(b.size());
  for (const DataObject& o : a) sa.push_back(o.id);
  for (const DataObject& o : b) sb.push_back(o.id);
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  size_t i = 0, j = 0, shared = 0;
  while (i < sa.size() && j < sb.size()) {
    if (sa[i] < sb[j]) {
      ++i;
    } else if (sb[j] < sa[i]) {
      ++j;
    } else {
      ++shared;
      ++i;
      ++j;
    }
  }
  return shared;
}

/// Exact-or-tied group comparison. Returns true on a member-for-member
/// match; otherwise asserts the routed group is an equally-optimal
/// alternative (exact distance tie — see the file header) and returns
/// false so callers can count the divergence.
bool ExpectGroupExactOrTied(const std::vector<DataObject>& got,
                            const std::vector<DataObject>& want, double want_distance,
                            const NwcQuery& query, DistanceMeasure measure, size_t index) {
  if (SameObjects(got, want)) return true;
  EXPECT_EQ(got.size(), query.n) << "request " << index << ": tie-divergent group wrong size";
  EXPECT_TRUE(GroupFitsWindow(got, query.length, query.width))
      << "request " << index << ": tie-divergent group does not fit the window";
  if (!got.empty()) {
    const double got_distance = GroupDistance(query.q, got, query.length, query.width, measure);
    EXPECT_EQ(got_distance, want_distance)
        << "request " << index
        << ": divergent group must achieve the oracle's distance bit-for-bit";
  }
  return false;
}

void ExpectNwcBitExact(const NwcResponse& routed, const NwcResponse& oracle,
                       const NwcRequest& request, size_t index, size_t* ties = nullptr) {
  ASSERT_EQ(routed.status.code(), oracle.status.code())
      << "request " << index << ": " << routed.status << " vs " << oracle.status;
  if (!oracle.status.ok()) return;
  ASSERT_EQ(routed.result.found, oracle.result.found) << "request " << index;
  if (oracle.result.found) {
    ASSERT_EQ(routed.result.distance, oracle.result.distance) << "request " << index;
    if (!ExpectGroupExactOrTied(routed.result.objects, oracle.result.objects,
                                oracle.result.distance, request.query, request.options->measure,
                                index) &&
        ties != nullptr) {
      ++*ties;
    }
  }
}

void ExpectKnwcBitExact(const KnwcResponse& routed, const KnwcResponse& oracle,
                        const KnwcRequest& request, size_t index, size_t* ties = nullptr) {
  ASSERT_EQ(routed.status.code(), oracle.status.code())
      << "request " << index << ": " << routed.status << " vs " << oracle.status;
  if (!oracle.status.ok()) return;
  ASSERT_EQ(routed.result.groups.size(), oracle.result.groups.size()) << "request " << index;
  // Bit-exact up to the first divergence. Beyond group 0 the single-tree
  // engine's ONLINE maintenance (knwc_engine.cc Steps 1-5) is
  // offer-order-dependent: a candidate can be permanently dropped against
  // an intermediate group that is itself later removed, an order the
  // router's canonical cross-shard merge cannot (and should not)
  // replicate — the engine's own header documents these rejection chains
  // as approximate. So a divergence is accepted iff it is a distance tie
  // (any group) or an overlap-chain artifact (groups >= 1 only — the
  // nearest group can never be evicted, so group 0 must stay exact up to
  // ties), and from there the routed suffix is held to the structural
  // contract: valid sorted groups whose claimed distances are honest,
  // pairwise overlap within m.
  bool diverged = false;
  for (size_t g = 0; g < oracle.result.groups.size(); ++g) {
    const auto& got = routed.result.groups[g];
    const auto& want = oracle.result.groups[g];
    if (!diverged) {
      if (got.distance == want.distance) {
        if (!ExpectGroupExactOrTied(got.objects, want.objects, want.distance, request.query.base,
                                    request.options->measure, index)) {
          diverged = true;
        }
        continue;
      }
      ASSERT_GE(g, 1u) << "request " << index
                       << ": the nearest group must never chain-diverge; got " << got.distance
                       << " vs " << want.distance;
      diverged = true;
      // Falls through to the structural checks for this group.
    }
    EXPECT_EQ(got.objects.size(), request.query.base.n) << "request " << index << " group " << g;
    EXPECT_TRUE(
        GroupFitsWindow(got.objects, request.query.base.length, request.query.base.width))
        << "request " << index << " group " << g;
    if (!got.objects.empty()) {
      EXPECT_EQ(GroupDistance(request.query.base.q, got.objects, request.query.base.length,
                              request.query.base.width, request.options->measure),
                got.distance)
          << "request " << index << " group " << g << ": claimed distance must be honest";
    }
    EXPECT_GE(got.distance, routed.result.groups[g - 1].distance)
        << "request " << index << " group " << g << ": results must stay sorted";
  }
  if (diverged) {
    // A tie-divergent list must still honor the engine's pairwise
    // overlap-m invariant — equally optimal AND structurally legal.
    for (size_t g = 0; g < routed.result.groups.size(); ++g) {
      for (size_t h = g + 1; h < routed.result.groups.size(); ++h) {
        EXPECT_LE(SharedMembers(routed.result.groups[g].objects, routed.result.groups[h].objects),
                  request.query.m)
            << "request " << index << " groups " << g << "," << h;
      }
    }
    if (ties != nullptr) ++*ties;
  }
}

// ---------------------------------------------------------------------------
// Never-updated data: 4-shard router vs a single-tree QueryService oracle.

class ShardStaticDifferential : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = MakeCaLike(kSeed, 4000);
    SessionConfig session_config;
    session_config.grid_space = dataset_.space;
    Result<Session> session =
        Session::Open(BulkLoadStr(dataset_.objects, RTreeOptions{}), session_config);
    ASSERT_TRUE(session.ok()) << session.status();
    oracle_session_ = std::make_unique<Session>(std::move(session).value());
    ServiceConfig service_config;
    service_config.num_threads = 2;
    oracle_ = std::make_unique<QueryService>(*oracle_session_, service_config);

    Result<std::unique_ptr<ShardRouter>> router =
        ShardRouter::Open(dataset_.objects, RouterConfig(4));
    ASSERT_TRUE(router.ok()) << router.status();
    router_ = std::move(router).value();
  }

  Dataset dataset_;
  std::unique_ptr<Session> oracle_session_;
  std::unique_ptr<QueryService> oracle_;
  std::unique_ptr<ShardRouter> router_;
};

TEST_F(ShardStaticDifferential, NwcBitExactAcrossAllPresets) {
  const std::vector<NwcRequest> requests = SeededNwcRequests(160, 0x51A);
  size_t found = 0;
  size_t ties = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const NwcResponse routed = router_->RouteNwc(requests[i]);
    const NwcResponse oracle = oracle_->SubmitNwc(requests[i]).get();
    ExpectNwcBitExact(routed, oracle, requests[i], i, &ties);
    if (oracle.status.ok() && oracle.result.found) ++found;
  }
  EXPECT_GT(found, requests.size() / 2) << "the mix should mostly find windows";
  EXPECT_LE(ties, requests.size() / 5) << "tie divergence must stay the rare exception";
}

TEST_F(ShardStaticDifferential, KnwcBitExactAcrossAllPresets) {
  const std::vector<KnwcRequest> requests = SeededKnwcRequests(80, 0x51A);
  size_t with_groups = 0;
  size_t ties = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const KnwcResponse routed = router_->RouteKnwc(requests[i]);
    const KnwcResponse oracle = oracle_->SubmitKnwc(requests[i]).get();
    ExpectKnwcBitExact(routed, oracle, requests[i], i, &ties);
    if (oracle.status.ok() && !oracle.result.groups.empty()) ++with_groups;
  }
  EXPECT_GT(with_groups, requests.size() / 2);
  EXPECT_LE(ties, requests.size() / 5) << "tie divergence must stay the rare exception";
}

TEST_F(ShardStaticDifferential, ShardCountSweepStaysBitExact) {
  // 2 and 8 shards route the same stream to the same answers — the
  // partition arity must never show through.
  const std::vector<NwcRequest> requests = SeededNwcRequests(60, 0xCE);
  for (const size_t shards : {size_t{2}, size_t{8}}) {
    Result<std::unique_ptr<ShardRouter>> router =
        ShardRouter::Open(dataset_.objects, RouterConfig(shards));
    ASSERT_TRUE(router.ok()) << router.status();
    for (size_t i = 0; i < requests.size(); ++i) {
      const NwcResponse routed = (*router)->RouteNwc(requests[i]);
      const NwcResponse oracle = oracle_->SubmitNwc(requests[i]).get();
      ExpectNwcBitExact(routed, oracle, requests[i], i);
    }
  }
}

// ---------------------------------------------------------------------------
// Updated data: mutations quiesced between query phases (each shard is
// individually MVCC-consistent; cross-shard publication is not atomic, so
// bit-exactness is asserted at update quiescence — the documented
// contract).

TEST(ShardDynamicDifferential, BitExactAcrossEpochsAgainstSingleStoreOracle) {
  Dataset dataset = MakeCaLike(kSeed, 3000);
  SnapshotStore::Config store_config;
  store_config.session.grid_space = dataset.space;
  Result<std::unique_ptr<SnapshotStore>> store =
      SnapshotStore::Open(BulkLoadStr(dataset.objects, RTreeOptions{}), store_config);
  ASSERT_TRUE(store.ok()) << store.status();
  ServiceConfig service_config;
  service_config.num_threads = 2;
  QueryService oracle(**store, service_config);

  Result<std::unique_ptr<ShardRouter>> router =
      ShardRouter::Open(dataset.objects, RouterConfig(4));
  ASSERT_TRUE(router.ok()) << router.status();

  // Mutation stream: inserts clustered near query hot spots plus deletes
  // of existing objects (correct positions — the router routes deletes by
  // position, and the tree needs it too).
  Rng rng(kSeed ^ 0xD1);
  ObjectId next_id = 800000;
  for (int epoch = 0; epoch < 4; ++epoch) {
    MutationBatch batch;
    for (int i = 0; i < 30; ++i) {
      batch.push_back(Mutation::Insert(
          DataObject{next_id++, Point{rng.NextDouble(0, 10000), rng.NextDouble(0, 10000)}}));
    }
    for (int i = 0; i < 10; ++i) {
      const DataObject& victim = dataset.objects[rng.NextUint64(dataset.objects.size())];
      batch.push_back(Mutation::Delete(victim));
    }
    const UpdateResponse oracle_applied = oracle.ApplyUpdate(batch);
    const UpdateResponse routed_applied = (*router)->ApplyUpdate(batch);
    // Repeated deletes of the same victim across epochs can miss — but
    // the router must report exactly what the oracle reports.
    EXPECT_EQ(routed_applied.status.code(), oracle_applied.status.code())
        << "epoch " << epoch << ": " << routed_applied.status << " vs "
        << oracle_applied.status;
    EXPECT_EQ(routed_applied.applied_inserts, oracle_applied.applied_inserts);
    EXPECT_EQ(routed_applied.applied_deletes, oracle_applied.applied_deletes);
    EXPECT_EQ(routed_applied.delete_misses, oracle_applied.delete_misses);

    size_t ties = 0;
    const std::vector<NwcRequest> nwc_requests =
        SeededNwcRequests(40, 0xE0 + static_cast<uint64_t>(epoch));
    for (size_t i = 0; i < nwc_requests.size(); ++i) {
      ExpectNwcBitExact((*router)->RouteNwc(nwc_requests[i]),
                        oracle.SubmitNwc(nwc_requests[i]).get(), nwc_requests[i], i, &ties);
    }
    const std::vector<KnwcRequest> knwc_requests =
        SeededKnwcRequests(20, 0xE0 + static_cast<uint64_t>(epoch));
    for (size_t i = 0; i < knwc_requests.size(); ++i) {
      // Index offset keeps kNWC failures distinguishable from NWC ones.
      ExpectKnwcBitExact((*router)->RouteKnwc(knwc_requests[i]),
                         oracle.SubmitKnwc(knwc_requests[i]).get(), knwc_requests[i], 1000 + i,
                         &ties);
    }
    EXPECT_LE(ties, (nwc_requests.size() + knwc_requests.size()) / 5)
        << "epoch " << epoch << ": tie divergence must stay the rare exception";
  }
}

// ---------------------------------------------------------------------------
// Fault injection: every shard's reads fail at random.

/// Per-read fault probability: high enough that many requests meet a
/// fault, low enough that many finish.
constexpr double kFaultRate = 0.001;

class ShardFaultDifferential : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = MakeCaLike(kSeed, 3000);
    SessionConfig session_config;
    session_config.grid_space = dataset_.space;
    Result<Session> session =
        Session::Open(BulkLoadStr(dataset_.objects, RTreeOptions{}), session_config);
    ASSERT_TRUE(session.ok()) << session.status();
    oracle_session_ = std::make_unique<Session>(std::move(session).value());
    ServiceConfig service_config;
    service_config.num_threads = 2;
    oracle_ = std::make_unique<QueryService>(*oracle_session_, service_config);
  }

  std::unique_ptr<ShardRouter> OpenFaulty() {
    ShardRouterConfig config = RouterConfig(4);
    config.service.fault_plan = FaultPlan::Bernoulli(kFaultRate, kSeed);
    Result<std::unique_ptr<ShardRouter>> router =
        ShardRouter::Open(dataset_.objects, config);
    EXPECT_TRUE(router.ok()) << router.status();
    return std::move(router).value();
  }

  Dataset dataset_;
  std::unique_ptr<Session> oracle_session_;
  std::unique_ptr<QueryService> oracle_;
};

TEST_F(ShardFaultDifferential, FailPolicyAnswersBitExactOrTypedError) {
  const auto router = OpenFaulty();
  size_t answered = 0;
  size_t errors = 0;
  const std::vector<NwcRequest> nwc_requests = SeededNwcRequests(80, 0xFA);
  for (size_t i = 0; i < nwc_requests.size(); ++i) {
    const NwcResponse routed = router->RouteNwc(nwc_requests[i]);
    if (!routed.status.ok()) {
      // A shard's typed error surfaced untouched, with no answer.
      EXPECT_EQ(routed.status.code(), StatusCode::kIoError) << routed.status;
      EXPECT_FALSE(routed.result.found) << "request " << i;
      ++errors;
      continue;
    }
    ExpectNwcBitExact(routed, oracle_->SubmitNwc(nwc_requests[i]).get(), nwc_requests[i], i);
    ++answered;
  }
  const std::vector<KnwcRequest> knwc_requests = SeededKnwcRequests(20, 0xFA);
  for (size_t i = 0; i < knwc_requests.size(); ++i) {
    const KnwcResponse routed = router->RouteKnwc(knwc_requests[i]);
    if (!routed.status.ok()) {
      EXPECT_EQ(routed.status.code(), StatusCode::kIoError) << routed.status;
      ++errors;
      continue;
    }
    ExpectKnwcBitExact(routed, oracle_->SubmitKnwc(knwc_requests[i]).get(), knwc_requests[i],
                       i);
    ++answered;
  }
  EXPECT_GT(answered, 0u) << "the fault rate must let some requests through";
  EXPECT_GT(errors, 0u) << "the fault rate must fail some requests";
}

TEST_F(ShardFaultDifferential, KnwcFailPolicySurfacesTheShardError) {
  const auto router = OpenFaulty();
  const std::vector<KnwcRequest> requests = SeededKnwcRequests(20, 0xFB);
  size_t errors = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const KnwcResponse routed = router->RouteKnwc(requests[i]);
    if (routed.status.ok()) continue;
    // The scatter met a fault: the typed error, the reads made, and no
    // groups — never an answer narrowed to the shards that finished.
    EXPECT_EQ(routed.status.code(), StatusCode::kIoError)
        << "request " << i << ": " << routed.status;
    EXPECT_TRUE(routed.result.groups.empty()) << "request " << i;
    EXPECT_GT(routed.traversal_reads + routed.window_query_reads, 0u) << "request " << i;
    ++errors;
  }
  EXPECT_GT(errors, 0u) << "a scatter over four faulty shards must sometimes fail";
}

}  // namespace
}  // namespace nwc
