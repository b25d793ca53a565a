// Every public single-request submit is an adapter over one stamped path
// per backend (QueryService::Submit, ShardRouter::SubmitRouted). This
// suite runs the same contract over each adapter — the future, callback
// and stamped callback submits on a QueryService and on a one-shard
// ShardRouter:
//   * responses equal a direct engine call over the same index stack;
//   * `done` fires exactly once on the invalid, unsupported, shed and
//     post-shutdown paths;
//   * stamps are ordered enqueue <= dequeue <= finish when the request
//     ran, and all equal on the synchronous failure paths;
//   * under a shed watermark, queries + shed == submitted.

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/knwc_engine.h"
#include "core/nwc_engine.h"
#include "datasets/generators.h"
#include "service/query_service.h"
#include "service/shard_router.h"

namespace nwc {
namespace {

constexpr uint64_t kSeed = 20160315;

enum class BackendKind { kService, kRouter };
enum class Adapter { kFuture, kAsync, kAsyncTraced };

struct AdapterCase {
  BackendKind backend;
  Adapter adapter;
  const char* name;
};

template <typename Request>
using ResponseFor =
    std::conditional_t<std::is_same_v<Request, NwcRequest>, NwcResponse, KnwcResponse>;

/// One submission's completion record. `calls` counts every run of the
/// adapter's completion; only the first is kept. The future adapter can
/// only resolve once, so collecting it counts one call.
template <typename Response>
struct Delivery {
  std::atomic<int> calls{0};
  std::promise<void> delivered;
  std::future<void> delivered_future = delivered.get_future();
  std::future<Response> future;  // the future adapter's result
  Response response;
  std::optional<AsyncTiming> stamps;  // only the stamped adapter sees them

  void Deliver(Response r, std::optional<AsyncTiming> t) {
    if (calls.fetch_add(1) != 0) return;
    response = std::move(r);
    stamps = t;
    delivered.set_value();
  }

  /// True when the completion already ran (or the future is ready).
  bool Ready() const {
    if (!future.valid()) return calls.load() > 0;
    return future.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  }

  const Response& Wait() {
    if (future.valid()) Deliver(future.get(), std::nullopt);
    delivered_future.wait();
    return response;
  }
};

template <typename Request>
std::shared_ptr<Delivery<ResponseFor<Request>>> SubmitThrough(QueryBackend& backend,
                                                              Adapter adapter,
                                                              Request request) {
  using Response = ResponseFor<Request>;
  constexpr bool kNwc = std::is_same_v<Request, NwcRequest>;
  auto delivery = std::make_shared<Delivery<Response>>();
  switch (adapter) {
    case Adapter::kFuture:
      if constexpr (kNwc) {
        delivery->future = backend.SubmitNwc(std::move(request));
      } else {
        delivery->future = backend.SubmitKnwc(std::move(request));
      }
      break;
    case Adapter::kAsync: {
      auto done = [delivery](Response r) { delivery->Deliver(std::move(r), std::nullopt); };
      if constexpr (kNwc) {
        backend.SubmitNwcAsync(std::move(request), done);
      } else {
        backend.SubmitKnwcAsync(std::move(request), done);
      }
      break;
    }
    case Adapter::kAsyncTraced: {
      auto done = [delivery](Response r, const AsyncTiming& t) {
        delivery->Deliver(std::move(r), t);
      };
      if constexpr (kNwc) {
        backend.SubmitNwcAsyncTraced(std::move(request), done);
      } else {
        backend.SubmitKnwcAsyncTraced(std::move(request), done);
      }
      break;
    }
  }
  return delivery;
}

template <typename Response>
void ExpectOrderedStamps(const Delivery<Response>& delivery) {
  if (!delivery.stamps.has_value()) return;
  EXPECT_LE(delivery.stamps->enqueue_us, delivery.stamps->dequeue_us);
  EXPECT_LE(delivery.stamps->dequeue_us, delivery.stamps->finish_us);
}

template <typename Response>
void ExpectEqualStamps(const Delivery<Response>& delivery) {
  if (!delivery.stamps.has_value()) return;
  EXPECT_EQ(delivery.stamps->enqueue_us, delivery.stamps->dequeue_us);
  EXPECT_EQ(delivery.stamps->dequeue_us, delivery.stamps->finish_us);
}

/// The backend under test plus the oracle session it must agree with. A
/// one-shard router builds its shard tree by inserting the objects in
/// order over the global space, so the oracle session is built the same
/// way and both backends answer over identical trees.
class SubmitAdapterTest : public ::testing::TestWithParam<AdapterCase> {
 protected:
  void Open(ServiceConfig service_config, bool build_iwp = true) {
    const Dataset dataset = MakeCaLike(kSeed, 2000);
    Rect space = Rect::Empty();
    RStarTree tree(RTreeOptions{});
    for (const DataObject& object : dataset.objects) {
      space.Expand(object.pos);
      tree.Insert(object);
    }
    SessionConfig session_config;
    session_config.build_iwp = build_iwp;
    session_config.grid_space = space;
    Result<Session> session = Session::Open(std::move(tree), session_config);
    ASSERT_TRUE(session.ok()) << session.status();
    session_ = std::make_unique<Session>(std::move(session).value());

    if (GetParam().backend == BackendKind::kService) {
      service_ = std::make_unique<QueryService>(*session_, service_config);
      return;
    }
    ShardRouterConfig config;
    config.num_shards = 1;
    config.service = service_config;
    config.session.build_iwp = build_iwp;
    // Three executors keep more routed requests outstanding at the shard
    // than one worker plus a watermark of one queued job can admit.
    config.router_threads = 3;
    Result<std::unique_ptr<ShardRouter>> router = ShardRouter::Open(dataset.objects, config);
    ASSERT_TRUE(router.ok()) << router.status();
    router_ = std::move(router).value();
  }

  QueryBackend& backend() {
    return service_ != nullptr ? static_cast<QueryBackend&>(*service_) : *router_;
  }
  Adapter adapter() const { return GetParam().adapter; }
  bool is_service() const { return GetParam().backend == BackendKind::kService; }

  void Shutdown() {
    if (service_ != nullptr) service_->Shutdown();
    if (router_ != nullptr) router_->Shutdown();
  }

  std::unique_ptr<Session> session_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<ShardRouter> router_;
};

NwcRequest ValidNwc() { return NwcRequest{NwcQuery{Point{5000, 5000}, 300, 300, 4}, {}, 0}; }

TEST_P(SubmitAdapterTest, ResponsesMatchDirectEngine) {
  Open(ServiceConfig{.num_threads = 2});
  Rng rng(kSeed ^ 0xADA);
  const NwcOptions options = ServiceConfig{}.default_options;
  NwcEngine nwc_engine(session_->tree(), session_->iwp(), session_->grid());
  KnwcEngine knwc_engine(session_->tree(), session_->iwp(), session_->grid());

  for (size_t i = 0; i < 12; ++i) {
    const NwcQuery base{Point{rng.NextDouble(0, 10000), rng.NextDouble(0, 10000)},
                        rng.NextDouble(80, 400), rng.NextDouble(80, 400),
                        3 + rng.NextUint64(6)};
    auto nwc = SubmitThrough(backend(), adapter(), NwcRequest{base, {}, 0});
    const KnwcQuery knwc_query{base, 2 + rng.NextUint64(3), rng.NextUint64(base.n - 1)};
    auto knwc = SubmitThrough(backend(), adapter(), KnwcRequest{knwc_query, {}, 0});

    const Result<NwcResult> want_nwc = nwc_engine.Execute(base, options, nullptr);
    ASSERT_TRUE(want_nwc.ok());
    const NwcResponse& got_nwc = nwc->Wait();
    ASSERT_TRUE(got_nwc.status.ok()) << "query " << i << ": " << got_nwc.status;
    EXPECT_FALSE(got_nwc.degraded);
    EXPECT_EQ(got_nwc.result.found, want_nwc->found) << "query " << i;
    EXPECT_EQ(got_nwc.result.distance, want_nwc->distance) << "query " << i;
    EXPECT_EQ(got_nwc.result.objects, want_nwc->objects) << "query " << i;
    ExpectOrderedStamps(*nwc);

    const Result<KnwcResult> want_knwc = knwc_engine.Execute(knwc_query, options, nullptr);
    ASSERT_TRUE(want_knwc.ok());
    const KnwcResponse& got_knwc = knwc->Wait();
    ASSERT_TRUE(got_knwc.status.ok()) << "query " << i << ": " << got_knwc.status;
    ASSERT_EQ(got_knwc.result.groups.size(), want_knwc->groups.size()) << "query " << i;
    for (size_t g = 0; g < want_knwc->groups.size(); ++g) {
      EXPECT_EQ(got_knwc.result.groups[g].distance, want_knwc->groups[g].distance)
          << "query " << i << " group " << g;
      EXPECT_EQ(got_knwc.result.groups[g].objects, want_knwc->groups[g].objects)
          << "query " << i << " group " << g;
    }
    ExpectOrderedStamps(*knwc);
  }
  Shutdown();
}

TEST_P(SubmitAdapterTest, InvalidQueryDeliversOnceWithOrderedStamps) {
  Open(ServiceConfig{.num_threads = 2});
  NwcRequest nwc = ValidNwc();
  nwc.query.n = 0;
  KnwcRequest knwc{KnwcQuery{ValidNwc().query, 2, 1}, {}, 0};
  knwc.query.base.length = 0;
  auto nwc_delivery = SubmitThrough(backend(), adapter(), nwc);
  auto knwc_delivery = SubmitThrough(backend(), adapter(), knwc);
  EXPECT_EQ(nwc_delivery->Wait().status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(knwc_delivery->Wait().status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(nwc_delivery->response.degraded);
  EXPECT_FALSE(knwc_delivery->response.degraded);
  // Both backends run the request (the engine or the router validates it).
  ExpectOrderedStamps(*nwc_delivery);
  ExpectOrderedStamps(*knwc_delivery);
  Shutdown();
  EXPECT_EQ(nwc_delivery->calls.load(), 1);
  EXPECT_EQ(knwc_delivery->calls.load(), 1);
}

TEST_P(SubmitAdapterTest, UnsupportedSchemeDeliversOnce) {
  Open(ServiceConfig{.num_threads = 2}, /*build_iwp=*/false);
  NwcRequest request = ValidNwc();
  request.options = NwcOptions::Iwp();
  auto delivery = SubmitThrough(backend(), adapter(), request);
  if (is_service()) {
    // The service rejects it at submit time, before any queue.
    EXPECT_TRUE(delivery->Ready());
  }
  EXPECT_EQ(delivery->Wait().status.code(), StatusCode::kFailedPrecondition);
  if (is_service()) {
    ExpectEqualStamps(*delivery);
  } else {
    ExpectOrderedStamps(*delivery);  // the shard's rejection surfaces through the route
  }
  Shutdown();
  EXPECT_EQ(delivery->calls.load(), 1);
}

TEST_P(SubmitAdapterTest, ShedWatermarkConservesEveryRequest) {
  ServiceConfig config;
  config.num_threads = 1;
  config.shed_queue_depth = 1;  // anything behind one queued job sheds
  // Every read sleeps, so the single worker cannot drain the queue while
  // submissions keep arriving.
  config.fault_plan = FaultPlan::LatencySpike(1, 500);
  Open(config);

  constexpr size_t kSubmitted = 16;
  std::vector<std::shared_ptr<Delivery<NwcResponse>>> deliveries;
  for (size_t i = 0; i < kSubmitted; ++i) {
    deliveries.push_back(SubmitThrough(backend(), adapter(), ValidNwc()));
  }
  uint64_t ok = 0;
  uint64_t shed = 0;
  for (const auto& delivery : deliveries) {
    const NwcResponse& response = delivery->Wait();
    if (response.status.code() == StatusCode::kUnavailable) {
      ++shed;
      if (is_service()) {
        ExpectEqualStamps(*delivery);  // shed at submit time
      } else {
        ExpectOrderedStamps(*delivery);  // shed by the shard, inside the route
      }
    } else {
      EXPECT_TRUE(response.status.ok()) << response.status;
      ++ok;
      ExpectOrderedStamps(*delivery);
    }
  }
  Shutdown();
  for (const auto& delivery : deliveries) EXPECT_EQ(delivery->calls.load(), 1);

  const MetricsSnapshot metrics = is_service() ? service_->SnapshotMetrics()
                                               : router_->SnapshotMetrics();
  EXPECT_EQ(ok + shed, kSubmitted);
  EXPECT_GT(shed, 0u) << "a slow single worker behind a watermark of 1 must shed";
  EXPECT_GT(ok, 0u);
  EXPECT_EQ(metrics.shed, shed);
  if (is_service()) {
    // Shed requests never ran, so they are outside the query count.
    EXPECT_EQ(metrics.queries, ok);
    EXPECT_EQ(metrics.queries + metrics.shed, kSubmitted);
  } else {
    // The router counts every routed request once, a shard-shed one as a
    // failed request.
    EXPECT_EQ(metrics.queries, kSubmitted);
    EXPECT_EQ(metrics.failures, shed);
  }
}

TEST_P(SubmitAdapterTest, SubmitAfterShutdownDeliversOnceWithEqualStamps) {
  Open(ServiceConfig{.num_threads = 2});
  EXPECT_TRUE(SubmitThrough(backend(), adapter(), ValidNwc())->Wait().status.ok());
  Shutdown();
  auto nwc = SubmitThrough(backend(), adapter(), ValidNwc());
  auto knwc =
      SubmitThrough(backend(), adapter(), KnwcRequest{KnwcQuery{ValidNwc().query, 2, 1}, {}, 0});
  // Rejected synchronously, inside the submit call.
  EXPECT_TRUE(nwc->Ready());
  EXPECT_TRUE(knwc->Ready());
  EXPECT_EQ(nwc->Wait().status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(knwc->Wait().status.code(), StatusCode::kFailedPrecondition);
  ExpectEqualStamps(*nwc);
  ExpectEqualStamps(*knwc);
  EXPECT_EQ(nwc->calls.load(), 1);
  EXPECT_EQ(knwc->calls.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(
    EveryAdapter, SubmitAdapterTest,
    ::testing::Values(AdapterCase{BackendKind::kService, Adapter::kFuture, "ServiceFuture"},
                      AdapterCase{BackendKind::kService, Adapter::kAsync, "ServiceAsync"},
                      AdapterCase{BackendKind::kService, Adapter::kAsyncTraced,
                                  "ServiceAsyncTraced"},
                      AdapterCase{BackendKind::kRouter, Adapter::kFuture, "RouterFuture"},
                      AdapterCase{BackendKind::kRouter, Adapter::kAsync, "RouterAsync"},
                      AdapterCase{BackendKind::kRouter, Adapter::kAsyncTraced,
                                  "RouterAsyncTraced"}),
    [](const ::testing::TestParamInfo<AdapterCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace nwc
