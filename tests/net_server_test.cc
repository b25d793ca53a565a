// NetServer end-to-end tests over loopback TCP: the differential
// guarantee (responses through the server are bit-exact against direct
// QueryService submission, every preset, NWC + kNWC, error outcomes
// included), typed protocol errors for malformed frames, graceful drain
// with pipelined requests in flight, and per-connection backpressure that
// leaves other connections untouched.

#include "net/server.h"

#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/generators.h"
#include "net/client.h"
#include "net/wire.h"
#include "response_compare.h"
#include "rtree/bulk_load.h"
#include "service/query_service.h"

namespace nwc {
namespace {

constexpr uint64_t kSeed = 20160315;

Session OpenTestSession(size_t cardinality = 4000) {
  Dataset dataset = MakeCaLike(kSeed, cardinality);
  SessionConfig config;
  config.grid_space = dataset.space;
  Result<Session> session =
      Session::Open(BulkLoadStr(dataset.objects, RTreeOptions{}), config);
  EXPECT_TRUE(session.ok()) << session.status();
  return std::move(session).value();
}

std::unique_ptr<NetServer> StartServer(QueryService& service,
                                       NetServerConfig config = NetServerConfig()) {
  Result<std::unique_ptr<NetServer>> server = NetServer::Start(service, std::move(config));
  EXPECT_TRUE(server.ok()) << server.status();
  return std::move(server).value();
}

NetClient ConnectTo(const NetServer& server) {
  Result<NetClient> client = NetClient::Connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.ok()) << client.status();
  return std::move(client).value();
}

// The acceptance differential: one pipelined connection carries a seeded
// request stream across all four presets and both query kinds; every
// response must be bit-exact against direct in-process submission of the
// same request to the same service.
TEST(NetServer, DifferentialAgainstDirectSubmission) {
  const Session session = OpenTestSession();
  ServiceConfig config;
  config.num_threads = 4;
  QueryService service(session, config);
  const auto server = StartServer(service);
  NetClient client = ConnectTo(*server);

  const NwcOptions presets[] = {NwcOptions::Plain(), NwcOptions::Plus(), NwcOptions::Star(),
                                NwcOptions::Dep()};
  Rng rng(kSeed ^ 0xD1F);
  std::vector<NwcRequest> nwc_requests;
  std::vector<KnwcRequest> knwc_requests;
  for (size_t i = 0; i < 48; ++i) {
    NwcOptions options = presets[i % std::size(presets)];
    options.measure = static_cast<DistanceMeasure>(i % 4);
    NwcQuery base{Point{rng.NextDouble(0, 10000), rng.NextDouble(0, 10000)},
                  rng.NextDouble(80, 400), rng.NextDouble(80, 400), 3 + rng.NextUint64(8)};
    if (i % 2 == 0) {
      nwc_requests.push_back(NwcRequest{base, options, 0});
    } else {
      knwc_requests.push_back(
          KnwcRequest{KnwcQuery{base, 2 + rng.NextUint64(3), rng.NextUint64(base.n - 1)},
                      options, 0});
    }
  }

  // Pipeline everything: NWC requests get even ids, kNWC odd.
  for (size_t i = 0; i < nwc_requests.size(); ++i) {
    ASSERT_TRUE(client.SendNwc(2 * i, nwc_requests[i]).ok());
  }
  for (size_t i = 0; i < knwc_requests.size(); ++i) {
    ASSERT_TRUE(client.SendKnwc(2 * i + 1, knwc_requests[i]).ok());
  }

  std::map<uint64_t, NwcResponse> nwc_replies;
  std::map<uint64_t, KnwcResponse> knwc_replies;
  for (size_t i = 0; i < nwc_requests.size() + knwc_requests.size(); ++i) {
    NetReply reply;
    ASSERT_TRUE(client.Receive(&reply).ok());
    if (reply.type == MsgType::kNwcResponse) {
      nwc_replies[reply.request_id] = reply.nwc;
    } else {
      ASSERT_EQ(reply.type, MsgType::kKnwcResponse);
      knwc_replies[reply.request_id] = reply.knwc;
    }
  }
  ASSERT_EQ(nwc_replies.size(), nwc_requests.size());
  ASSERT_EQ(knwc_replies.size(), knwc_requests.size());

  for (size_t i = 0; i < nwc_requests.size(); ++i) {
    const NwcResponse direct = service.SubmitNwc(nwc_requests[i]).get();
    ExpectSameResponse(nwc_replies[2 * i], direct, i);
  }
  for (size_t i = 0; i < knwc_requests.size(); ++i) {
    const KnwcResponse direct = service.SubmitKnwc(knwc_requests[i]).get();
    ExpectSameResponse(knwc_replies[2 * i + 1], direct, i);
  }
}

TEST(NetServer, DeadlineExceededArrivesAsTypedResponse) {
  const Session session = OpenTestSession();
  QueryService service(session, ServiceConfig{});
  const auto server = StartServer(service);
  NetClient client = ConnectTo(*server);

  NwcRequest request;
  request.query = NwcQuery{Point{5000, 5000}, 200, 200, 4};
  request.deadline_micros = 1;  // expires before any worker can pick it up
  ASSERT_TRUE(client.SendNwc(1, request).ok());
  NetReply reply;
  ASSERT_TRUE(client.Receive(&reply).ok());
  ASSERT_EQ(reply.type, MsgType::kNwcResponse);
  EXPECT_EQ(reply.nwc.status.code(), StatusCode::kDeadlineExceeded);
}

TEST(NetServer, ShedRequestsArriveAsTypedUnavailable) {
  const Session session = OpenTestSession();
  ServiceConfig config;
  config.num_threads = 1;
  config.queue_capacity = 256;
  config.shed_queue_depth = 1;  // anything behind one queued job sheds
  // Slow every query down (~2ms of injected read latency) so the single
  // worker provably cannot drain the queue between the event loop's
  // back-to-back submits, even on a loaded single-core machine.
  config.fault_plan = FaultPlan::LatencySpike(1, 500);
  QueryService service(session, config);
  const auto server = StartServer(service);
  NetClient client = ConnectTo(*server);

  const size_t kBurst = 64;
  NwcRequest request;
  request.query = NwcQuery{Point{5000, 5000}, 300, 300, 6};
  for (size_t i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(client.SendNwc(i, request).ok());
  }
  size_t ok = 0;
  size_t shed = 0;
  for (size_t i = 0; i < kBurst; ++i) {
    NetReply reply;
    ASSERT_TRUE(client.Receive(&reply).ok());
    ASSERT_EQ(reply.type, MsgType::kNwcResponse);
    if (reply.nwc.status.code() == StatusCode::kUnavailable) {
      ++shed;
    } else {
      EXPECT_EQ(reply.nwc.status.code(), StatusCode::kOk);
      ++ok;
    }
  }
  // Every request is answered; past the watermark most of the burst sheds.
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GT(shed, 0u);
  EXPECT_GT(ok, 0u);
}

TEST(NetServer, CorruptStreamYieldsTypedErrorAndClose) {
  const Session session = OpenTestSession(500);
  QueryService service(session, ServiceConfig{});
  const auto server = StartServer(service);
  NetClient client = ConnectTo(*server);

  // A frame with an unknown type tag: kError (request id 0 — the stream
  // has no attributable frame), then connection close.
  std::string bogus("\x09\x00\x00\x00", 4);
  bogus += static_cast<char>(42);
  bogus += std::string(8, '\0');
  ASSERT_TRUE(client.SendRaw(bogus).ok());
  NetReply reply;
  ASSERT_TRUE(client.Receive(&reply).ok());
  EXPECT_EQ(reply.type, MsgType::kError);
  EXPECT_EQ(reply.request_id, 0u);
  EXPECT_EQ(reply.error.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(client.Receive(&reply).code(), StatusCode::kUnavailable);  // EOF
}

TEST(NetServer, OversizedFrameYieldsTypedErrorAndClose) {
  const Session session = OpenTestSession(500);
  QueryService service(session, ServiceConfig{});
  NetServerConfig net_config;
  net_config.max_frame_bytes = 4096;
  const auto server = StartServer(service, net_config);
  NetClient client = ConnectTo(*server);

  const uint32_t huge = 1u << 20;
  std::string bogus(reinterpret_cast<const char*>(&huge), sizeof(huge));
  bogus += std::string(16, '\x01');
  ASSERT_TRUE(client.SendRaw(bogus).ok());
  NetReply reply;
  ASSERT_TRUE(client.Receive(&reply).ok());
  EXPECT_EQ(reply.type, MsgType::kError);
  EXPECT_EQ(reply.error.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(client.Receive(&reply).code(), StatusCode::kUnavailable);
}

TEST(NetServer, UndecodableBodyCarriesTheFrameRequestId) {
  const Session session = OpenTestSession(500);
  QueryService service(session, ServiceConfig{});
  const auto server = StartServer(service);
  NetClient client = ConnectTo(*server);

  // Valid envelope (type kNwcRequest, id 77) with a truncated body.
  std::string frame;
  AppendFrame(&frame, MsgType::kNwcRequest, 77, "short");
  ASSERT_TRUE(client.SendRaw(frame).ok());
  NetReply reply;
  ASSERT_TRUE(client.Receive(&reply).ok());
  EXPECT_EQ(reply.type, MsgType::kError);
  EXPECT_EQ(reply.request_id, 77u);
  EXPECT_EQ(reply.error.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(client.Receive(&reply).code(), StatusCode::kUnavailable);
}

TEST(NetServer, InvalidQueryKeepsTheConnectionOpen) {
  const Session session = OpenTestSession(500);
  QueryService service(session, ServiceConfig{});
  const auto server = StartServer(service);
  NetClient client = ConnectTo(*server);

  // n == 0, a NaN window length and an infinite q.x are all invalid.
  uint64_t id = 5;
  NetReply reply;
  for (const NwcQuery& query :
       {NwcQuery{Point{0, 0}, 100, 100, 0},
        NwcQuery{Point{0, 0}, std::numeric_limits<double>::quiet_NaN(), 100, 4},
        NwcQuery{Point{std::numeric_limits<double>::infinity(), 0}, 100, 100, 4}}) {
    NwcRequest bad;
    bad.query = query;
    ASSERT_TRUE(client.SendNwc(id, bad).ok());
    ASSERT_TRUE(client.Receive(&reply).ok());
    ASSERT_EQ(reply.type, MsgType::kNwcResponse);
    EXPECT_EQ(reply.request_id, id);
    EXPECT_EQ(reply.nwc.status.code(), StatusCode::kInvalidArgument) << reply.nwc.status;
    ++id;
  }

  // Wire-valid input never costs the connection: the next request works.
  NwcRequest good;
  good.query = NwcQuery{Point{5000, 5000}, 300, 300, 4};
  ASSERT_TRUE(client.SendNwc(id, good).ok());
  ASSERT_TRUE(client.Receive(&reply).ok());
  ASSERT_EQ(reply.type, MsgType::kNwcResponse);
  EXPECT_EQ(reply.request_id, id);
  EXPECT_EQ(reply.nwc.status.code(), StatusCode::kOk);
}

// Graceful drain: every request the server has received is answered
// before connections close; the client sees all responses, then EOF.
TEST(NetServer, DrainFlushesEveryOutstandingResponse) {
  const Session session = OpenTestSession();
  ServiceConfig config;
  config.num_threads = 2;
  QueryService service(session, config);
  const auto server = StartServer(service);
  NetClient client = ConnectTo(*server);

  const size_t kInFlight = 32;
  Rng rng(kSeed ^ 0xD8);
  for (size_t i = 0; i < kInFlight; ++i) {
    NwcRequest request;
    request.query = NwcQuery{Point{rng.NextDouble(0, 10000), rng.NextDouble(0, 10000)}, 250,
                             250, 4};
    ASSERT_TRUE(client.SendNwc(i, request).ok());
  }
  // Wait until the event loop has decoded the full pipeline, so the drain
  // below provably starts with 32 requests in flight server-side.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server->SnapshotNetMetrics().frames_received < kInFlight) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "server never saw the pipeline";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server->RequestDrain();

  std::vector<bool> seen(kInFlight, false);
  for (size_t i = 0; i < kInFlight; ++i) {
    NetReply reply;
    ASSERT_TRUE(client.Receive(&reply).ok()) << "response " << i;
    ASSERT_EQ(reply.type, MsgType::kNwcResponse);
    ASSERT_LT(reply.request_id, kInFlight);
    EXPECT_FALSE(seen[reply.request_id]);
    seen[reply.request_id] = true;
    EXPECT_EQ(reply.nwc.status.code(), StatusCode::kOk);
  }
  NetReply reply;
  EXPECT_EQ(client.Receive(&reply).code(), StatusCode::kUnavailable);  // clean EOF
  server->Wait();  // loop exits: drain is complete
}

TEST(NetServer, HalfCloseStillFlushesResponses) {
  const Session session = OpenTestSession(500);
  QueryService service(session, ServiceConfig{});
  const auto server = StartServer(service);
  NetClient client = ConnectTo(*server);

  NwcRequest request;
  request.query = NwcQuery{Point{5000, 5000}, 300, 300, 4};
  ASSERT_TRUE(client.SendNwc(9, request).ok());
  client.CloseWrite();  // FIN: no more requests, but the response must come
  NetReply reply;
  ASSERT_TRUE(client.Receive(&reply).ok());
  ASSERT_EQ(reply.type, MsgType::kNwcResponse);
  EXPECT_EQ(reply.request_id, 9u);
  EXPECT_EQ(client.Receive(&reply).code(), StatusCode::kUnavailable);
}

// A peer that stops draining its responses hits the write watermark and
// gets its reads paused — while a second connection keeps being served.
TEST(NetServer, BackpressuredPeerDoesNotStallOthers) {
  const Session session = OpenTestSession(20000);
  ServiceConfig config;
  config.num_threads = 2;
  QueryService service(session, config);
  NetServerConfig net_config;
  net_config.write_high_watermark = 16 * 1024;
  net_config.write_low_watermark = 4 * 1024;
  // Pin the kernel buffers tiny on both sides: loopback autotuning would
  // otherwise absorb megabytes before the userspace watermark engages.
  net_config.send_buffer_bytes = 4 * 1024;
  const auto server = StartServer(service, net_config);

  Result<NetClient> stalled_client = NetClient::Connect("127.0.0.1", server->port(), 4 * 1024);
  ASSERT_TRUE(stalled_client.ok()) << stalled_client.status();
  NetClient stalled = std::move(stalled_client).value();
  NetClient healthy = ConnectTo(*server);

  // Big responses: n = 400 objects each (~9.6 KB on the wire), and the
  // stalled client refuses to read any of them.
  const size_t kBurst = 96;
  NwcRequest big;
  big.query = NwcQuery{Point{5000, 5000}, 4000, 4000, 400};
  for (size_t i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(stalled.SendNwc(i, big).ok());
  }

  // The healthy connection must keep round-tripping while the stalled
  // one's backlog grows past the watermark.
  NwcRequest small;
  small.query = NwcQuery{Point{5000, 5000}, 300, 300, 4};
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  uint64_t pauses = 0;
  while (pauses == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "backpressure never engaged";
    NetReply reply;
    ASSERT_TRUE(healthy.SendNwc(1000, small).ok());
    ASSERT_TRUE(healthy.Receive(&reply).ok());
    ASSERT_EQ(reply.type, MsgType::kNwcResponse);
    EXPECT_EQ(reply.nwc.status.code(), StatusCode::kOk);
    pauses = server->SnapshotNetMetrics().backpressure_pauses;
  }

  // Once the stalled peer drains, every pipelined response arrives.
  std::vector<bool> seen(kBurst, false);
  for (size_t i = 0; i < kBurst; ++i) {
    NetReply reply;
    ASSERT_TRUE(stalled.Receive(&reply).ok()) << "response " << i;
    ASSERT_EQ(reply.type, MsgType::kNwcResponse);
    ASSERT_LT(reply.request_id, kBurst);
    EXPECT_FALSE(seen[reply.request_id]);
    seen[reply.request_id] = true;
  }
}

// Accept-storm regression: the accept loop used to treat every accept4
// failure as fatal and stop accepting, so one aborted handshake (a peer
// that connects and dies before accept runs, surfacing ECONNABORTED)
// silently killed the listener. A storm of simultaneous connects — half
// of them closing immediately without sending a byte — must leave the
// server accepting and serving every well-behaved client, during and
// after the storm.
TEST(NetServer, AcceptStormWithAbortingPeersKeepsTheListenerAlive) {
  const Session session = OpenTestSession(1000);
  ServiceConfig config;
  config.num_threads = 2;
  QueryService service(session, config);
  const auto server = StartServer(service);

  constexpr int kWaves = 4;
  constexpr int kClientsPerWave = 8;
  std::atomic<int> served{0};
  std::atomic<int> connect_failures{0};
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClientsPerWave; ++c) {
      clients.emplace_back([&, c] {
        Result<NetClient> client = NetClient::Connect("127.0.0.1", server->port());
        if (!client.ok()) {
          connect_failures.fetch_add(1);
          return;
        }
        if (c % 2 == 1) return;  // abort: close without sending anything
        NwcRequest request;
        request.query = NwcQuery{Point{5000, 5000}, 300, 300, 4};
        if (!client->SendNwc(static_cast<uint64_t>(c), request).ok()) return;
        NetReply reply;
        if (client->Receive(&reply).ok() && reply.type == MsgType::kNwcResponse &&
            reply.nwc.status.ok()) {
          served.fetch_add(1);
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }

  EXPECT_EQ(connect_failures.load(), 0);
  EXPECT_EQ(served.load(), kWaves * kClientsPerWave / 2)
      << "every client that asked a question got its answer";

  // The listener survived the storm: a fresh connection still works.
  NetClient fresh = ConnectTo(*server);
  NwcRequest request;
  request.query = NwcQuery{Point{5000, 5000}, 300, 300, 4};
  ASSERT_TRUE(fresh.SendNwc(99, request).ok());
  NetReply reply;
  ASSERT_TRUE(fresh.Receive(&reply).ok());
  ASSERT_EQ(reply.type, MsgType::kNwcResponse);
  EXPECT_TRUE(reply.nwc.status.ok()) << reply.nwc.status;
  EXPECT_GE(server->SnapshotNetMetrics().connections_accepted,
            static_cast<uint64_t>(kWaves * kClientsPerWave / 2));
}

TEST(NetServer, StartRejectsBadConfig) {
  const Session session = OpenTestSession(500);
  QueryService service(session, ServiceConfig{});
  NetServerConfig net_config;
  net_config.write_low_watermark = 1u << 30;  // low > high
  Result<std::unique_ptr<NetServer>> server = NetServer::Start(service, net_config);
  EXPECT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument);

  net_config = NetServerConfig();
  net_config.host = "not-an-address";
  server = NetServer::Start(service, net_config);
  EXPECT_FALSE(server.ok());
}

TEST(NetServer, UpdateOnDynamicServerIsVisibleToLaterQueries) {
  Dataset dataset = MakeCaLike(kSeed, 2000);
  SnapshotStore::Config store_config;
  store_config.session.grid_space = dataset.space;
  Result<std::unique_ptr<SnapshotStore>> store =
      SnapshotStore::Open(BulkLoadStr(dataset.objects, RTreeOptions{}), store_config);
  ASSERT_TRUE(store.ok()) << store.status();
  QueryService service(**store, ServiceConfig{});
  const auto server = StartServer(service);
  NetClient client = ConnectTo(*server);

  // Probe from a corner of the space: the best group's distance must
  // strictly improve once a tight cluster lands next to the probe point.
  const NwcQuery probe{Point{dataset.space.min_x, dataset.space.min_y}, 50, 50, 4};
  ASSERT_TRUE(client.SendNwc(1, NwcRequest{probe, {}, 0}).ok());
  NetReply reply;
  ASSERT_TRUE(client.Receive(&reply).ok());
  ASSERT_EQ(reply.type, MsgType::kNwcResponse);
  ASSERT_TRUE(reply.nwc.status.ok()) << reply.nwc.status;
  const NwcResponse before = reply.nwc;

  MutationBatch batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(Mutation::Insert(
        DataObject{static_cast<ObjectId>(900000 + i),
                   Point{dataset.space.min_x + 1.0 + i * 0.25, dataset.space.min_y + 1.0}}));
  }
  ASSERT_TRUE(client.SendUpdate(2, batch).ok());
  ASSERT_TRUE(client.Receive(&reply).ok());
  ASSERT_EQ(reply.type, MsgType::kUpdateResponse);
  EXPECT_EQ(reply.request_id, 2u);
  ASSERT_TRUE(reply.update.status.ok()) << reply.update.status;
  EXPECT_EQ(reply.update.epoch, 2u);
  EXPECT_EQ(reply.update.applied_inserts, 4u);
  EXPECT_EQ(reply.update.applied_deletes, 0u);
  EXPECT_EQ(reply.update.delete_misses, 0u);

  ASSERT_TRUE(client.SendNwc(3, NwcRequest{probe, {}, 0}).ok());
  ASSERT_TRUE(client.Receive(&reply).ok());
  ASSERT_EQ(reply.type, MsgType::kNwcResponse);
  ASSERT_TRUE(reply.nwc.status.ok()) << reply.nwc.status;
  ASSERT_TRUE(reply.nwc.result.found);
  if (before.result.found) {
    EXPECT_LT(reply.nwc.result.distance, before.result.distance);
  }
  // And the wire answer matches direct in-process submission exactly.
  const NwcResponse direct = service.SubmitNwc(NwcRequest{probe, {}, 0}).get();
  ExpectSameResponse(reply.nwc, direct, 3);

  // A delete that misses comes back as a typed NotFound with the batch
  // still applied (the response's counters say what happened).
  MutationBatch miss{Mutation::Delete(DataObject{123456789, Point{-1e7, -1e7}}),
                     Mutation::Insert(DataObject{900100, Point{dataset.space.min_x + 2.0,
                                                               dataset.space.min_y + 2.0}})};
  ASSERT_TRUE(client.SendUpdate(4, miss).ok());
  ASSERT_TRUE(client.Receive(&reply).ok());
  ASSERT_EQ(reply.type, MsgType::kUpdateResponse);
  EXPECT_EQ(reply.update.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(reply.update.epoch, 3u);
  EXPECT_EQ(reply.update.applied_inserts, 1u);
  EXPECT_EQ(reply.update.delete_misses, 1u);

  // The connection stays healthy after a non-OK update reply.
  ASSERT_TRUE(client.SendNwc(5, NwcRequest{probe, {}, 0}).ok());
  ASSERT_TRUE(client.Receive(&reply).ok());
  ASSERT_EQ(reply.type, MsgType::kNwcResponse);
  EXPECT_EQ(reply.request_id, 5u);
  EXPECT_TRUE(reply.nwc.status.ok()) << reply.nwc.status;
}

TEST(NetServer, SessionBuiltServerAppliesUpdateFrames) {
  // One serving mode: a service built over a plain Session accepts update
  // frames too (its store clones the Session on the first update).
  const Session session = OpenTestSession(500);
  QueryService service(session, ServiceConfig{});
  const auto server = StartServer(service);
  NetClient client = ConnectTo(*server);

  ASSERT_TRUE(
      client.SendUpdate(9, MutationBatch{Mutation::Insert(DataObject{1, Point{0, 0}})}).ok());
  NetReply reply;
  ASSERT_TRUE(client.Receive(&reply).ok());
  ASSERT_EQ(reply.type, MsgType::kUpdateResponse);
  EXPECT_EQ(reply.request_id, 9u);
  ASSERT_TRUE(reply.update.status.ok()) << reply.update.status;
  EXPECT_EQ(reply.update.epoch, 2u);
  EXPECT_EQ(reply.update.applied_inserts, 1u);
  EXPECT_EQ(session.tree().size(), 500u) << "the caller's Session is never mutated";

  ASSERT_TRUE(client.SendNwc(10, NwcRequest{NwcQuery{Point{0, 0}, 100, 100, 2}, {}, 0}).ok());
  ASSERT_TRUE(client.Receive(&reply).ok());
  EXPECT_EQ(reply.type, MsgType::kNwcResponse);
  EXPECT_TRUE(reply.nwc.status.ok()) << reply.nwc.status;
}

// An update frame carrying a non-finite position decodes fine but is
// rejected whole by the store: a typed InvalidArgument update response,
// no publish, and the connection answers the next query exactly as before.
TEST(NetServer, NonFiniteUpdateIsRejectedAndKeepsTheConnection) {
  const Session session = OpenTestSession(500);
  QueryService service(session, ServiceConfig{});
  const auto server = StartServer(service);
  NetClient client = ConnectTo(*server);

  const NwcRequest probe{NwcQuery{Point{5000, 5000}, 300, 300, 4}, {}, 0};
  NetReply reply;
  ASSERT_TRUE(client.SendNwc(1, probe).ok());
  ASSERT_TRUE(client.Receive(&reply).ok());
  ASSERT_EQ(reply.type, MsgType::kNwcResponse);
  ASSERT_TRUE(reply.nwc.status.ok()) << reply.nwc.status;
  const NwcResponse before = reply.nwc;

  uint64_t id = 2;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    const MutationBatch batch{Mutation::Insert(DataObject{900001, Point{5000, 5000}}),
                              Mutation::Insert(DataObject{900002, Point{bad, 5000}})};
    ASSERT_TRUE(client.SendUpdate(id, batch).ok());
    ASSERT_TRUE(client.Receive(&reply).ok());
    ASSERT_EQ(reply.type, MsgType::kUpdateResponse);
    EXPECT_EQ(reply.request_id, id);
    EXPECT_EQ(reply.update.status.code(), StatusCode::kInvalidArgument) << reply.update.status;
    EXPECT_EQ(reply.update.epoch, 1u);
    EXPECT_EQ(reply.update.applied_inserts, 0u);
    ++id;

    ASSERT_TRUE(client.SendNwc(id, probe).ok());
    ASSERT_TRUE(client.Receive(&reply).ok());
    ASSERT_EQ(reply.type, MsgType::kNwcResponse);
    EXPECT_EQ(reply.request_id, id);
    ExpectSameResponse(reply.nwc, before, id);
    ++id;
  }
}

}  // namespace
}  // namespace nwc
