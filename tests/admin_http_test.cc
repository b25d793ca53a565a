// The admin HTTP surface beyond /metrics: liveness and readiness probes,
// the slow-trace dump, the /varz JSON document, HTTP/1.1 parser
// robustness (pipelined requests, requests split across reads, typed 400
// on oversized request lines), and the drain-aware readiness flip — 503
// from the instant drain begins, while the listener is still open.

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datasets/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "rtree/bulk_load.h"
#include "service/query_service.h"

namespace nwc {
namespace {

constexpr uint64_t kSeed = 20160315;

Session OpenTestSession(size_t cardinality = 2000) {
  Dataset dataset = MakeCaLike(kSeed, cardinality);
  SessionConfig config;
  config.grid_space = dataset.space;
  Result<Session> session =
      Session::Open(BulkLoadStr(dataset.objects, RTreeOptions{}), config);
  EXPECT_TRUE(session.ok()) << session.status();
  return std::move(session).value();
}

struct ParsedResponse {
  std::string status_line;
  std::string content_type;
  std::string body;
};

// Consumes one Content-Length-delimited response from the front of
// `buffer` (keep-alive framing); returns nullopt when incomplete.
std::optional<ParsedResponse> TakeOneResponse(std::string* buffer) {
  const size_t head_end = buffer->find("\r\n\r\n");
  if (head_end == std::string::npos) return std::nullopt;
  const std::string head = buffer->substr(0, head_end);
  size_t content_length = std::string::npos;
  ParsedResponse response;
  response.status_line = head.substr(0, head.find("\r\n"));
  size_t line_start = 0;
  while (line_start < head.size()) {
    size_t line_end = head.find("\r\n", line_start);
    if (line_end == std::string::npos) line_end = head.size();
    const std::string line = head.substr(line_start, line_end - line_start);
    if (line.compare(0, 16, "Content-Length: ") == 0) {
      content_length = std::stoul(line.substr(16));
    } else if (line.compare(0, 14, "Content-Type: ") == 0) {
      response.content_type = line.substr(14);
    }
    line_start = line_end + 2;
  }
  EXPECT_NE(content_length, std::string::npos) << "response without Content-Length";
  if (content_length == std::string::npos) return std::nullopt;
  if (buffer->size() < head_end + 4 + content_length) return std::nullopt;
  response.body = buffer->substr(head_end + 4, content_length);
  buffer->erase(0, head_end + 4 + content_length);
  return response;
}

// Reads until `count` keep-alive responses have been parsed off `fd`.
std::vector<ParsedResponse> ReadResponses(int fd, size_t count) {
  std::vector<ParsedResponse> responses;
  std::string buffer;
  char chunk[16 * 1024];
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (responses.size() < count) {
    while (true) {
      const std::optional<ParsedResponse> response = TakeOneResponse(&buffer);
      if (!response.has_value()) break;
      responses.push_back(*response);
    }
    if (responses.size() >= count) break;
    EXPECT_LT(std::chrono::steady_clock::now(), deadline) << "responses never arrived";
    if (std::chrono::steady_clock::now() >= deadline) break;
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    EXPECT_GT(n, 0) << "connection closed before all responses arrived";
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
  }
  return responses;
}

class AdminHttpTest : public ::testing::Test {
 protected:
  void StartWith(ServiceConfig config) {
    session_.emplace(OpenTestSession());
    service_.emplace(*session_, config);
    Result<std::unique_ptr<NetServer>> server =
        NetServer::Start(*service_, NetServerConfig());
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(server).value();
  }

  std::string Get(const std::string& path) {
    Result<std::string> raw = HttpGet("127.0.0.1", server_->port(), path);
    EXPECT_TRUE(raw.ok()) << raw.status();
    return raw.ok() ? raw.value() : std::string();
  }

  std::optional<Session> session_;
  std::optional<QueryService> service_;
  std::unique_ptr<NetServer> server_;
};

TEST_F(AdminHttpTest, HealthzAndReadyzAnswerWhileServing) {
  StartWith(ServiceConfig{});
  EXPECT_NE(Get("/healthz").find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(Get("/healthz").find("ok\n"), std::string::npos);
  EXPECT_NE(Get("/readyz").find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(Get("/readyz").find("ready\n"), std::string::npos);
}

TEST_F(AdminHttpTest, VarzServesOneJsonDocumentWithBothSections) {
  StartWith(ServiceConfig{});
  NwcRequest request;
  request.query = NwcQuery{Point{5000, 5000}, 300, 300, 4};
  service_->SubmitNwc(request).get();
  const std::string raw = Get("/varz");
  EXPECT_NE(raw.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(raw.find("Content-Type: application/json"), std::string::npos);
  const std::string body = raw.substr(raw.find("\r\n\r\n") + 4);
  EXPECT_EQ(body.front(), '{');
  EXPECT_EQ(body.back(), '}');
  EXPECT_NE(body.find("\"service\":"), std::string::npos);
  EXPECT_NE(body.find("\"net\":"), std::string::npos);
  EXPECT_NE(body.find("\"queries\":"), std::string::npos);
  EXPECT_NE(body.find("\"connections\":"), std::string::npos);
  // Crude structural sanity: braces balance (the sections are themselves
  // JSON objects produced by the two ToJson implementations).
  int depth = 0;
  for (const char c : body) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST_F(AdminHttpTest, DebugSlowServesTheTraceRingAsJsonl) {
  ServiceConfig config;
  config.trace_slow_queries = true;
  config.slow_trace_us = 0;  // retain every query
  StartWith(config);
  NwcRequest request;
  request.query = NwcQuery{Point{5000, 5000}, 300, 300, 4};
  service_->SubmitNwc(request).get();
  const std::string raw = Get("/debug/slow");
  EXPECT_NE(raw.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(raw.find("Content-Type: application/x-ndjson"), std::string::npos);
  const std::string body = raw.substr(raw.find("\r\n\r\n") + 4);
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body.front(), '{');
  EXPECT_EQ(body.back(), '\n');
}

TEST_F(AdminHttpTest, PipelinedGetsAnswerInOrderOnOneConnection) {
  StartWith(ServiceConfig{});
  Result<NetClient> client = NetClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok()) << client.status();
  const std::string two_requests =
      "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /readyz HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_TRUE(client->SendRaw(two_requests).ok());
  const std::vector<ParsedResponse> responses = ReadResponses(client->fd(), 2);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status_line, "HTTP/1.1 200 OK");
  EXPECT_EQ(responses[0].body, "ok\n");
  EXPECT_EQ(responses[1].status_line, "HTTP/1.1 200 OK");
  EXPECT_EQ(responses[1].body, "ready\n");
}

TEST_F(AdminHttpTest, RequestSplitAcrossReadsStillParses) {
  StartWith(ServiceConfig{});
  Result<NetClient> client = NetClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok()) << client.status();
  // Three writes with pauses: the head arrives in fragments the parser
  // must buffer across reads (TCP_NODELAY keeps them separate segments).
  for (const char* fragment : {"GET /heal", "thz HTTP/1.1\r\nHo", "st: t\r\n\r\n"}) {
    ASSERT_TRUE(client->SendRaw(fragment).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const std::vector<ParsedResponse> responses = ReadResponses(client->fd(), 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status_line, "HTTP/1.1 200 OK");
  EXPECT_EQ(responses[0].body, "ok\n");
}

TEST_F(AdminHttpTest, OversizedRequestLineGetsTyped400AndClose) {
  StartWith(ServiceConfig{});
  Result<NetClient> client = NetClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok()) << client.status();
  // A request line that never ends: past the 4 KB cap the server must
  // answer 400 without waiting for a CRLF that may never come.
  const std::string endless = "GET /" + std::string(8 * 1024, 'a');
  ASSERT_TRUE(client->SendRaw(endless).ok());
  const std::vector<ParsedResponse> responses = ReadResponses(client->fd(), 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status_line, "HTTP/1.1 400 Bad Request");
  // The connection closes (no trustworthy request boundary remains).
  char byte = 0;
  ssize_t n;
  do {
    n = ::read(client->fd(), &byte, 1);
  } while (n < 0 && errno == EINTR);
  EXPECT_EQ(n, 0) << "connection should close after a 400";
  const NetMetricsSnapshot snapshot = server_->SnapshotNetMetrics();
  EXPECT_GE(snapshot.protocol_errors[static_cast<size_t>(NetErrorKind::kHttp)], 1u);
}

// The drain-aware readiness contract: /readyz flips to 503 the moment
// RequestDrain() runs — while in-flight queries are still executing and
// the listener is still accepting probe connections — and binary clients
// connecting mid-drain get one typed Unavailable error frame.
TEST_F(AdminHttpTest, ReadyzFlips503TheInstantDrainBegins) {
  ServiceConfig config;
  config.num_threads = 1;
  // Every page read sleeps 2 ms: a 32-deep pipeline holds the drain open
  // for hundreds of milliseconds, plenty to probe readiness mid-drain.
  config.fault_plan = FaultPlan::LatencySpike(1, 2000);
  StartWith(config);

  Result<NetClient> binary = NetClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(binary.ok()) << binary.status();
  const size_t kInFlight = 32;
  NwcRequest request;
  request.query = NwcQuery{Point{5000, 5000}, 300, 300, 4};
  for (size_t i = 0; i < kInFlight; ++i) {
    ASSERT_TRUE(binary->SendNwc(i, request).ok());
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->SnapshotNetMetrics().frames_received < kInFlight) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "pipeline never arrived";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  EXPECT_NE(Get("/readyz").find("200 OK"), std::string::npos);
  server_->RequestDrain();
  ASSERT_TRUE(server_->draining());

  // The listener is still open mid-drain; readiness reports 503.
  const std::string readyz = Get("/readyz");
  EXPECT_NE(readyz.find("HTTP/1.1 503 Service Unavailable"), std::string::npos);
  EXPECT_NE(readyz.find("draining\n"), std::string::npos);
  // Liveness is unaffected by drain.
  EXPECT_NE(Get("/healthz").find("200 OK"), std::string::npos);

  // A binary client connecting mid-drain is turned away with a typed
  // error, not a connection reset.
  Result<NetClient> late = NetClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(late.ok()) << late.status();
  ASSERT_TRUE(late->SendNwc(99, request).ok());
  NetReply turned_away;
  ASSERT_TRUE(late->Receive(&turned_away).ok());
  EXPECT_EQ(turned_away.type, MsgType::kError);
  EXPECT_EQ(turned_away.error.code(), StatusCode::kUnavailable);

  // Every request received before the drain is still answered, then EOF.
  for (size_t i = 0; i < kInFlight; ++i) {
    NetReply reply;
    ASSERT_TRUE(binary->Receive(&reply).ok()) << "response " << i;
    ASSERT_EQ(reply.type, MsgType::kNwcResponse);
    EXPECT_EQ(reply.nwc.status.code(), StatusCode::kOk);
  }
  NetReply reply;
  EXPECT_EQ(binary->Receive(&reply).code(), StatusCode::kUnavailable);
  server_->Wait();
}

}  // namespace
}  // namespace nwc
