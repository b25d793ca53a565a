#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "net/wire.h"
#include "obs/net_metrics.h"
#include "obs/prometheus.h"
#include "obs/trace_export.h"

namespace nwc {

Status NetServerConfig::Validate() const {
  if (host.empty()) return Status::InvalidArgument("host must not be empty");
  if (listen_backlog <= 0) return Status::InvalidArgument("listen_backlog must be >= 1");
  if (max_frame_bytes < kFrameHeaderBytes) {
    return Status::InvalidArgument("max_frame_bytes below the frame header size");
  }
  if (write_high_watermark == 0 || write_low_watermark > write_high_watermark) {
    return Status::InvalidArgument("write watermarks must satisfy 0 < low <= high");
  }
  return Status::Ok();
}

namespace {

/// Reserved epoll user-data values; connection ids start past them.
constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kWakeupTag = 1;
constexpr uint64_t kFirstConnectionId = 2;

/// Per-event read cap: level-triggered epoll re-arms a still-readable fd,
/// so bounding one event's work keeps a fire-hose connection from
/// starving the others.
constexpr size_t kMaxReadPerEvent = 256 * 1024;

/// Cap on a buffered HTTP request head; admin requests are tiny.
constexpr size_t kMaxHttpHead = 16 * 1024;

/// Cap on one HTTP request line (method + path + version). A line this
/// long is either a broken client or abuse; it gets a typed 400.
constexpr size_t kMaxHttpRequestLine = 4 * 1024;

bool LooksLikeHttp(const std::string& head) {
  static constexpr const char* kMethods[] = {"GET ", "HEAD", "POST", "PUT ", "DELE", "OPTI"};
  for (const char* method : kMethods) {
    if (head.compare(0, 4, method) == 0) return true;
  }
  return false;
}

/// Whether the request asks for the connection to close after the
/// response: an explicit `Connection: close`, or HTTP/1.0 without an
/// explicit keep-alive.
bool HttpWantsClose(const std::string& head, const std::string& request_line) {
  std::string lower;
  lower.reserve(head.size());
  for (const char c : head) {
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  const bool http10 = request_line.find("HTTP/1.0") != std::string::npos;
  const size_t at = lower.find("\r\nconnection:");
  if (at == std::string::npos) return http10;
  const size_t value_start = at + 13;
  const size_t value_end = lower.find("\r\n", value_start);
  const std::string value = lower.substr(value_start, value_end - value_start);
  if (value.find("close") != std::string::npos) return true;
  if (value.find("keep-alive") != std::string::npos) return false;
  return http10;
}

/// Microsecond offset of `now_us` past `origin_us`, saturating at zero
/// (both come from the steady clock, but saturation keeps a reordered
/// stamp from wrapping to a ~585-millennium offset).
uint64_t OffsetMicros(uint64_t now_us, uint64_t origin_us) {
  return now_us > origin_us ? now_us - origin_us : 0;
}

/// Per-kind pieces of the query-frame handler: the body codecs, the
/// response frame type, and the backend's stamped submit.
template <typename Request>
struct QueryCodec;

template <>
struct QueryCodec<NwcRequest> {
  using Response = NwcResponse;
  static constexpr MsgType kResponseType = MsgType::kNwcResponse;
  static constexpr auto Decode = &DecodeNwcRequest;
  static constexpr auto Encode = &EncodeNwcResponse;
  static constexpr auto EncodeFrame = &EncodeNwcResponseFrame;
  static constexpr auto kSubmit = &QueryBackend::SubmitNwcAsyncTraced;
};

template <>
struct QueryCodec<KnwcRequest> {
  using Response = KnwcResponse;
  static constexpr MsgType kResponseType = MsgType::kKnwcResponse;
  static constexpr auto Decode = &DecodeKnwcRequest;
  static constexpr auto Encode = &EncodeKnwcResponse;
  static constexpr auto EncodeFrame = &EncodeKnwcResponseFrame;
  static constexpr auto kSubmit = &QueryBackend::SubmitKnwcAsyncTraced;
};

}  // namespace

class NetServer::Impl {
 public:
  Impl(QueryBackend& service, NetServerConfig config)
      : service_(service), config_(std::move(config)) {}

  ~Impl() {
    RequestDrain();
    Wait();
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  Status Start() {
    const Status valid = config_.Validate();
    if (!valid.ok()) return valid;

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) return Errno("socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
      return Status::InvalidArgument("cannot parse bind address " + config_.host);
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return Errno("bind " + config_.host + ":" + std::to_string(config_.port));
    }
    if (::listen(listen_fd_, config_.listen_backlog) != 0) return Errno("listen");

    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
      return Errno("getsockname");
    }
    port_ = ntohs(bound.sin_port);

    wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd_ < 0) return Errno("eventfd");
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return Errno("epoll_create1");
    if (!AddFd(listen_fd_, kListenerTag, EPOLLIN) || !AddFd(wake_fd_, kWakeupTag, EPOLLIN)) {
      return Errno("epoll_ctl add");
    }

    loop_ = std::thread([this] { RunLoop(); });
    return Status::Ok();
  }

  uint16_t port() const { return port_; }
  bool draining() const { return drain_.load(std::memory_order_acquire); }

  void RequestDrain() {
    drain_.store(true, std::memory_order_release);
    Wake();
  }

  void Wait() {
    std::lock_guard<std::mutex> lock(join_mu_);
    if (loop_.joinable()) loop_.join();
  }

  NetMetricsSnapshot SnapshotNetMetrics() const { return metrics_.Snapshot(); }

 private:
  enum class Mode { kUnknown, kBinary, kHttp };

  /// Per-connection state. Owned by the loop thread; Close() marks it
  /// dead and closes the fd, but the map entry survives until the end of
  /// the loop iteration so pointers on the current call stack stay valid.
  struct Connection {
    uint64_t id = 0;
    int fd = -1;
    Mode mode = Mode::kUnknown;
    std::string probe;        // first bytes, until the mode is known
    FrameDecoder decoder;     // binary mode
    std::string http_head;    // http mode
    std::string write_buf;
    size_t write_off = 0;
    size_t in_flight = 0;     // requests submitted, response not yet queued
    uint32_t registered = 0;  // epoll event mask currently installed
    bool paused = false;      // reading stopped by the write watermark
    bool peer_closed = false; // peer sent FIN; flush what remains
    bool closing = false;     // close once in_flight == 0 and flushed
    bool dead = false;        // fd closed, entry awaiting reap
    // Receive origin for frames decoded from the current read burst: the
    // time of the read() batch that delivered their final byte, or the
    // pause start when that batch is the first after a backpressure
    // resume (the kernel buffered those bytes for the whole pause).
    uint64_t read_stamp_us = 0;
    uint64_t paused_since_us = 0;   // nonzero while read-paused
    uint64_t resume_origin_us = 0;  // pending read_stamp override after resume

    explicit Connection(size_t max_frame_bytes) : decoder(max_frame_bytes) {}

    size_t pending_write() const { return write_buf.size() - write_off; }
  };

  struct Completion {
    uint64_t conn_id = 0;
    std::string bytes;
    // Traced responses end in a ServerTiming record whose flush stamp the
    // loop patches (relative to `receive_us`) just before writing.
    bool traced = false;
    uint64_t receive_us = 0;
  };

  static Status Errno(const std::string& what) {
    return Status::IoError(what + ": " + std::strerror(errno));
  }

  bool AddFd(int fd, uint64_t tag, uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = tag;
    return ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0;
  }

  void Wake() {
    const uint64_t one = 1;
    // A saturated eventfd counter already guarantees a wakeup.
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }

  // Worker-thread side: queue one encoded response and wake the loop. The
  // wakeup is written under the lock: the loop can consume this completion
  // (and so reach drain-complete and close wake_fd_) only after the lock is
  // released, so the write can never hit a closed — or reused — fd.
  void PushCompletion(uint64_t conn_id, std::string bytes, bool traced, uint64_t receive_us) {
    std::lock_guard<std::mutex> lock(completions_mu_);
    completions_.push_back(Completion{conn_id, std::move(bytes), traced, receive_us});
    Wake();
  }

  // ---- event loop ---------------------------------------------------------

  void RunLoop() {
    epoll_event events[64];
    while (true) {
      // Drain progress depends only on completions and closes, both of
      // which wake the loop; the finite timeout is a safety net.
      const int n = ::epoll_wait(epoll_fd_, events, 64, 500);
      if (n < 0 && errno != EINTR) break;
      for (int i = 0; i < n; ++i) {
        const uint64_t tag = events[i].data.u64;
        if (tag == kListenerTag) {
          AcceptAll();
        } else if (tag == kWakeupTag) {
          uint64_t counter;
          [[maybe_unused]] const ssize_t r = ::read(wake_fd_, &counter, sizeof(counter));
          metrics_.OnEventfdWakeup();
        } else {
          OnConnectionEvent(tag, events[i].events);
        }
      }
      ProcessCompletions();
      ReapDead();
      if (drain_.load(std::memory_order_acquire)) {
        BeginDrainOnce();
        ReapDead();
        if (DrainComplete()) {
          // Everything the server accepted has been answered and flushed.
          // Only now does the admin surface go away: remaining (HTTP /
          // probe) connections close and the listener shuts, so /readyz
          // stayed reachable for the whole drain window.
          for (const auto& [id, conn] : connections_) {
            if (!conn->dead) Close(conn.get());
          }
          ReapDead();
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
          ::close(listen_fd_);
          listen_fd_ = -1;
          return;
        }
      }
    }
  }

  /// True when no response the server owes anyone is still in flight or
  /// unflushed: nothing outstanding in the service, and no connection
  /// that is binary (still owed the drain contract), mid-request, or
  /// holding unwritten bytes. HTTP/probe connections do not hold the
  /// drain open.
  bool DrainComplete() const {
    if (outstanding_.load(std::memory_order_acquire) != 0) return false;
    for (const auto& [id, conn] : connections_) {
      if (conn->dead) continue;
      if (conn->mode == Mode::kBinary || conn->in_flight > 0 || conn->pending_write() > 0) {
        return false;
      }
    }
    return true;
  }

  void AcceptAll() {
    while (true) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        // A connection that died in the backlog (ECONNABORTED), a signal
        // (EINTR), or a peer protocol hiccup (EPROTO) is about THAT
        // connection, not the listener: returning here — as this loop once
        // did — stranded the rest of the backlog until the next EPOLLIN,
        // which with a level-triggered listener may be one accept storm
        // away. Skip the failed slot and keep draining. EAGAIN means the
        // backlog is empty; anything else (EMFILE/ENFILE/ENOMEM/EBADF) is
        // a listener- or process-level condition where spinning would
        // busy-loop, so yield back to epoll.
        if (errno == ECONNABORTED || errno == EINTR || errno == EPROTO) continue;
        return;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      if (config_.send_buffer_bytes > 0) {
        ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config_.send_buffer_bytes,
                     sizeof(config_.send_buffer_bytes));
      }
      auto conn = std::make_unique<Connection>(config_.max_frame_bytes);
      conn->id = next_connection_id_++;
      conn->fd = fd;
      if (!AddFd(fd, conn->id, EPOLLIN)) {
        ::close(fd);
        continue;
      }
      conn->registered = EPOLLIN;
      metrics_.OnAccept();
      connections_.emplace(conn->id, std::move(conn));
    }
  }

  void OnConnectionEvent(uint64_t conn_id, uint32_t events) {
    const auto it = connections_.find(conn_id);
    if (it == connections_.end()) return;
    Connection* conn = it->second.get();
    if (conn->dead) return;
    if ((events & EPOLLERR) != 0) {
      Close(conn);
      return;
    }
    if ((events & EPOLLOUT) != 0) Flush(conn);
    if ((events & (EPOLLIN | EPOLLHUP)) != 0) ReadInput(conn);
    FinishOrUpdate(conn);
  }

  bool WantRead(const Connection* conn) const {
    // During drain, binary connections stop being read (their pipelined
    // requests die with the drain contract) but HTTP and still-unknown
    // connections keep flowing so readiness probes get answers.
    return !conn->dead && !conn->paused && !conn->closing && !conn->peer_closed &&
           (!drain_started_ || conn->mode != Mode::kBinary);
  }

  void ReadInput(Connection* conn) {
    char buffer[64 * 1024];
    size_t total = 0;
    // Frames decoded from this burst are charged to its start — or to the
    // pause start when this is the first read after a backpressure
    // resume, since those bytes waited in the kernel the whole time.
    conn->read_stamp_us =
        conn->resume_origin_us != 0 ? conn->resume_origin_us : SteadyNowMicros();
    conn->resume_origin_us = 0;
    while (total < kMaxReadPerEvent && WantRead(conn)) {
      const ssize_t n = ::read(conn->fd, buffer, sizeof(buffer));
      if (n > 0) {
        total += static_cast<size_t>(n);
        metrics_.OnBytesRead(static_cast<uint64_t>(n));
        ProcessInput(conn, buffer, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) {
        conn->peer_closed = true;  // half-close: still flush responses
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      Close(conn);
      return;
    }
  }

  // Routes raw bytes by connection mode.
  void ProcessInput(Connection* conn, const char* data, size_t size) {
    if (conn->mode == Mode::kUnknown) {
      conn->probe.append(data, size);
      if (conn->probe.size() < 4) return;
      conn->mode = LooksLikeHttp(conn->probe) ? Mode::kHttp : Mode::kBinary;
      const std::string probe = std::move(conn->probe);
      conn->probe.clear();
      ProcessInput(conn, probe.data(), probe.size());
      return;
    }
    if (conn->mode == Mode::kHttp) {
      ProcessHttp(conn, data, size);
      return;
    }
    if (drain_started_) {
      // A connection revealing itself as binary mid-drain gets one typed
      // refusal instead of silence: the drain contract only covers
      // requests received before it began.
      SendBytes(conn, EncodeErrorFrame(0, Status::Unavailable("server is draining")));
      conn->closing = true;
      return;
    }
    conn->decoder.Append(data, size);
    while (!conn->dead && !conn->closing) {
      bool has_frame = false;
      WireFrame frame;
      const Status status = conn->decoder.Poll(&has_frame, &frame);
      if (!status.ok()) {
        // Corrupt stream: answer with a typed error (no frame, so no
        // request id) and close once earlier responses have flushed.
        metrics_.OnProtocolError(status.code() == StatusCode::kOutOfRange
                                     ? NetErrorKind::kOversize
                                     : NetErrorKind::kEnvelope);
        SendBytes(conn, EncodeErrorFrame(0, status));
        conn->closing = true;
        return;
      }
      if (!has_frame) return;
      metrics_.OnFrameReceived(frame.traced());
      metrics_.ObserveSocketWait(OffsetMicros(SteadyNowMicros(), conn->read_stamp_us));
      HandleFrame(conn, frame);
    }
  }

  void HandleFrame(Connection* conn, const WireFrame& frame) {
    switch (frame.type) {
      case MsgType::kNwcRequest:
        HandleQuery<NwcRequest>(conn, frame);
        return;
      case MsgType::kKnwcRequest:
        HandleQuery<KnwcRequest>(conn, frame);
        return;
      case MsgType::kUpdateRequest: {
        MutationBatch batch;
        const Status status = DecodeUpdateRequest(frame.body, &batch);
        if (!status.ok()) {
          ProtocolError(conn, frame.request_id, status, NetErrorKind::kBody);
          return;
        }
        // Applied inline on the loop thread: updates are rare relative to
        // queries and the store serializes writers anyway, so routing them
        // through the worker pool would only add queueing without
        // parallelism. Queries already in flight keep serving their
        // acquired snapshots; responses after this frame see the new
        // epoch. A failed update (NotFound for a missed delete,
        // InvalidArgument for a non-finite position) is a typed response,
        // not a protocol error.
        const UpdateResponse response = service_.ApplyUpdate(batch);
        metrics_.OnFrameSent();
        SendBytes(conn, EncodeUpdateResponseFrame(frame.request_id, response));
        return;
      }
      case MsgType::kNwcResponse:
      case MsgType::kKnwcResponse:
      case MsgType::kError:
      case MsgType::kUpdateResponse:
        ProtocolError(conn, frame.request_id,
                      Status::InvalidArgument("wire: client sent a server-only frame type"),
                      NetErrorKind::kDirection);
        return;
    }
  }

  // The one query-frame handler, for both kinds: decode, validate, then
  // always the backend's stamped submit. The completion encodes on the
  // worker thread (so the loop only memcpys) and appends ServerTiming only
  // when the frame asked for it; untraced responses are bit-identical to
  // the pre-flag protocol.
  template <typename Request>
  void HandleQuery(Connection* conn, const WireFrame& frame) {
    using Codec = QueryCodec<Request>;
    using Response = typename Codec::Response;
    Request request;
    const Status status = Codec::Decode(frame.body, &request);
    if (!status.ok()) {
      ProtocolError(conn, frame.request_id, status, NetErrorKind::kBody);
      return;
    }
    const Status valid = request.query.Validate();
    if (!valid.ok()) {
      // Wire-valid but semantically invalid: a typed response, not a
      // connection-fatal protocol error. Answered untraced — the request
      // never entered the pipeline being timed.
      Response response;
      response.status = valid;
      metrics_.OnFrameSent();
      SendBytes(conn, Codec::EncodeFrame(frame.request_id, response));
      return;
    }
    ++conn->in_flight;
    outstanding_.fetch_add(1, std::memory_order_acq_rel);
    const uint64_t conn_id = conn->id;
    const uint64_t request_id = frame.request_id;
    const bool traced = frame.traced();
    const uint64_t receive_us = conn->read_stamp_us;
    const uint64_t decode_us = traced ? OffsetMicros(SteadyNowMicros(), receive_us) : 0;
    (service_.*Codec::kSubmit)(
        std::move(request), [this, conn_id, request_id, traced, receive_us, decode_us](
                                Response response, const AsyncTiming& stamps) {
          std::string body;
          Codec::Encode(response, &body);
          if (traced) {
            // The flush stamp is provisional until the loop patches it at
            // send time.
            ServerTiming timing;
            timing.decode_us = decode_us;
            timing.enqueue_us = OffsetMicros(stamps.enqueue_us, receive_us);
            timing.dequeue_us = OffsetMicros(stamps.dequeue_us, receive_us);
            timing.execute_us = OffsetMicros(stamps.finish_us, receive_us);
            timing.encode_us = OffsetMicros(SteadyNowMicros(), receive_us);
            timing.flush_us = timing.encode_us;
            AppendServerTiming(&body, timing);
          }
          std::string bytes;
          AppendFrame(&bytes, Codec::kResponseType, request_id, body,
                      traced ? kEnvelopeFlagTrace : 0);
          PushCompletion(conn_id, std::move(bytes), traced, receive_us);
        });
  }

  // Typed protocol error: report, then close after the backlog flushes.
  void ProtocolError(Connection* conn, uint64_t request_id, const Status& status,
                     NetErrorKind kind) {
    metrics_.OnProtocolError(kind);
    SendBytes(conn, EncodeErrorFrame(request_id, status));
    conn->closing = true;
  }

  // Incremental HTTP/1.1 request assembly: requests may arrive split
  // across any number of reads and several may arrive pipelined in one —
  // the buffer is consumed head-by-head until it holds no complete
  // request. GET carries no body, so head-delimited framing is exact.
  void ProcessHttp(Connection* conn, const char* data, size_t size) {
    conn->http_head.append(data, size);
    while (!conn->dead && !conn->closing) {
      const size_t line_end = conn->http_head.find("\r\n");
      if (line_end == std::string::npos) {
        if (conn->http_head.size() > kMaxHttpRequestLine) {
          HttpError(conn, "400 Bad Request", "request line too long\n");
        }
        return;
      }
      if (line_end > kMaxHttpRequestLine) {
        HttpError(conn, "400 Bad Request", "request line too long\n");
        return;
      }
      const size_t head_end = conn->http_head.find("\r\n\r\n");
      if (head_end == std::string::npos) {
        if (conn->http_head.size() > kMaxHttpHead) {
          HttpError(conn, "400 Bad Request", "request head too large\n");
        }
        return;
      }
      const std::string head = conn->http_head.substr(0, head_end + 4);
      conn->http_head.erase(0, head_end + 4);
      HandleHttpRequest(conn, head);
    }
  }

  void HandleHttpRequest(Connection* conn, const std::string& head) {
    metrics_.OnHttpRequest();
    const std::string request_line = head.substr(0, head.find("\r\n"));
    const bool close = HttpWantsClose(head, request_line);
    if (request_line.compare(0, 4, "GET ") != 0) {
      HttpError(conn, "405 Method Not Allowed", "only GET is supported\n");
      return;
    }
    const size_t path_end = request_line.find(' ', 4);
    const std::string path = path_end == std::string::npos
                                 ? request_line.substr(4)
                                 : request_line.substr(4, path_end - 4);

    if (path == "/metrics") {
      std::string body =
          ToPrometheusText(service_.SnapshotMetrics(), service_.SnapshotLatencyHistogram());
      // Backend-specific series (e.g. a shard router's per-shard families)
      // slot in between the aggregate and net-layer blocks.
      service_.AppendPrometheusText(&body);
      AppendNetMetricsText(metrics_.Snapshot(), &body);
      HttpRespond(conn, "200 OK", "text/plain; version=0.0.4", body, close);
    } else if (path == "/healthz") {
      HttpRespond(conn, "200 OK", "text/plain", "ok\n", close);
    } else if (path == "/readyz") {
      // Readiness flips the instant RequestDrain() runs — before the
      // drain has made any progress — so load balancers stop routing
      // while the listener is still up.
      if (drain_.load(std::memory_order_acquire)) {
        HttpRespond(conn, "503 Service Unavailable", "text/plain", "draining\n", close);
      } else {
        HttpRespond(conn, "200 OK", "text/plain", "ready\n", close);
      }
    } else if (path == "/debug/slow") {
      std::string body;
      for (const auto& trace : service_.SlowTraces()) {
        if (trace != nullptr) body += ToJsonl(*trace);
      }
      HttpRespond(conn, "200 OK", "application/x-ndjson", body, close);
    } else if (path == "/varz") {
      const std::string body = StrFormat("{\"service\":%s,\"net\":%s}",
                                         service_.SnapshotMetrics().ToJson().c_str(),
                                         metrics_.Snapshot().ToJson().c_str());
      HttpRespond(conn, "200 OK", "application/json", body, close);
    } else {
      HttpRespond(conn, "404 Not Found", "text/plain", "not found\n", close);
    }
  }

  void HttpRespond(Connection* conn, const char* status_line, const char* content_type,
                   const std::string& body, bool close) {
    std::string response = StrFormat(
        "HTTP/1.1 %s\r\n"
        "Content-Type: %s\r\n"
        "Content-Length: %zu\r\n"
        "Connection: %s\r\n\r\n",
        status_line, content_type, body.size(), close ? "close" : "keep-alive");
    response += body;
    SendBytes(conn, std::move(response));
    if (close) conn->closing = true;
  }

  // Unparseable HTTP input: a typed 4xx, counted as a protocol error, and
  // the connection closes (the stream has no trustworthy request
  // boundary to resume from).
  void HttpError(Connection* conn, const char* status_line, const std::string& body) {
    metrics_.OnProtocolError(NetErrorKind::kHttp);
    HttpRespond(conn, status_line, "text/plain", body, /*close=*/true);
  }

  // ---- output -------------------------------------------------------------

  void SendBytes(Connection* conn, std::string bytes) {
    if (conn->dead) return;
    if (conn->write_buf.empty()) {
      conn->write_buf = std::move(bytes);
      conn->write_off = 0;
    } else {
      conn->write_buf += bytes;
    }
    metrics_.ObserveWriteQueue(conn->pending_write());
    Flush(conn);
  }

  // Writes as much as the socket accepts; may mark the connection dead
  // (write error — responses are undeliverable).
  void Flush(Connection* conn) {
    if (conn->dead) return;
    while (conn->pending_write() > 0) {
      const ssize_t n = ::write(conn->fd, conn->write_buf.data() + conn->write_off,
                                conn->pending_write());
      if (n > 0) {
        conn->write_off += static_cast<size_t>(n);
        metrics_.OnBytesWritten(static_cast<uint64_t>(n));
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      Close(conn);
      return;
    }
    if (conn->write_off == conn->write_buf.size()) {
      conn->write_buf.clear();
      conn->write_off = 0;
    } else if (conn->write_off > (1u << 20) && conn->write_off * 2 > conn->write_buf.size()) {
      conn->write_buf.erase(0, conn->write_off);
      conn->write_off = 0;
    }

    // Backpressure: a peer that stops draining responses gets its reads
    // paused past the high watermark, resumed below the low one — other
    // connections are untouched.
    if (!conn->paused && conn->pending_write() >= config_.write_high_watermark) {
      conn->paused = true;
      conn->paused_since_us = SteadyNowMicros();
      metrics_.OnBackpressurePause();
    } else if (conn->paused && conn->pending_write() <= config_.write_low_watermark) {
      conn->paused = false;
      metrics_.OnBackpressureResume(
          OffsetMicros(SteadyNowMicros(), conn->paused_since_us));
      // Bytes the peer sent during the pause waited in the kernel; the
      // next read burst inherits the pause start as its receive origin.
      conn->resume_origin_us = conn->paused_since_us;
      conn->paused_since_us = 0;
    }
  }

  // Closes a finished connection, else refreshes its epoll interest mask.
  void FinishOrUpdate(Connection* conn) {
    if (conn->dead) return;
    const bool finished = (conn->closing || conn->peer_closed ||
                           (drain_started_ && conn->mode == Mode::kBinary)) &&
                          conn->in_flight == 0 && conn->pending_write() == 0;
    if (finished) {
      Close(conn);
      return;
    }
    uint32_t want = 0;
    if (WantRead(conn)) want |= EPOLLIN;
    if (conn->pending_write() > 0) want |= EPOLLOUT;
    if (want != conn->registered) {
      epoll_event ev{};
      ev.events = want;
      ev.data.u64 = conn->id;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
        conn->registered = want;
      }
    }
  }

  // Marks the connection dead and closes its fd. The map entry (and the
  // Connection object) survives until ReapDead() so pointers held by the
  // current call stack stay valid — the loop is single-threaded, so the
  // end of the iteration is a safe reclamation point.
  void Close(Connection* conn) {
    if (conn->dead) return;
    conn->dead = true;
    if (conn->paused && conn->paused_since_us != 0) {
      // A connection dying mid-pause still accounts its paused span.
      metrics_.OnBackpressureResume(OffsetMicros(SteadyNowMicros(), conn->paused_since_us));
      conn->paused_since_us = 0;
    }
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    conn->fd = -1;
    metrics_.OnClose();
    dead_ids_.push_back(conn->id);
  }

  void ReapDead() {
    if (dead_ids_.empty()) return;
    metrics_.OnReap(dead_ids_.size());
    for (const uint64_t id : dead_ids_) connections_.erase(id);
    dead_ids_.clear();
  }

  // ---- completions / drain ------------------------------------------------

  void ProcessCompletions() {
    std::vector<Completion> batch;
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      batch.swap(completions_);
    }
    for (Completion& completion : batch) {
      outstanding_.fetch_sub(1, std::memory_order_acq_rel);
      const auto it = connections_.find(completion.conn_id);
      if (it == connections_.end() || it->second->dead) continue;  // died first
      Connection* conn = it->second.get();
      --conn->in_flight;
      if (completion.traced) {
        // Only the loop knows when the frame starts toward the socket;
        // the worker left a provisional flush stamp to overwrite.
        PatchServerTimingFlush(&completion.bytes,
                               OffsetMicros(SteadyNowMicros(), completion.receive_us));
      }
      metrics_.OnFrameSent();
      SendBytes(conn, std::move(completion.bytes));
      FinishOrUpdate(conn);
    }
  }

  void BeginDrainOnce() {
    if (drain_started_) return;
    drain_started_ = true;
    // The listener deliberately stays open: probes must be able to reach
    // /readyz (already 503 by now) for the whole drain window. Binary
    // connections stop being read and close once their in-flight
    // responses flush; the ones already idle close here. Safe to
    // iterate: FinishOrUpdate defers erasure to ReapDead().
    for (const auto& [id, conn] : connections_) {
      if (!conn->dead) FinishOrUpdate(conn.get());
    }
  }

  QueryBackend& service_;
  NetServerConfig config_;
  int listen_fd_ = -1;
  int wake_fd_ = -1;
  int epoll_fd_ = -1;
  uint16_t port_ = 0;
  std::thread loop_;
  std::mutex join_mu_;

  std::atomic<bool> drain_{false};
  bool drain_started_ = false;  // loop-thread view of drain_

  std::mutex completions_mu_;
  std::vector<Completion> completions_;
  // Callbacks handed to the service and not yet consumed by the loop; the
  // loop exits only at zero so no callback ever outlives the server.
  std::atomic<uint64_t> outstanding_{0};

  uint64_t next_connection_id_ = kFirstConnectionId;
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections_;
  std::vector<uint64_t> dead_ids_;

  // All counters for the layer; mutated on the loop thread, snapshotted
  // from anywhere (internally locked).
  NetMetrics metrics_;
};

NetServer::NetServer(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

NetServer::~NetServer() = default;

Result<std::unique_ptr<NetServer>> NetServer::Start(QueryBackend& service,
                                                    NetServerConfig config) {
  auto impl = std::make_unique<Impl>(service, std::move(config));
  const Status status = impl->Start();
  if (!status.ok()) return status;
  return std::unique_ptr<NetServer>(new NetServer(std::move(impl)));
}

uint16_t NetServer::port() const { return impl_->port(); }
void NetServer::RequestDrain() { impl_->RequestDrain(); }
void NetServer::Wait() { impl_->Wait(); }
bool NetServer::draining() const { return impl_->draining(); }
NetMetricsSnapshot NetServer::SnapshotNetMetrics() const { return impl_->SnapshotNetMetrics(); }

}  // namespace nwc
