#ifndef NWC_NET_SERVER_H_
#define NWC_NET_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "obs/net_metrics.h"
#include "service/query_backend.h"

namespace nwc {

/// Sizing and addressing for a NetServer.
struct NetServerConfig {
  std::string host = "127.0.0.1";  ///< bind address (dotted quad)
  uint16_t port = 0;               ///< 0 picks an ephemeral port (see port())
  int listen_backlog = 128;
  /// Cap on one frame's payload length (protocol errors past it).
  size_t max_frame_bytes = 1u << 20;
  /// Backpressure watermarks on the per-connection write buffer: past
  /// `high` the server stops reading that connection (its pipelined
  /// requests stall, others keep flowing); below `low` reading resumes.
  size_t write_high_watermark = 1u << 22;
  size_t write_low_watermark = 1u << 20;
  /// When nonzero, SO_SNDBUF for accepted sockets. Pinning it disables
  /// kernel send-buffer autotuning, which otherwise absorbs megabytes on
  /// loopback before the userspace watermarks can engage — the
  /// backpressure tests rely on this; production configs leave it 0.
  int send_buffer_bytes = 0;

  Status Validate() const;
};

/// A single-listener epoll TCP server in front of a QueryBackend — the
/// single-tree QueryService or the spatially sharded ShardRouter.
///
/// One event-loop thread owns every socket (level-triggered epoll,
/// non-blocking fds) and does no query work. NWC and kNWC frames share one
/// handler, which hands every decoded request to the backend's one
/// stamped submit path (Submit*AsyncTraced), traced or not; each
/// completion is encoded on the executor thread and re-enters the loop
/// through an eventfd-signalled queue. Responses are therefore pipelined in
/// completion order and matched by request id; many in-flight queries
/// share one connection.
///
/// Protocol: the binary frame format of net/wire.h. A request carrying
/// the envelope trace bit (kEnvelopeFlagTrace) is timed through the whole
/// pipeline and its response returns with a ServerTiming annotation; an
/// untraced request is answered bit-identically to the pre-flag protocol.
///
/// A connection whose first bytes look like an HTTP request method
/// instead gets a small HTTP/1.1 admin surface (keep-alive and pipelined
/// GETs supported):
///
///   /metrics     Prometheus exposition: service + nwc_net_* families
///   /healthz     liveness ("ok" while the loop runs)
///   /readyz      readiness; 503 from the instant drain is requested
///   /debug/slow  the slow-trace ring as JSON Lines
///   /varz        service + net metrics as one JSON document
///
/// Flow control composes two layers: the service's shed watermark fails
/// excess requests fast with a typed Unavailable response, and the write
/// watermarks above stop reading any connection whose peer stops
/// draining responses — without stalling other connections.
///
/// Graceful drain (RequestDrain, typically wired to SIGTERM): binary
/// connections stop being read, already-received requests run to
/// completion (their deadlines still apply) and every response is
/// flushed. The listener stays open for the drain's duration so health
/// probes can still observe the 503 readiness flip — new binary traffic
/// is answered with one Unavailable error frame — and closes when the
/// last in-flight response has flushed, at which point Wait() returns.
/// Requests half-received when drain starts are dropped with the
/// connection.
///
/// ThreadSafety: Start/Wait/RequestDrain/SnapshotNetMetrics may be called
/// from any thread. The backend must outlive the server.
class NetServer {
 public:
  /// Binds, listens, and starts the event loop. On success the returned
  /// server is already accepting; port() is the bound port (useful with
  /// port 0).
  static Result<std::unique_ptr<NetServer>> Start(QueryBackend& service,
                                                  NetServerConfig config);

  /// Drains (if not already draining) and joins the event loop.
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  uint16_t port() const;

  /// Begins graceful drain; idempotent, async-signal-unsafe (call from a
  /// normal thread reacting to the signal, not the handler itself).
  void RequestDrain();

  /// Blocks until the event loop exits (drain complete). May be called
  /// concurrently by multiple threads.
  void Wait();

  bool draining() const;

  /// The serving-layer counters (written only by the event loop).
  NetMetricsSnapshot SnapshotNetMetrics() const;

 private:
  class Impl;
  explicit NetServer(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace nwc

#endif  // NWC_NET_SERVER_H_
