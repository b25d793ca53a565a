#ifndef NWC_NET_CLIENT_H_
#define NWC_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "net/wire.h"
#include "service/query_service.h"

namespace nwc {

/// One frame received from a server, decoded by type. Exactly the member
/// matching `type` is meaningful: `nwc` for kNwcResponse, `knwc` for
/// kKnwcResponse, `error` for kError. When the response's envelope
/// carried the trace flag, `traced` is true and `timing` holds the
/// server's pipeline timestamps (microsecond offsets from its receive of
/// the request).
struct NetReply {
  MsgType type = MsgType::kError;
  uint64_t request_id = 0;
  NwcResponse nwc;
  KnwcResponse knwc;
  UpdateResponse update;  ///< for kUpdateResponse
  Status error;
  bool traced = false;
  ServerTiming timing;
};

/// A blocking client for the nwc binary protocol — the counterpart the
/// tests and the load generator drive against NetServer. Send* may be
/// called any number of times before the first Receive (pipelining); the
/// server answers in completion order, so match replies by request id.
///
/// ThreadSafety: none. One connection per thread, or external locking.
class NetClient {
 public:
  /// Connects (blocking) to host:port with TCP_NODELAY set. A nonzero
  /// `recv_buffer_bytes` pins SO_RCVBUF before connecting (capping the
  /// advertised window) — the backpressure tests use it to keep the
  /// kernel from buffering responses the test wants left on the server.
  static Result<NetClient> Connect(const std::string& host, uint16_t port,
                                   int recv_buffer_bytes = 0);

  NetClient(NetClient&& other) noexcept;
  NetClient& operator=(NetClient&& other) noexcept;
  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;
  ~NetClient();

  /// Frames and writes one request (blocking until fully written). With
  /// `traced` the envelope carries kEnvelopeFlagTrace, asking the server
  /// for a ServerTiming annotation on the response.
  Status SendNwc(uint64_t request_id, const NwcRequest& request, bool traced = false);
  Status SendKnwc(uint64_t request_id, const KnwcRequest& request, bool traced = false);

  /// Frames and writes one mutation batch. The server applies it and
  /// publishes a new epoch; the kUpdateResponse reply carries the apply
  /// outcome (NotFound when a delete matched no stored object).
  Status SendUpdate(uint64_t request_id, const MutationBatch& batch);

  /// Writes raw bytes verbatim — the fuzz/robustness tests' way of
  /// putting malformed frames on the wire.
  Status SendRaw(std::string_view bytes);

  /// Blocks until one complete frame arrives and decodes it into `*out`.
  /// Returns the protocol error for undecodable input and Unavailable
  /// ("connection closed") on EOF.
  Status Receive(NetReply* out);

  /// Half-closes the write side (FIN); the server still flushes pending
  /// responses, which Receive() can keep reading.
  void CloseWrite();

  /// The raw socket (poll/timeout control in tests); -1 after move-out.
  int fd() const { return fd_; }

 private:
  explicit NetClient(int fd);

  int fd_ = -1;
  FrameDecoder decoder_;
};

/// Minimal blocking HTTP/1.1 GET against the server's metrics endpoint.
/// Returns the full response (status line + headers + body) as a string.
Result<std::string> HttpGet(const std::string& host, uint16_t port, const std::string& path);

}  // namespace nwc

#endif  // NWC_NET_CLIENT_H_
