#ifndef NWC_NET_WIRE_H_
#define NWC_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "service/query_service.h"

namespace nwc {

/// The nwc binary wire protocol.
///
/// One frame on the wire is
///
///     u32  payload_length   (little-endian; bytes after this field)
///     u8   message type     (MsgType)
///     u64  request id       (caller-chosen; echoed on the response)
///     ...  body             (type-specific, see the codec functions)
///
/// so payload_length == 9 + body size. Integers are little-endian;
/// doubles travel as their IEEE-754 bit pattern in a u64. The request id
/// makes responses order-free: a client may pipeline any number of
/// requests on one connection and match responses by id (the server
/// answers in completion order, not submission order).
///
/// The low 5 bits of the type byte carry the MsgType; the high 3 bits are
/// per-frame envelope flags. A request with kEnvelopeFlagTrace set asks
/// the server to time the request through its pipeline; the matching
/// response echoes the flag and appends a ServerTiming record after the
/// normal body. An untraced frame is bit-identical to the pre-flag
/// protocol (flags = 0), so tracing costs zero wire bytes when off.
///
/// Malformed input never crashes a decoder: a frame whose length field
/// exceeds the decoder's cap fails with OutOfRange, and every other
/// corruption (short length, unknown type, truncated or oversized body,
/// trailing body bytes, out-of-range enum values) fails with
/// InvalidArgument. Servers answer a malformed frame with a kError frame
/// and close the connection.

/// Frame type tags. Values are wire format — never renumber.
enum class MsgType : uint8_t {
  kNwcRequest = 1,
  kKnwcRequest = 2,
  kNwcResponse = 3,
  kKnwcResponse = 4,
  /// Protocol-level failure (undecodable frame, draining server). The
  /// body is a Status; request id 0 means "no frame could be attributed".
  kError = 5,
  /// Data mutation batch (insert/delete objects); the server applies and
  /// publishes it (every backend accepts updates).
  kUpdateRequest = 6,
  kUpdateResponse = 7,
};

/// True when `value` is one of the MsgType enumerators.
bool IsValidMsgType(uint8_t value);

/// Envelope flag bits, carried in the high bits of the type byte. Frames
/// with unknown flag bits set are protocol errors (poison the decoder),
/// so the remaining bits stay available for future negotiation.
inline constexpr uint8_t kEnvelopeTypeMask = 0x1f;
inline constexpr uint8_t kEnvelopeFlagTrace = 0x80;
inline constexpr uint8_t kEnvelopeKnownFlags = kEnvelopeFlagTrace;

/// Smallest legal payload (type byte + request id).
inline constexpr size_t kFrameHeaderBytes = 9;

/// One decoded frame: the type, the envelope flags, the request id, and
/// the raw body bytes (pass to the matching Decode* function).
struct WireFrame {
  MsgType type = MsgType::kError;
  uint8_t flags = 0;
  uint64_t request_id = 0;
  std::string body;

  bool traced() const { return (flags & kEnvelopeFlagTrace) != 0; }
};

/// Appends a complete frame (length prefix included) to `out`.
void AppendFrame(std::string* out, MsgType type, uint64_t request_id, std::string_view body,
                 uint8_t flags = 0);

/// Server-side pipeline timestamps for one traced request, as microsecond
/// offsets from the read() that delivered the frame's final byte. Offsets
/// are non-decreasing in pipeline order:
///
///     receive (0) <= decode <= enqueue <= dequeue <= execute <= encode
///                 <= flush
///
/// `flush_us` is stamped by the event loop at the moment the framed
/// response starts toward the socket, so receive->flush is the span the
/// request spent inside the server; a loopback client subtracts it from
/// its observed wall time to isolate the network+generator share.
struct ServerTiming {
  uint64_t decode_us = 0;   // frame decoded and body parsed
  uint64_t enqueue_us = 0;  // handed to the service queue
  uint64_t dequeue_us = 0;  // a worker picked it up
  uint64_t execute_us = 0;  // engine finished, response populated
  uint64_t encode_us = 0;   // response bytes framed (worker thread)
  uint64_t flush_us = 0;    // event loop began writing the frame
};

/// Wire size of one ServerTiming record (six u64 offsets).
inline constexpr size_t kServerTimingWireBytes = 48;

/// Appends the 48-byte ServerTiming record to `out` (the traced-response
/// body suffix).
void AppendServerTiming(std::string* out, const ServerTiming& timing);

/// Splits a traced response body into the plain response bytes and the
/// trailing ServerTiming record. Fails with InvalidArgument when the body
/// is too short to carry the record.
Status SplitServerTiming(std::string_view body, std::string_view* response_body,
                         ServerTiming* timing);

/// Rewrites `flush_us` in place in a fully framed traced response (the
/// final 8 bytes of the frame). The caller guarantees `frame` ends with a
/// ServerTiming record.
void PatchServerTimingFlush(std::string* frame, uint64_t flush_us);

/// Body codecs. Encoders append the body bytes to `*out` (pair with
/// AppendFrame). Decoders parse exactly the whole body and fail with
/// InvalidArgument on truncation, trailing bytes, or out-of-range enum
/// values.
void EncodeNwcRequest(const NwcRequest& request, std::string* out);
Status DecodeNwcRequest(std::string_view body, NwcRequest* out);
void EncodeKnwcRequest(const KnwcRequest& request, std::string* out);
Status DecodeKnwcRequest(std::string_view body, KnwcRequest* out);
void EncodeNwcResponse(const NwcResponse& response, std::string* out);
Status DecodeNwcResponse(std::string_view body, NwcResponse* out);
void EncodeKnwcResponse(const KnwcResponse& response, std::string* out);
Status DecodeKnwcResponse(std::string_view body, KnwcResponse* out);
/// kError bodies carry a bare Status.
void EncodeStatusBody(const Status& status, std::string* out);
Status DecodeStatusBody(std::string_view body, Status* out);
/// kUpdateRequest bodies carry the mutation batch: u32 count, then per
/// mutation a u8 kind (0 = insert, 1 = delete), u32 object id, and the
/// position as two doubles.
void EncodeUpdateRequest(const MutationBatch& batch, std::string* out);
Status DecodeUpdateRequest(std::string_view body, MutationBatch* out);
/// kUpdateResponse bodies carry the apply outcome: the Status, then five
/// u64s — epoch, applied inserts, applied deletes, delete misses, and the
/// server-side apply+publish latency in microseconds.
void EncodeUpdateResponse(const UpdateResponse& response, std::string* out);
Status DecodeUpdateResponse(std::string_view body, UpdateResponse* out);

/// Convenience: one fully framed request/response in a fresh string.
/// `flags` lets a client set envelope bits (e.g. kEnvelopeFlagTrace).
std::string EncodeNwcRequestFrame(uint64_t request_id, const NwcRequest& request,
                                  uint8_t flags = 0);
std::string EncodeKnwcRequestFrame(uint64_t request_id, const KnwcRequest& request,
                                   uint8_t flags = 0);
std::string EncodeNwcResponseFrame(uint64_t request_id, const NwcResponse& response);
std::string EncodeKnwcResponseFrame(uint64_t request_id, const KnwcResponse& response);
std::string EncodeErrorFrame(uint64_t request_id, const Status& status);
std::string EncodeUpdateRequestFrame(uint64_t request_id, const MutationBatch& batch);
std::string EncodeUpdateResponseFrame(uint64_t request_id, const UpdateResponse& response);

/// Incremental frame extractor: feed arbitrary byte chunks with Append()
/// and pull complete frames with Poll(). The decoder validates the frame
/// envelope (length bounds, type tag); body decoding is the caller's step
/// so a server can answer an undecodable body with a typed error carrying
/// the frame's request id.
///
/// After Poll() returns an error the decoder is poisoned: the stream has
/// no trustworthy resynchronization point, so every later Poll() repeats
/// the error and the connection must be closed.
///
/// ThreadSafety: none (one decoder per connection, owned by its thread).
class FrameDecoder {
 public:
  /// `max_frame_bytes` caps the *payload* length field; a frame
  /// announcing more fails with OutOfRange before any body byte arrives,
  /// so a corrupt length can never make the decoder buffer gigabytes.
  explicit FrameDecoder(size_t max_frame_bytes);

  /// Buffers `size` bytes of stream input.
  void Append(const void* data, size_t size);

  /// Extracts the next complete frame into `*out` and returns OK with
  /// `*has_frame` = true; returns OK with `*has_frame` = false when more
  /// input is needed; returns the protocol error otherwise.
  Status Poll(bool* has_frame, WireFrame* out);

  /// Bytes buffered but not yet returned as frames.
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  size_t max_frame_bytes_;
  std::string buffer_;
  size_t consumed_ = 0;   // prefix of buffer_ already handed out
  Status poisoned_;       // first protocol error, sticky
};

}  // namespace nwc

#endif  // NWC_NET_WIRE_H_
