#include "net/wire.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/string_util.h"

namespace nwc {
namespace {

// ---- little-endian primitives -------------------------------------------

void PutU8(std::string* out, uint8_t value) { out->push_back(static_cast<char>(value)); }

void PutU32(std::string* out, uint32_t value) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  out->append(bytes, 4);
}

void PutU64(std::string* out, uint64_t value) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  out->append(bytes, 8);
}

void PutDouble(std::string* out, double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string* out, std::string_view text) {
  PutU32(out, static_cast<uint32_t>(text.size()));
  out->append(text.data(), text.size());
}

/// Bounds-checked cursor over a body. Every Read* returns false past the
/// end and leaves the cursor untouched, so decoders turn any truncation
/// into one typed error instead of reading garbage.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool ReadU8(uint8_t* out) {
    if (pos_ + 1 > data_.size()) return false;
    *out = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }

  bool ReadU32(uint32_t* out) {
    if (pos_ + 4 > data_.size()) return false;
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 4;
    *out = value;
    return true;
  }

  bool ReadU64(uint64_t* out) {
    if (pos_ + 8 > data_.size()) return false;
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 8;
    *out = value;
    return true;
  }

  bool ReadDouble(double* out) {
    uint64_t bits;
    if (!ReadU64(&bits)) return false;
    std::memcpy(out, &bits, sizeof(*out));
    return true;
  }

  bool ReadString(std::string* out) {
    uint32_t size;
    if (!ReadU32(&size)) return false;
    if (pos_ + size > data_.size()) {
      pos_ -= 4;  // leave the cursor where the length started
      return false;
    }
    out->assign(data_.data() + pos_, size);
    pos_ += size;
    return true;
  }

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t position() const { return pos_; }

  /// Capacity to reserve for `count` records of at least `record_bytes`
  /// each: never more than the unread bytes could hold, so a corrupt count
  /// fails as truncation instead of a multi-gigabyte allocation.
  size_t ReserveFor(uint32_t count, size_t record_bytes) const {
    return std::min<size_t>(count, (data_.size() - pos_) / record_bytes);
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

Status Truncated(const char* what) {
  return Status::InvalidArgument(StrFormat("wire: truncated %s body", what));
}

Status TrailingBytes(const char* what, const ByteReader& reader, size_t body_size) {
  return Status::InvalidArgument(StrFormat("wire: %s body carries %zu trailing byte(s)", what,
                                           body_size - reader.position()));
}

// ---- shared sub-records --------------------------------------------------

// NwcOptions flags byte.
constexpr uint8_t kFlagSrr = 1u << 0;
constexpr uint8_t kFlagDip = 1u << 1;
constexpr uint8_t kFlagDep = 1u << 2;
constexpr uint8_t kFlagIwp = 1u << 3;
constexpr uint8_t kKnownFlags = kFlagSrr | kFlagDip | kFlagDep | kFlagIwp;

void PutOptions(std::string* out, const NwcOptions& options) {
  uint8_t flags = 0;
  if (options.use_srr) flags |= kFlagSrr;
  if (options.use_dip) flags |= kFlagDip;
  if (options.use_dep) flags |= kFlagDep;
  if (options.use_iwp) flags |= kFlagIwp;
  PutU8(out, flags);
  PutU8(out, static_cast<uint8_t>(options.measure));
}

bool ReadOptions(ByteReader* reader, NwcOptions* out, Status* error) {
  uint8_t flags;
  uint8_t measure;
  if (!reader->ReadU8(&flags) || !reader->ReadU8(&measure)) {
    *error = Truncated("options");
    return false;
  }
  if ((flags & ~kKnownFlags) != 0) {
    *error = Status::InvalidArgument(StrFormat("wire: unknown option flags 0x%02x", flags));
    return false;
  }
  if (measure > static_cast<uint8_t>(DistanceMeasure::kNearestWindow)) {
    *error = Status::InvalidArgument(StrFormat("wire: unknown distance measure %u", measure));
    return false;
  }
  out->use_srr = (flags & kFlagSrr) != 0;
  out->use_dip = (flags & kFlagDip) != 0;
  out->use_dep = (flags & kFlagDep) != 0;
  out->use_iwp = (flags & kFlagIwp) != 0;
  out->measure = static_cast<DistanceMeasure>(measure);
  return true;
}

void PutNwcQuery(std::string* out, const NwcQuery& query) {
  PutDouble(out, query.q.x);
  PutDouble(out, query.q.y);
  PutDouble(out, query.length);
  PutDouble(out, query.width);
  PutU64(out, query.n);
}

bool ReadNwcQuery(ByteReader* reader, NwcQuery* out, Status* error) {
  uint64_t n;
  if (!reader->ReadDouble(&out->q.x) || !reader->ReadDouble(&out->q.y) ||
      !reader->ReadDouble(&out->length) || !reader->ReadDouble(&out->width) ||
      !reader->ReadU64(&n)) {
    *error = Truncated("query");
    return false;
  }
  out->n = static_cast<size_t>(n);
  return true;
}

void PutStatus(std::string* out, const Status& status) {
  PutU8(out, static_cast<uint8_t>(status.code()));
  PutString(out, status.message());
}

bool ReadStatus(ByteReader* reader, Status* out, Status* error) {
  uint8_t code;
  std::string message;
  if (!reader->ReadU8(&code) || !reader->ReadString(&message)) {
    *error = Truncated("status");
    return false;
  }
  if (code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    *error = Status::InvalidArgument(StrFormat("wire: unknown status code %u", code));
    return false;
  }
  *out = Status(static_cast<StatusCode>(code), std::move(message));
  return true;
}

void PutObjects(std::string* out, const std::vector<DataObject>& objects) {
  PutU32(out, static_cast<uint32_t>(objects.size()));
  for (const DataObject& obj : objects) {
    PutU32(out, obj.id);
    PutDouble(out, obj.pos.x);
    PutDouble(out, obj.pos.y);
  }
}

bool ReadObjects(ByteReader* reader, std::vector<DataObject>* out, Status* error) {
  uint32_t count;
  if (!reader->ReadU32(&count)) {
    *error = Truncated("object list");
    return false;
  }
  out->clear();
  out->reserve(reader->ReserveFor(count, 20));  // u32 id + two doubles
  for (uint32_t i = 0; i < count; ++i) {
    DataObject obj;
    if (!reader->ReadU32(&obj.id) || !reader->ReadDouble(&obj.pos.x) ||
        !reader->ReadDouble(&obj.pos.y)) {
      *error = Truncated("object list");
      return false;
    }
    out->push_back(obj);
  }
  return true;
}

// Bits of the response flags byte; any other bit is a decode error.
constexpr uint8_t kResponseFlagCacheHit = 0x01;

// The response fields shared by both kinds (everything but the result).
template <typename Response>
void PutResponseCommon(std::string* out, const Response& response) {
  PutStatus(out, response.status);
  PutU64(out, response.latency_micros);
  PutU64(out, response.traversal_reads);
  PutU64(out, response.window_query_reads);
  PutU8(out, response.result_cache_hit ? kResponseFlagCacheHit : 0);
}

template <typename Response>
bool ReadResponseCommon(ByteReader* reader, Response* out, Status* error) {
  if (!ReadStatus(reader, &out->status, error)) return false;
  uint8_t flags;
  if (!reader->ReadU64(&out->latency_micros) || !reader->ReadU64(&out->traversal_reads) ||
      !reader->ReadU64(&out->window_query_reads) || !reader->ReadU8(&flags)) {
    *error = Truncated("response");
    return false;
  }
  if ((flags & ~kResponseFlagCacheHit) != 0) {
    *error = Status::InvalidArgument(StrFormat("wire: unknown response flag bits 0x%02x", flags));
    return false;
  }
  out->result_cache_hit = (flags & kResponseFlagCacheHit) != 0;
  return true;
}

}  // namespace

bool IsValidMsgType(uint8_t value) {
  return value >= static_cast<uint8_t>(MsgType::kNwcRequest) &&
         value <= static_cast<uint8_t>(MsgType::kUpdateResponse);
}

void AppendFrame(std::string* out, MsgType type, uint64_t request_id, std::string_view body,
                 uint8_t flags) {
  PutU32(out, static_cast<uint32_t>(kFrameHeaderBytes + body.size()));
  PutU8(out, static_cast<uint8_t>(type) | (flags & ~kEnvelopeTypeMask));
  PutU64(out, request_id);
  out->append(body.data(), body.size());
}

void AppendServerTiming(std::string* out, const ServerTiming& timing) {
  PutU64(out, timing.decode_us);
  PutU64(out, timing.enqueue_us);
  PutU64(out, timing.dequeue_us);
  PutU64(out, timing.execute_us);
  PutU64(out, timing.encode_us);
  PutU64(out, timing.flush_us);
}

Status SplitServerTiming(std::string_view body, std::string_view* response_body,
                         ServerTiming* timing) {
  if (body.size() < kServerTimingWireBytes) {
    return Status::InvalidArgument(
        StrFormat("wire: traced body of %zu byte(s) cannot carry a %zu-byte timing record",
                  body.size(), kServerTimingWireBytes));
  }
  const size_t split = body.size() - kServerTimingWireBytes;
  ByteReader reader(body.substr(split));
  if (!reader.ReadU64(&timing->decode_us) || !reader.ReadU64(&timing->enqueue_us) ||
      !reader.ReadU64(&timing->dequeue_us) || !reader.ReadU64(&timing->execute_us) ||
      !reader.ReadU64(&timing->encode_us) || !reader.ReadU64(&timing->flush_us)) {
    return Truncated("server timing");
  }
  *response_body = body.substr(0, split);
  return Status::Ok();
}

void PatchServerTimingFlush(std::string* frame, uint64_t flush_us) {
  const size_t at = frame->size() - 8;
  for (int i = 0; i < 8; ++i) {
    (*frame)[at + i] = static_cast<char>((flush_us >> (8 * i)) & 0xff);
  }
}

void EncodeNwcRequest(const NwcRequest& request, std::string* out) {
  PutNwcQuery(out, request.query);
  PutU64(out, request.deadline_micros);
  PutU8(out, request.options.has_value() ? 1 : 0);
  if (request.options.has_value()) PutOptions(out, *request.options);
}

Status DecodeNwcRequest(std::string_view body, NwcRequest* out) {
  ByteReader reader(body);
  Status error;
  *out = NwcRequest{};
  if (!ReadNwcQuery(&reader, &out->query, &error)) return error;
  uint8_t has_options;
  if (!reader.ReadU64(&out->deadline_micros) || !reader.ReadU8(&has_options)) {
    return Truncated("nwc request");
  }
  if (has_options > 1) {
    return Status::InvalidArgument("wire: options-present flag out of range");
  }
  if (has_options != 0) {
    NwcOptions options;
    if (!ReadOptions(&reader, &options, &error)) return error;
    out->options = options;
  }
  if (!reader.AtEnd()) return TrailingBytes("nwc request", reader, body.size());
  return Status::Ok();
}

void EncodeKnwcRequest(const KnwcRequest& request, std::string* out) {
  PutNwcQuery(out, request.query.base);
  PutU64(out, request.query.k);
  PutU64(out, request.query.m);
  PutU64(out, request.deadline_micros);
  PutU8(out, request.options.has_value() ? 1 : 0);
  if (request.options.has_value()) PutOptions(out, *request.options);
}

Status DecodeKnwcRequest(std::string_view body, KnwcRequest* out) {
  ByteReader reader(body);
  Status error;
  *out = KnwcRequest{};
  if (!ReadNwcQuery(&reader, &out->query.base, &error)) return error;
  uint64_t k, m;
  uint8_t has_options;
  if (!reader.ReadU64(&k) || !reader.ReadU64(&m) || !reader.ReadU64(&out->deadline_micros) ||
      !reader.ReadU8(&has_options)) {
    return Truncated("knwc request");
  }
  out->query.k = static_cast<size_t>(k);
  out->query.m = static_cast<size_t>(m);
  if (has_options > 1) {
    return Status::InvalidArgument("wire: options-present flag out of range");
  }
  if (has_options != 0) {
    NwcOptions options;
    if (!ReadOptions(&reader, &options, &error)) return error;
    out->options = options;
  }
  if (!reader.AtEnd()) return TrailingBytes("knwc request", reader, body.size());
  return Status::Ok();
}

void EncodeNwcResponse(const NwcResponse& response, std::string* out) {
  PutResponseCommon(out, response);
  PutU8(out, response.result.found ? 1 : 0);
  PutDouble(out, response.result.distance);
  PutObjects(out, response.result.objects);
}

Status DecodeNwcResponse(std::string_view body, NwcResponse* out) {
  ByteReader reader(body);
  Status error;
  *out = NwcResponse{};
  if (!ReadResponseCommon(&reader, out, &error)) return error;
  uint8_t found;
  if (!reader.ReadU8(&found) || !reader.ReadDouble(&out->result.distance)) {
    return Truncated("nwc response");
  }
  if (found > 1) return Status::InvalidArgument("wire: found flag out of range");
  out->result.found = found != 0;
  if (!ReadObjects(&reader, &out->result.objects, &error)) return error;
  if (!reader.AtEnd()) return TrailingBytes("nwc response", reader, body.size());
  return Status::Ok();
}

void EncodeKnwcResponse(const KnwcResponse& response, std::string* out) {
  PutResponseCommon(out, response);
  PutU32(out, static_cast<uint32_t>(response.result.groups.size()));
  for (const NwcGroup& group : response.result.groups) {
    PutDouble(out, group.distance);
    PutObjects(out, group.objects);
  }
}

Status DecodeKnwcResponse(std::string_view body, KnwcResponse* out) {
  ByteReader reader(body);
  Status error;
  *out = KnwcResponse{};
  if (!ReadResponseCommon(&reader, out, &error)) return error;
  uint32_t group_count;
  if (!reader.ReadU32(&group_count)) return Truncated("knwc response");
  out->result.groups.clear();
  out->result.groups.reserve(reader.ReserveFor(group_count, 12));  // distance + count
  for (uint32_t i = 0; i < group_count; ++i) {
    NwcGroup group;
    if (!reader.ReadDouble(&group.distance)) return Truncated("knwc response");
    if (!ReadObjects(&reader, &group.objects, &error)) return error;
    out->result.groups.push_back(std::move(group));
  }
  if (!reader.AtEnd()) return TrailingBytes("knwc response", reader, body.size());
  return Status::Ok();
}

void EncodeStatusBody(const Status& status, std::string* out) { PutStatus(out, status); }

Status DecodeStatusBody(std::string_view body, Status* out) {
  ByteReader reader(body);
  Status error;
  if (!ReadStatus(&reader, out, &error)) return error;
  if (!reader.AtEnd()) return TrailingBytes("error", reader, body.size());
  return Status::Ok();
}

void EncodeUpdateRequest(const MutationBatch& batch, std::string* out) {
  PutU32(out, static_cast<uint32_t>(batch.size()));
  for (const Mutation& m : batch) {
    PutU8(out, static_cast<uint8_t>(m.kind));
    PutU32(out, m.object.id);
    PutDouble(out, m.object.pos.x);
    PutDouble(out, m.object.pos.y);
  }
}

Status DecodeUpdateRequest(std::string_view body, MutationBatch* out) {
  ByteReader reader(body);
  out->clear();
  uint32_t count;
  if (!reader.ReadU32(&count)) return Truncated("update request");
  out->reserve(reader.ReserveFor(count, 21));  // kind + id + two doubles
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t kind;
    Mutation mutation;
    if (!reader.ReadU8(&kind) || !reader.ReadU32(&mutation.object.id) ||
        !reader.ReadDouble(&mutation.object.pos.x) ||
        !reader.ReadDouble(&mutation.object.pos.y)) {
      return Truncated("update request");
    }
    if (kind > static_cast<uint8_t>(Mutation::Kind::kDelete)) {
      return Status::InvalidArgument(
          StrFormat("wire: mutation kind %u out of range", kind));
    }
    mutation.kind = static_cast<Mutation::Kind>(kind);
    out->push_back(mutation);
  }
  if (!reader.AtEnd()) return TrailingBytes("update request", reader, body.size());
  return Status::Ok();
}

void EncodeUpdateResponse(const UpdateResponse& response, std::string* out) {
  PutStatus(out, response.status);
  PutU64(out, response.epoch);
  PutU64(out, response.applied_inserts);
  PutU64(out, response.applied_deletes);
  PutU64(out, response.delete_misses);
  PutU64(out, response.latency_micros);
}

Status DecodeUpdateResponse(std::string_view body, UpdateResponse* out) {
  ByteReader reader(body);
  Status error;
  *out = UpdateResponse{};
  if (!ReadStatus(&reader, &out->status, &error)) return error;
  if (!reader.ReadU64(&out->epoch) || !reader.ReadU64(&out->applied_inserts) ||
      !reader.ReadU64(&out->applied_deletes) || !reader.ReadU64(&out->delete_misses) ||
      !reader.ReadU64(&out->latency_micros)) {
    return Truncated("update response");
  }
  if (!reader.AtEnd()) return TrailingBytes("update response", reader, body.size());
  return Status::Ok();
}

std::string EncodeNwcRequestFrame(uint64_t request_id, const NwcRequest& request,
                                  uint8_t flags) {
  std::string body, frame;
  EncodeNwcRequest(request, &body);
  AppendFrame(&frame, MsgType::kNwcRequest, request_id, body, flags);
  return frame;
}

std::string EncodeKnwcRequestFrame(uint64_t request_id, const KnwcRequest& request,
                                   uint8_t flags) {
  std::string body, frame;
  EncodeKnwcRequest(request, &body);
  AppendFrame(&frame, MsgType::kKnwcRequest, request_id, body, flags);
  return frame;
}

std::string EncodeNwcResponseFrame(uint64_t request_id, const NwcResponse& response) {
  std::string body, frame;
  EncodeNwcResponse(response, &body);
  AppendFrame(&frame, MsgType::kNwcResponse, request_id, body);
  return frame;
}

std::string EncodeKnwcResponseFrame(uint64_t request_id, const KnwcResponse& response) {
  std::string body, frame;
  EncodeKnwcResponse(response, &body);
  AppendFrame(&frame, MsgType::kKnwcResponse, request_id, body);
  return frame;
}

std::string EncodeErrorFrame(uint64_t request_id, const Status& status) {
  std::string body, frame;
  EncodeStatusBody(status, &body);
  AppendFrame(&frame, MsgType::kError, request_id, body);
  return frame;
}

std::string EncodeUpdateRequestFrame(uint64_t request_id, const MutationBatch& batch) {
  std::string body, frame;
  EncodeUpdateRequest(batch, &body);
  AppendFrame(&frame, MsgType::kUpdateRequest, request_id, body);
  return frame;
}

std::string EncodeUpdateResponseFrame(uint64_t request_id, const UpdateResponse& response) {
  std::string body, frame;
  EncodeUpdateResponse(response, &body);
  AppendFrame(&frame, MsgType::kUpdateResponse, request_id, body);
  return frame;
}

FrameDecoder::FrameDecoder(size_t max_frame_bytes) : max_frame_bytes_(max_frame_bytes) {}

void FrameDecoder::Append(const void* data, size_t size) {
  // Input arriving after a protocol error is dropped: the stream position
  // is untrustworthy and the connection is about to close anyway.
  if (!poisoned_.ok()) return;
  buffer_.append(static_cast<const char*>(data), size);
}

Status FrameDecoder::Poll(bool* has_frame, WireFrame* out) {
  *has_frame = false;
  if (!poisoned_.ok()) return poisoned_;

  const size_t available = buffer_.size() - consumed_;
  if (available < 4) return Status::Ok();
  const uint8_t* head = reinterpret_cast<const uint8_t*>(buffer_.data() + consumed_);
  uint32_t payload = 0;
  for (int i = 0; i < 4; ++i) payload |= static_cast<uint32_t>(head[i]) << (8 * i);

  if (payload < kFrameHeaderBytes) {
    poisoned_ = Status::InvalidArgument(
        StrFormat("wire: frame payload %u below the %zu-byte header", payload,
                  kFrameHeaderBytes));
    return poisoned_;
  }
  if (payload > max_frame_bytes_) {
    poisoned_ = Status::OutOfRange(StrFormat(
        "wire: frame payload %u exceeds the %zu-byte cap", payload, max_frame_bytes_));
    return poisoned_;
  }
  if (available < 4 + static_cast<size_t>(payload)) return Status::Ok();

  const uint8_t type_byte = head[4];
  const uint8_t flags = type_byte & ~kEnvelopeTypeMask;
  const uint8_t type = type_byte & kEnvelopeTypeMask;
  if ((flags & ~kEnvelopeKnownFlags) != 0) {
    poisoned_ = Status::InvalidArgument(
        StrFormat("wire: unknown envelope flags 0x%02x", flags));
    return poisoned_;
  }
  if (!IsValidMsgType(type)) {
    poisoned_ = Status::InvalidArgument(StrFormat("wire: unknown frame type %u", type));
    return poisoned_;
  }
  uint64_t request_id = 0;
  for (int i = 0; i < 8; ++i) request_id |= static_cast<uint64_t>(head[5 + i]) << (8 * i);

  out->type = static_cast<MsgType>(type);
  out->flags = flags;
  out->request_id = request_id;
  out->body.assign(buffer_.data() + consumed_ + 4 + kFrameHeaderBytes,
                   payload - kFrameHeaderBytes);
  consumed_ += 4 + payload;
  // Compact once the dead prefix dominates, so a long-lived connection
  // doesn't grow its buffer without bound.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  *has_frame = true;
  return Status::Ok();
}

}  // namespace nwc
