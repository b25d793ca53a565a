// Wire-protocol codec tests: roundtrips for every frame type, envelope
// validation in FrameDecoder (truncation, oversize, unknown types,
// poisoning), and a deterministic fuzz pass replaying mutated byte
// streams — a corrupt stream must always yield a typed error, never a
// crash or an invented frame.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/wire.h"

namespace nwc {
namespace {

NwcRequest MakeNwcRequest() {
  NwcRequest request;
  request.query = NwcQuery{Point{12.5, -3.25}, 64.0, 32.0, 8};
  request.options = NwcOptions::Plus();
  request.options->measure = DistanceMeasure::kAvg;
  request.deadline_micros = 1234567;
  return request;
}

KnwcRequest MakeKnwcRequest() {
  KnwcRequest request;
  request.query = KnwcQuery{NwcQuery{Point{0.0, 9000.5}, 128.0, 128.0, 4}, 5, 3};
  request.deadline_micros = 0;  // options absent, deadline unset
  return request;
}

NwcResponse MakeNwcResponse() {
  NwcResponse response;
  response.status = Status::Ok();
  response.result.found = true;
  response.result.distance = 41.375;
  response.result.objects = {DataObject{7, Point{1.5, 2.5}}, DataObject{9, Point{-4.0, 0.125}}};
  response.latency_micros = 987;
  response.traversal_reads = 12;
  response.window_query_reads = 34;
  response.result_cache_hit = true;
  return response;
}

KnwcResponse MakeKnwcResponse() {
  KnwcResponse response;
  response.status = Status::Ok();
  NwcGroup first;
  first.distance = 10.5;
  first.objects = {DataObject{1, Point{0.0, 0.0}}};
  NwcGroup second;
  second.distance = 20.25;
  second.objects = {DataObject{2, Point{3.0, 4.0}}, DataObject{3, Point{5.0, 6.0}}};
  response.result.groups = {first, second};
  response.latency_micros = 55;
  return response;
}

void ExpectSameNwcResponse(const NwcResponse& a, const NwcResponse& b) {
  EXPECT_EQ(a.status.code(), b.status.code());
  EXPECT_EQ(a.status.message(), b.status.message());
  EXPECT_EQ(a.result.found, b.result.found);
  EXPECT_EQ(a.result.distance, b.result.distance);
  EXPECT_EQ(a.result.objects, b.result.objects);
  EXPECT_EQ(a.latency_micros, b.latency_micros);
  EXPECT_EQ(a.traversal_reads, b.traversal_reads);
  EXPECT_EQ(a.window_query_reads, b.window_query_reads);
  EXPECT_EQ(a.result_cache_hit, b.result_cache_hit);
}

// Pulls the single frame out of a fully buffered encoding.
WireFrame MustDecodeFrame(const std::string& bytes) {
  FrameDecoder decoder(1u << 20);
  decoder.Append(bytes.data(), bytes.size());
  bool has_frame = false;
  WireFrame frame;
  const Status status = decoder.Poll(&has_frame, &frame);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(has_frame);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  return frame;
}

TEST(WireFormat, NwcRequestRoundtrip) {
  const NwcRequest request = MakeNwcRequest();
  const WireFrame frame = MustDecodeFrame(EncodeNwcRequestFrame(42, request));
  EXPECT_EQ(frame.type, MsgType::kNwcRequest);
  EXPECT_EQ(frame.request_id, 42u);
  NwcRequest decoded;
  ASSERT_TRUE(DecodeNwcRequest(frame.body, &decoded).ok());
  EXPECT_EQ(decoded.query.q.x, request.query.q.x);
  EXPECT_EQ(decoded.query.q.y, request.query.q.y);
  EXPECT_EQ(decoded.query.length, request.query.length);
  EXPECT_EQ(decoded.query.width, request.query.width);
  EXPECT_EQ(decoded.query.n, request.query.n);
  ASSERT_TRUE(decoded.options.has_value());
  EXPECT_EQ(decoded.options->use_srr, request.options->use_srr);
  EXPECT_EQ(decoded.options->use_dip, request.options->use_dip);
  EXPECT_EQ(decoded.options->use_dep, request.options->use_dep);
  EXPECT_EQ(decoded.options->use_iwp, request.options->use_iwp);
  EXPECT_EQ(decoded.options->measure, request.options->measure);
  EXPECT_EQ(decoded.deadline_micros, request.deadline_micros);
}

TEST(WireFormat, KnwcRequestRoundtripWithoutOptions) {
  const KnwcRequest request = MakeKnwcRequest();
  const WireFrame frame = MustDecodeFrame(EncodeKnwcRequestFrame(7, request));
  EXPECT_EQ(frame.type, MsgType::kKnwcRequest);
  KnwcRequest decoded;
  ASSERT_TRUE(DecodeKnwcRequest(frame.body, &decoded).ok());
  EXPECT_FALSE(decoded.options.has_value());
  EXPECT_EQ(decoded.query.base.n, request.query.base.n);
  EXPECT_EQ(decoded.query.k, request.query.k);
  EXPECT_EQ(decoded.query.m, request.query.m);
  EXPECT_EQ(decoded.deadline_micros, 0u);
}

TEST(WireFormat, NwcResponseRoundtrip) {
  const NwcResponse response = MakeNwcResponse();
  const WireFrame frame = MustDecodeFrame(EncodeNwcResponseFrame(3, response));
  EXPECT_EQ(frame.type, MsgType::kNwcResponse);
  NwcResponse decoded;
  ASSERT_TRUE(DecodeNwcResponse(frame.body, &decoded).ok());
  ExpectSameNwcResponse(decoded, response);
}

// The response flags byte carries result_cache_hit in bit 0; any other bit
// fails like an unknown envelope flag.
TEST(WireFormat, ResponseFlagsRoundtripDegradedAndRejectUnknownBits) {
  for (const bool cache_hit : {false, true}) {
    NwcResponse response = MakeNwcResponse();
    response.result_cache_hit = cache_hit;
    NwcResponse decoded;
    ASSERT_TRUE(
        DecodeNwcResponse(MustDecodeFrame(EncodeNwcResponseFrame(3, response)).body, &decoded)
            .ok());
    ExpectSameNwcResponse(decoded, response);

    KnwcResponse knwc = MakeKnwcResponse();
    knwc.result_cache_hit = cache_hit;
    KnwcResponse knwc_decoded;
    ASSERT_TRUE(
        DecodeKnwcResponse(MustDecodeFrame(EncodeKnwcResponseFrame(4, knwc)).body, &knwc_decoded)
            .ok());
    EXPECT_EQ(knwc_decoded.result_cache_hit, cache_hit);
  }

  // The flags byte follows the status (code u8 + u32 length + message)
  // and three u64 counters; the encoding's size is unchanged by the flags.
  NwcResponse response = MakeNwcResponse();
  response.result_cache_hit = false;
  std::string body;
  EncodeNwcResponse(response, &body);
  response.result_cache_hit = true;
  std::string hit_body;
  EncodeNwcResponse(response, &hit_body);
  EXPECT_EQ(body.size(), hit_body.size());
  const size_t flags_at = 1 + 4 + response.status.message().size() + 3 * 8;
  EXPECT_EQ(static_cast<uint8_t>(hit_body[flags_at]), 0x01);
  NwcResponse decoded;
  for (const uint8_t bad : {0x02, 0x04, 0x80, 0xFF}) {
    std::string corrupt = hit_body;
    corrupt[flags_at] = static_cast<char>(bad);
    EXPECT_EQ(DecodeNwcResponse(corrupt, &decoded).code(), StatusCode::kInvalidArgument)
        << "flags byte " << static_cast<int>(bad);
  }
}

// A corrupt element count must fail as truncation, never size an
// allocation: the decoders reserve at most what the unread bytes can hold.
TEST(WireFormat, HugeElementCountsFailWithoutAllocating) {
  const std::string huge_count("\xff\xff\xff\xff", 4);
  MutationBatch batch;
  EXPECT_EQ(DecodeUpdateRequest(huge_count, &batch).code(), StatusCode::kInvalidArgument);

  std::string knwc_body;
  EncodeKnwcResponse(KnwcResponse{}, &knwc_body);
  knwc_body.replace(knwc_body.size() - 4, 4, huge_count);  // group count
  KnwcResponse knwc;
  EXPECT_EQ(DecodeKnwcResponse(knwc_body, &knwc).code(), StatusCode::kInvalidArgument);

  std::string nwc_body;
  EncodeNwcResponse(NwcResponse{}, &nwc_body);
  nwc_body.replace(nwc_body.size() - 4, 4, huge_count);  // object count
  NwcResponse nwc;
  EXPECT_EQ(DecodeNwcResponse(nwc_body, &nwc).code(), StatusCode::kInvalidArgument);
}

TEST(WireFormat, ErrorResponseRoundtripKeepsStatus) {
  NwcResponse response;
  response.status = Status::DeadlineExceeded("query deadline exceeded");
  const WireFrame frame = MustDecodeFrame(EncodeNwcResponseFrame(8, response));
  NwcResponse decoded;
  ASSERT_TRUE(DecodeNwcResponse(frame.body, &decoded).ok());
  EXPECT_EQ(decoded.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(decoded.status.message(), "query deadline exceeded");
}

TEST(WireFormat, KnwcResponseRoundtrip) {
  const KnwcResponse response = MakeKnwcResponse();
  const WireFrame frame = MustDecodeFrame(EncodeKnwcResponseFrame(11, response));
  EXPECT_EQ(frame.type, MsgType::kKnwcResponse);
  KnwcResponse decoded;
  ASSERT_TRUE(DecodeKnwcResponse(frame.body, &decoded).ok());
  EXPECT_EQ(decoded.status.code(), StatusCode::kOk);
  ASSERT_EQ(decoded.result.groups.size(), 2u);
  EXPECT_EQ(decoded.result.groups[0].distance, 10.5);
  EXPECT_EQ(decoded.result.groups[0].objects, response.result.groups[0].objects);
  EXPECT_EQ(decoded.result.groups[1].objects, response.result.groups[1].objects);
  EXPECT_EQ(decoded.latency_micros, 55u);
}

TEST(WireFormat, ErrorFrameRoundtrip) {
  const WireFrame frame =
      MustDecodeFrame(EncodeErrorFrame(0, Status::InvalidArgument("bad \"frame\"\n")));
  EXPECT_EQ(frame.type, MsgType::kError);
  EXPECT_EQ(frame.request_id, 0u);
  Status decoded;
  ASSERT_TRUE(DecodeStatusBody(frame.body, &decoded).ok());
  EXPECT_EQ(decoded.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(decoded.message(), "bad \"frame\"\n");
}

TEST(WireFormat, TraceFlagRoundtripsThroughTheEnvelope) {
  const NwcRequest request = MakeNwcRequest();
  const WireFrame traced =
      MustDecodeFrame(EncodeNwcRequestFrame(42, request, kEnvelopeFlagTrace));
  EXPECT_TRUE(traced.traced());
  EXPECT_EQ(traced.flags, kEnvelopeFlagTrace);
  EXPECT_EQ(traced.type, MsgType::kNwcRequest);
  EXPECT_EQ(traced.request_id, 42u);
  NwcRequest decoded;
  ASSERT_TRUE(DecodeNwcRequest(traced.body, &decoded).ok());
  EXPECT_EQ(decoded.query.n, request.query.n);

  const WireFrame untraced = MustDecodeFrame(EncodeNwcRequestFrame(42, request));
  EXPECT_FALSE(untraced.traced());
  EXPECT_EQ(untraced.flags, 0);
}

// The flag rides the type byte's spare bits: an untraced frame is
// bit-identical to the pre-flag protocol, and a traced request differs in
// exactly one byte — the zero-extra-wire-bytes guarantee.
TEST(WireFormat, TraceFlagCostsZeroExtraRequestBytes) {
  const std::string untraced = EncodeNwcRequestFrame(9, MakeNwcRequest());
  const std::string traced = EncodeNwcRequestFrame(9, MakeNwcRequest(), kEnvelopeFlagTrace);
  ASSERT_EQ(untraced.size(), traced.size());
  size_t differing = 0;
  size_t differ_at = 0;
  for (size_t i = 0; i < untraced.size(); ++i) {
    if (untraced[i] != traced[i]) {
      ++differing;
      differ_at = i;
    }
  }
  EXPECT_EQ(differing, 1u);
  EXPECT_EQ(differ_at, 4u);  // the type byte, right after the u32 length
}

TEST(WireFormat, UnknownEnvelopeFlagsFailAndPoison) {
  std::string stream = EncodeNwcRequestFrame(1, MakeNwcRequest());
  // Valid type, undefined flag bit: must be rejected so the bit stays
  // available for future protocol negotiation.
  stream[4] = static_cast<char>(static_cast<uint8_t>(stream[4]) | 0x40);
  FrameDecoder decoder(1u << 20);
  decoder.Append(stream.data(), stream.size());
  bool has_frame = false;
  WireFrame frame;
  EXPECT_EQ(decoder.Poll(&has_frame, &frame).code(), StatusCode::kInvalidArgument);
  const std::string good = EncodeNwcRequestFrame(2, MakeNwcRequest());
  decoder.Append(good.data(), good.size());
  EXPECT_EQ(decoder.Poll(&has_frame, &frame).code(), StatusCode::kInvalidArgument);
}

TEST(WireFormat, ServerTimingRoundtripsAsBodySuffix) {
  const NwcResponse response = MakeNwcResponse();
  std::string body;
  EncodeNwcResponse(response, &body);
  const std::string plain = body;
  ServerTiming timing;
  timing.decode_us = 3;
  timing.enqueue_us = 10;
  timing.dequeue_us = 250;
  timing.execute_us = 1100;
  timing.encode_us = 1150;
  timing.flush_us = 1190;
  AppendServerTiming(&body, timing);
  ASSERT_EQ(body.size(), plain.size() + kServerTimingWireBytes);

  std::string_view response_body;
  ServerTiming decoded;
  ASSERT_TRUE(SplitServerTiming(body, &response_body, &decoded).ok());
  EXPECT_EQ(response_body, std::string_view(plain));
  EXPECT_EQ(decoded.decode_us, timing.decode_us);
  EXPECT_EQ(decoded.enqueue_us, timing.enqueue_us);
  EXPECT_EQ(decoded.dequeue_us, timing.dequeue_us);
  EXPECT_EQ(decoded.execute_us, timing.execute_us);
  EXPECT_EQ(decoded.encode_us, timing.encode_us);
  EXPECT_EQ(decoded.flush_us, timing.flush_us);
  // The split body is what the strict decoder expects — trailing timing
  // bytes would otherwise fail it.
  NwcResponse reparsed;
  ASSERT_TRUE(DecodeNwcResponse(response_body, &reparsed).ok());
  ExpectSameNwcResponse(reparsed, response);
}

TEST(WireFormat, SplitServerTimingRejectsShortBodies) {
  std::string_view response_body;
  ServerTiming timing;
  EXPECT_EQ(SplitServerTiming(std::string(kServerTimingWireBytes - 1, '\0'), &response_body,
                              &timing)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(WireFormat, PatchServerTimingFlushRewritesOnlyTheFlushField) {
  std::string body;
  EncodeNwcResponse(MakeNwcResponse(), &body);
  ServerTiming timing;
  timing.decode_us = 5;
  timing.encode_us = 90;
  AppendServerTiming(&body, timing);
  std::string frame;
  AppendFrame(&frame, MsgType::kNwcResponse, 7, body, kEnvelopeFlagTrace);

  PatchServerTimingFlush(&frame, 123456);
  const WireFrame decoded = MustDecodeFrame(frame);
  EXPECT_TRUE(decoded.traced());
  std::string_view response_body;
  ServerTiming patched;
  ASSERT_TRUE(SplitServerTiming(decoded.body, &response_body, &patched).ok());
  EXPECT_EQ(patched.flush_us, 123456u);
  EXPECT_EQ(patched.decode_us, 5u);
  EXPECT_EQ(patched.encode_us, 90u);
}

TEST(WireFormat, DecoderReassemblesAcrossArbitrarySplits) {
  std::string stream = EncodeNwcRequestFrame(1, MakeNwcRequest());
  stream += EncodeKnwcRequestFrame(2, MakeKnwcRequest());
  stream += EncodeNwcResponseFrame(3, MakeNwcResponse());
  for (size_t chunk = 1; chunk <= 7; ++chunk) {
    FrameDecoder decoder(1u << 20);
    std::vector<WireFrame> frames;
    for (size_t offset = 0; offset < stream.size(); offset += chunk) {
      const size_t len = std::min(chunk, stream.size() - offset);
      decoder.Append(stream.data() + offset, len);
      while (true) {
        bool has_frame = false;
        WireFrame frame;
        ASSERT_TRUE(decoder.Poll(&has_frame, &frame).ok());
        if (!has_frame) break;
        frames.push_back(frame);
      }
    }
    ASSERT_EQ(frames.size(), 3u) << "chunk size " << chunk;
    EXPECT_EQ(frames[0].request_id, 1u);
    EXPECT_EQ(frames[1].request_id, 2u);
    EXPECT_EQ(frames[2].request_id, 3u);
  }
}

TEST(WireFormat, TruncatedStreamYieldsNoFrame) {
  const std::string stream = EncodeNwcRequestFrame(1, MakeNwcRequest());
  FrameDecoder decoder(1u << 20);
  decoder.Append(stream.data(), stream.size() - 1);
  bool has_frame = true;
  WireFrame frame;
  ASSERT_TRUE(decoder.Poll(&has_frame, &frame).ok());
  EXPECT_FALSE(has_frame);
  EXPECT_GT(decoder.buffered_bytes(), 0u);
}

TEST(WireFormat, OversizedFrameFailsWithOutOfRange) {
  std::string stream = EncodeNwcRequestFrame(1, MakeNwcRequest());
  const uint32_t huge = 1u << 30;
  std::memcpy(stream.data(), &huge, sizeof(huge));  // corrupt the length field
  FrameDecoder decoder(1u << 20);
  decoder.Append(stream.data(), stream.size());
  bool has_frame = false;
  WireFrame frame;
  EXPECT_EQ(decoder.Poll(&has_frame, &frame).code(), StatusCode::kOutOfRange);
}

TEST(WireFormat, UndersizedPayloadFailsWithInvalidArgument) {
  const uint32_t tiny = 3;  // below the 9-byte type+id minimum
  std::string stream(reinterpret_cast<const char*>(&tiny), sizeof(tiny));
  stream += std::string(3, '\0');
  FrameDecoder decoder(1u << 20);
  decoder.Append(stream.data(), stream.size());
  bool has_frame = false;
  WireFrame frame;
  EXPECT_EQ(decoder.Poll(&has_frame, &frame).code(), StatusCode::kInvalidArgument);
}

TEST(WireFormat, UnknownTypeFailsAndPoisons) {
  std::string stream = EncodeNwcRequestFrame(1, MakeNwcRequest());
  stream[4] = 99;  // type byte right after the u32 length
  FrameDecoder decoder(1u << 20);
  decoder.Append(stream.data(), stream.size());
  bool has_frame = false;
  WireFrame frame;
  EXPECT_EQ(decoder.Poll(&has_frame, &frame).code(), StatusCode::kInvalidArgument);
  // Poisoned: appending a pristine frame afterwards cannot resurrect it.
  const std::string good = EncodeNwcRequestFrame(2, MakeNwcRequest());
  decoder.Append(good.data(), good.size());
  EXPECT_EQ(decoder.Poll(&has_frame, &frame).code(), StatusCode::kInvalidArgument);
}

MutationBatch MakeBatch() {
  return MutationBatch{
      Mutation::Insert(DataObject{12, Point{1.5, -2.25}}),
      Mutation::Delete(DataObject{34, Point{0.0, 9000.125}}),
      Mutation::Insert(DataObject{56, Point{-0.5, 0.5}}),
  };
}

TEST(WireFormat, UpdateRequestRoundtrip) {
  const MutationBatch batch = MakeBatch();
  const WireFrame frame = MustDecodeFrame(EncodeUpdateRequestFrame(21, batch));
  EXPECT_EQ(frame.type, MsgType::kUpdateRequest);
  EXPECT_EQ(frame.request_id, 21u);
  MutationBatch decoded;
  ASSERT_TRUE(DecodeUpdateRequest(frame.body, &decoded).ok());
  ASSERT_EQ(decoded.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) EXPECT_EQ(decoded[i], batch[i]);
}

TEST(WireFormat, EmptyUpdateRequestRoundtrip) {
  const WireFrame frame = MustDecodeFrame(EncodeUpdateRequestFrame(22, MutationBatch{}));
  MutationBatch decoded = MakeBatch();  // must be cleared by the decoder
  ASSERT_TRUE(DecodeUpdateRequest(frame.body, &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(WireFormat, UpdateResponseRoundtrip) {
  UpdateResponse response;
  response.status = Status::NotFound("2 of 5 deletes matched no stored object");
  response.epoch = 17;
  response.applied_inserts = 3;
  response.applied_deletes = 1;
  response.delete_misses = 2;
  response.latency_micros = 905;
  const WireFrame frame = MustDecodeFrame(EncodeUpdateResponseFrame(23, response));
  EXPECT_EQ(frame.type, MsgType::kUpdateResponse);
  UpdateResponse decoded;
  ASSERT_TRUE(DecodeUpdateResponse(frame.body, &decoded).ok());
  EXPECT_EQ(decoded.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(decoded.status.message(), response.status.message());
  EXPECT_EQ(decoded.epoch, 17u);
  EXPECT_EQ(decoded.applied_inserts, 3u);
  EXPECT_EQ(decoded.applied_deletes, 1u);
  EXPECT_EQ(decoded.delete_misses, 2u);
  EXPECT_EQ(decoded.latency_micros, 905u);
}

TEST(WireFormat, UpdateRequestRejectsBadKindTruncationAndTrailing) {
  std::string body;
  EncodeUpdateRequest(MakeBatch(), &body);
  MutationBatch decoded;
  ASSERT_TRUE(DecodeUpdateRequest(body, &decoded).ok());

  // The first mutation's kind byte sits right after the u32 count.
  std::string corrupt = body;
  corrupt[4] = 2;  // no such Mutation::Kind
  EXPECT_EQ(DecodeUpdateRequest(corrupt, &decoded).code(), StatusCode::kInvalidArgument);

  for (size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_EQ(DecodeUpdateRequest(body.substr(0, cut), &decoded).code(),
              StatusCode::kInvalidArgument)
        << "cut at " << cut;
  }
  EXPECT_EQ(DecodeUpdateRequest(body + "x", &decoded).code(), StatusCode::kInvalidArgument);
}

TEST(WireFormat, BodyDecodersRejectTruncationAndTrailingBytes) {
  std::string body;
  EncodeNwcRequest(MakeNwcRequest(), &body);
  NwcRequest decoded;
  ASSERT_TRUE(DecodeNwcRequest(body, &decoded).ok());
  for (size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_EQ(DecodeNwcRequest(body.substr(0, cut), &decoded).code(),
              StatusCode::kInvalidArgument)
        << "cut at " << cut;
  }
  EXPECT_EQ(DecodeNwcRequest(body + "x", &decoded).code(), StatusCode::kInvalidArgument);
}

TEST(WireFormat, BodyDecodersRejectOutOfRangeEnums) {
  std::string body;
  EncodeNwcRequest(MakeNwcRequest(), &body);
  // The option flag byte sits right after query (4 doubles + u64) +
  // deadline (u64) + has_options (u8).
  const size_t flags_at = 4 * 8 + 8 + 8 + 1;
  ASSERT_LT(flags_at, body.size());
  std::string corrupt = body;
  corrupt[flags_at] = static_cast<char>(0xF0);  // unknown flag bits
  NwcRequest decoded;
  EXPECT_EQ(DecodeNwcRequest(corrupt, &decoded).code(), StatusCode::kInvalidArgument);

  std::string status_body;
  EncodeStatusBody(Status::Ok(), &status_body);
  status_body[0] = 77;  // no such StatusCode
  Status status;
  EXPECT_EQ(DecodeStatusBody(status_body, &status).code(), StatusCode::kInvalidArgument);
}

// Deterministic fuzz: mutate valid streams (bit flips, truncations,
// splices) and replay them in random-sized chunks. Every outcome must be
// a clean decode or a typed error — decoders must not crash, loop, or
// hand back frames past the first corruption.
TEST(WireFormat, FuzzedStreamsNeverCrashTheDecoder) {
  std::string pristine = EncodeNwcRequestFrame(1, MakeNwcRequest());
  pristine += EncodeKnwcRequestFrame(2, MakeKnwcRequest());
  pristine += EncodeNwcResponseFrame(3, MakeNwcResponse());
  pristine += EncodeKnwcResponseFrame(4, MakeKnwcResponse());
  pristine += EncodeErrorFrame(5, Status::Unavailable("shed"));
  pristine += EncodeUpdateRequestFrame(6, MakeBatch());
  pristine += EncodeUpdateResponseFrame(7, UpdateResponse{Status::Ok(), 9, 2, 1, 0, 333});

  Rng rng(0xF00D);
  for (int round = 0; round < 2000; ++round) {
    std::string stream = pristine;
    const int mutations = 1 + static_cast<int>(rng.NextUint64(4));
    for (int m = 0; m < mutations; ++m) {
      switch (rng.NextUint64(4)) {
        case 0:  // flip a byte
          stream[rng.NextUint64(stream.size())] ^= static_cast<char>(1 + rng.NextUint64(255));
          break;
        case 1:  // truncate
          stream.resize(rng.NextUint64(stream.size() + 1));
          break;
        case 2: {  // splice a random window elsewhere in the stream
          if (stream.size() < 8) break;
          const size_t from = rng.NextUint64(stream.size() - 4);
          const size_t to = rng.NextUint64(stream.size() - 4);
          stream.replace(to, 4, stream.substr(from, 4));
          break;
        }
        default:  // prepend garbage
          stream.insert(0, std::string(1 + rng.NextUint64(12), static_cast<char>(rng.NextUint64(256))));
          break;
      }
    }

    FrameDecoder decoder(1u << 16);
    size_t offset = 0;
    bool poisoned = false;
    while (offset < stream.size()) {
      const size_t chunk = 1 + rng.NextUint64(257);
      const size_t len = std::min(chunk, stream.size() - offset);
      decoder.Append(stream.data() + offset, len);
      offset += len;
      while (!poisoned) {
        bool has_frame = false;
        WireFrame frame;
        const Status status = decoder.Poll(&has_frame, &frame);
        if (!status.ok()) {
          EXPECT_TRUE(status.code() == StatusCode::kInvalidArgument ||
                      status.code() == StatusCode::kOutOfRange)
              << status.ToString();
          poisoned = true;
          break;
        }
        if (!has_frame) break;
        // Envelope-valid frame: body decoding must also never crash.
        NwcRequest nwc_request;
        KnwcRequest knwc_request;
        NwcResponse nwc_response;
        KnwcResponse knwc_response;
        Status body_status;
        switch (frame.type) {
          case MsgType::kNwcRequest:
            (void)DecodeNwcRequest(frame.body, &nwc_request);
            break;
          case MsgType::kKnwcRequest:
            (void)DecodeKnwcRequest(frame.body, &knwc_request);
            break;
          case MsgType::kNwcResponse:
            (void)DecodeNwcResponse(frame.body, &nwc_response);
            break;
          case MsgType::kKnwcResponse:
            (void)DecodeKnwcResponse(frame.body, &knwc_response);
            break;
          case MsgType::kError:
            (void)DecodeStatusBody(frame.body, &body_status);
            break;
          case MsgType::kUpdateRequest: {
            MutationBatch batch;
            (void)DecodeUpdateRequest(frame.body, &batch);
            break;
          }
          case MsgType::kUpdateResponse: {
            UpdateResponse update;
            (void)DecodeUpdateResponse(frame.body, &update);
            break;
          }
        }
      }
      if (poisoned) break;
    }
  }
}

}  // namespace
}  // namespace nwc
