// Wire-format hardening for the serving tier (net/wire.h).
//
// The contract under test: every payload type round-trips bit-exactly
// through the persist serde (doubles included), and every malformed frame —
// wrong magic, unknown version, reserved flags, hostile payload length,
// truncated header, flipped payload bit — fails with a *typed*
// ApiException(kMalformedFrame) before the payload is trusted, never a
// crash or an unbounded allocation. Counters ride as plain u64, so a
// QueryResult whose covered_nodes exceeds the byte length of the frame
// carrying it (real sharded-merge outputs do) must still round-trip.
// Tuples cross as one byte run whose bytes a recorded digest pins, frames
// carry XXH64 checksums, and a hostile element count fails before its
// vector is allocated.

#include <sys/resource.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/error.h"
#include "net/wire.h"
#include "persist/serde.h"
#include "tests/test_digest.h"

namespace janus {
namespace net {
namespace {

template <typename T, typename WriteFn, typename ReadFn>
T RoundTrip(const T& value, WriteFn write, ReadFn read) {
  persist::Writer w;
  write(value, &w);
  persist::Reader r(w.buffer());
  T out = read(&r);
  EXPECT_EQ(r.remaining(), 0u) << "decoder left trailing bytes";
  return out;
}

AggQuery SampleQuery() {
  AggQuery q;
  q.func = AggFunc::kAvg;
  q.agg_column = 3;
  q.predicate_columns = {0, 2};
  q.rect = Rectangle({-1.5, 0.0}, {2.5, 1e9});
  return q;
}

TEST(NetWireTest, AggQueryRoundTripsBitExactly) {
  const AggQuery q = SampleQuery();
  const AggQuery out = RoundTrip(q, WriteAggQuery, ReadAggQuery);
  EXPECT_EQ(out.func, q.func);
  EXPECT_EQ(out.agg_column, q.agg_column);
  EXPECT_EQ(out.predicate_columns, q.predicate_columns);
  ASSERT_EQ(out.rect.dims(), q.rect.dims());
  for (int d = 0; d < q.rect.dims(); ++d) {
    EXPECT_EQ(out.rect.lo(d), q.rect.lo(d));
    EXPECT_EQ(out.rect.hi(d), q.rect.hi(d));
  }
}

TEST(NetWireTest, QueryResultRoundTripsIncludingErrorSlot) {
  QueryResult res;
  res.estimate = -0.0;  // signed zero must survive
  res.ci_half_width = 0.125;
  res.variance_catchup = 1e-300;
  res.variance_sample = std::numeric_limits<double>::infinity();
  res.covered_nodes = 17;
  res.partial_leaves = 5;
  res.exact = true;
  res.ok = false;
  res.error_code = static_cast<uint32_t>(ApiErrorCode::kRejectedRateLimit);
  res.error_detail = "tenant 7 over budget";

  const QueryResult out = RoundTrip(res, WriteQueryResult, ReadQueryResult);
  EXPECT_EQ(std::signbit(out.estimate), std::signbit(res.estimate));
  EXPECT_EQ(out.estimate, res.estimate);
  EXPECT_EQ(out.ci_half_width, res.ci_half_width);
  EXPECT_EQ(out.variance_catchup, res.variance_catchup);
  EXPECT_EQ(out.variance_sample, res.variance_sample);
  EXPECT_EQ(out.covered_nodes, res.covered_nodes);
  EXPECT_EQ(out.partial_leaves, res.partial_leaves);
  EXPECT_EQ(out.exact, res.exact);
  EXPECT_EQ(out.ok, res.ok);
  EXPECT_EQ(out.error_code, res.error_code);
  EXPECT_EQ(out.error_detail, res.error_detail);
}

TEST(NetWireTest, CountersLargerThanTheFrameRoundTrip) {
  // Regression guard: counters are plain u64 on the wire, NOT Size()
  // values. A Size() read validates against the payload byte count, and a
  // merged sharded result routinely reports covered_nodes greater than the
  // byte length of its own frame — that must decode fine.
  QueryResult res;
  res.covered_nodes = 1u << 20;    // far larger than the encoded payload
  res.partial_leaves = 123456789;  // ditto
  const QueryResult out = RoundTrip(res, WriteQueryResult, ReadQueryResult);
  EXPECT_EQ(out.covered_nodes, res.covered_nodes);
  EXPECT_EQ(out.partial_leaves, res.partial_leaves);

  EngineStats stats;
  stats.engine = "sharded:janus";
  stats.rows = size_t{1} << 40;  // counters exceed any frame length
  stats.sample_size = 999999999;
  stats.catchup_processed = size_t{3} << 33;
  stats.archive_bytes = size_t{7} << 34;
  stats.synopsis_bytes = size_t{5} << 32;
  const EngineStats sout = RoundTrip(stats, WriteEngineStats,
                                     ReadEngineStats);
  EXPECT_EQ(sout.engine, stats.engine);
  EXPECT_EQ(sout.rows, stats.rows);
  EXPECT_EQ(sout.sample_size, stats.sample_size);
  EXPECT_EQ(sout.catchup_processed, stats.catchup_processed);
  EXPECT_EQ(sout.archive_bytes, stats.archive_bytes);
  EXPECT_EQ(sout.synopsis_bytes, stats.synopsis_bytes);
}

TEST(NetWireTest, VectorPayloadsRoundTrip) {
  std::vector<AggQuery> qs(3, SampleQuery());
  qs[1].func = AggFunc::kCount;
  qs[2].agg_column = 1;
  const std::vector<AggQuery> qout = RoundTrip(qs, WriteQueryVec,
                                               ReadQueryVec);
  ASSERT_EQ(qout.size(), qs.size());
  EXPECT_EQ(qout[1].func, AggFunc::kCount);
  EXPECT_EQ(qout[2].agg_column, 1);

  std::vector<QueryResult> rs(2);
  rs[0].estimate = 42.0;
  rs[1].ok = false;
  rs[1].error_code = static_cast<uint32_t>(ApiErrorCode::kInternal);
  const std::vector<QueryResult> rout = RoundTrip(rs, WriteResultVec,
                                                  ReadResultVec);
  ASSERT_EQ(rout.size(), 2u);
  EXPECT_EQ(rout[0].estimate, 42.0);
  EXPECT_FALSE(rout[1].ok);

  std::vector<Tuple> ts(2);
  ts[0].id = 7;
  ts[0][0] = 1.25;
  ts[1].id = 9;
  ts[1][1] = -3.5;
  const std::vector<Tuple> tout = RoundTrip(ts, WriteTupleVec, ReadTupleVec);
  ASSERT_EQ(tout.size(), 2u);
  EXPECT_EQ(tout[0].id, 7u);
  EXPECT_EQ(tout[0][0], 1.25);
  EXPECT_EQ(tout[1].id, 9u);
  EXPECT_EQ(tout[1][1], -3.5);
}

TEST(NetWireTest, TupleVecBytesMatchRecordedDigest) {
  // Every special double, in every column position, crosses bit for bit:
  // the bytes hash to a digest recorded from the per-field codec.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> specials = {nan, -nan, -0.0, 0.0, inf, -inf};
  specials.push_back(std::numeric_limits<double>::denorm_min());
  specials.push_back(std::numeric_limits<double>::max());
  specials.push_back(-1.5);
  specials.push_back(1e-300);
  std::vector<Tuple> ts(13);
  for (size_t i = 0; i < ts.size(); ++i) {
    ts[i].id = 0x0123456789ABCDEFull * (i + 1);
    for (int c = 0; c < kMaxColumns; ++c) {
      ts[i][c] = specials[(i + static_cast<size_t>(c)) % specials.size()];
    }
  }
  persist::Writer w;
  WriteTupleVec(ts, &w);
  EXPECT_EQ(w.buffer().size(), 8 + ts.size() * 8 * (1 + kMaxColumns));
  EXPECT_EQ(DigestHex(w), "0x8e2ee219ceeff49f");

  persist::Reader r(w.buffer());
  const std::vector<Tuple> out = ReadTupleVec(&r);
  EXPECT_TRUE(r.AtEnd());
  ASSERT_EQ(out.size(), ts.size());
  for (size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(out[i].id, ts[i].id);
    for (int c = 0; c < kMaxColumns; ++c) {
      EXPECT_EQ(std::bit_cast<uint64_t>(out[i][c]),
                std::bit_cast<uint64_t>(ts[i][c]))
          << "tuple " << i << " column " << c;
    }
  }
}

TEST(NetWireTest, ApiErrorAndConfigEchoRoundTrip) {
  const ApiError err{ApiErrorCode::kUnknownConfigKey, "no such key 'shrads'"};
  const ApiError eout = RoundTrip(err, WriteApiError, ReadApiError);
  EXPECT_EQ(eout.code, err.code);
  EXPECT_EQ(eout.detail, err.detail);

  const ConfigKeyEcho echo = {{"leaves", "partition-tree leaf budget"},
                              {"batch_window_us", "coalescing window"}};
  const ConfigKeyEcho oout = RoundTrip(echo, WriteConfigEcho, ReadConfigEcho);
  EXPECT_EQ(oout, echo);
}

TEST(NetWireTest, StatsReplyCarriesServingCounters) {
  StatsReply reply;
  reply.engine.engine = "janus";
  reply.engine.rows = 12345;
  reply.serving.connections = 8;
  reply.serving.queries = 4000;
  reply.serving.batches = 512;
  reply.serving.batched_queries = 3900;
  reply.serving.rejected_rate_limit = 77;
  reply.serving.malformed_frames = 3;
  const StatsReply out = RoundTrip(reply, WriteStatsReply, ReadStatsReply);
  EXPECT_EQ(out.engine.engine, "janus");
  EXPECT_EQ(out.engine.rows, 12345u);
  EXPECT_EQ(out.serving.connections, 8u);
  EXPECT_EQ(out.serving.queries, 4000u);
  EXPECT_EQ(out.serving.batches, 512u);
  EXPECT_EQ(out.serving.batched_queries, 3900u);
  EXPECT_EQ(out.serving.rejected_rate_limit, 77u);
  EXPECT_EQ(out.serving.malformed_frames, 3u);
}

// ---------------------------------------------------------------------------
// Frame header validation: every corruption is a typed error, pre-payload.
// ---------------------------------------------------------------------------

std::vector<uint8_t> ValidFrame() {
  persist::Writer w;
  WriteAggQuery(SampleQuery(), &w);
  return EncodeFrame(static_cast<uint8_t>(MsgType::kQuery), /*tenant_id=*/7,
                     /*request_id=*/42, w.buffer());
}

ApiErrorCode DecodeError(const std::vector<uint8_t>& frame) {
  try {
    (void)DecodeHeader(frame.data(), std::min(frame.size(),
                                              kFrameHeaderBytes));
    return ApiErrorCode::kOk;
  } catch (const ApiException& e) {
    return e.code();
  }
}

TEST(NetWireTest, EncodeDecodeHeaderRoundTrips) {
  const std::vector<uint8_t> frame = ValidFrame();
  ASSERT_GE(frame.size(), kFrameHeaderBytes);
  const FrameHeader h = DecodeHeader(frame.data(), kFrameHeaderBytes);
  EXPECT_EQ(h.type, static_cast<uint8_t>(MsgType::kQuery));
  EXPECT_EQ(h.version, kWireVersion);
  EXPECT_EQ(h.tenant_id, 7u);
  EXPECT_EQ(h.request_id, 42u);
  EXPECT_EQ(h.payload_len, frame.size() - kFrameHeaderBytes);

  const std::vector<uint8_t> payload(frame.begin() + kFrameHeaderBytes,
                                     frame.end());
  EXPECT_EQ(h.checksum, persist::Xxh64(payload.data(), payload.size()));
  EXPECT_NO_THROW(VerifyPayload(h, payload));
}

TEST(NetWireTest, BadMagicIsTyped) {
  std::vector<uint8_t> frame = ValidFrame();
  frame[0] ^= 0xFF;
  EXPECT_EQ(DecodeError(frame), ApiErrorCode::kMalformedFrame);
}

TEST(NetWireTest, UnknownVersionIsTyped) {
  // Version 1, whose frames carried FNV-1a checksums, included.
  for (const uint8_t version : {uint8_t{1}, uint8_t{0x7F}}) {
    std::vector<uint8_t> frame = ValidFrame();
    frame[6] = version;  // version low byte
    EXPECT_EQ(DecodeError(frame), ApiErrorCode::kMalformedFrame) << +version;
  }
}

TEST(NetWireTest, ReservedFlagsMustBeZero) {
  std::vector<uint8_t> frame = ValidFrame();
  frame[5] = 0x01;  // flags byte
  EXPECT_EQ(DecodeError(frame), ApiErrorCode::kMalformedFrame);
}

TEST(NetWireTest, HostilePayloadLengthIsRejectedBeforeAllocation) {
  std::vector<uint8_t> frame = ValidFrame();
  // payload_len bytes 8-11: claim 4 GiB - 1. The decoder must reject the
  // header (cap kMaxPayloadBytes) without ever allocating the claimed size.
  frame[8] = frame[9] = frame[10] = frame[11] = 0xFF;
  EXPECT_EQ(DecodeError(frame), ApiErrorCode::kMalformedFrame);
}

TEST(NetWireTest, TruncatedHeaderIsTyped) {
  const std::vector<uint8_t> frame = ValidFrame();
  for (size_t n : {0u, 1u, 4u, 35u}) {
    try {
      (void)DecodeHeader(frame.data(), n);
      FAIL() << "header of " << n << " bytes decoded";
    } catch (const ApiException& e) {
      EXPECT_EQ(e.code(), ApiErrorCode::kMalformedFrame) << n;
    }
  }
}

TEST(NetWireTest, FlippedPayloadBitFailsTheChecksum) {
  std::vector<uint8_t> frame = ValidFrame();
  const FrameHeader h = DecodeHeader(frame.data(), kFrameHeaderBytes);
  std::vector<uint8_t> payload(frame.begin() + kFrameHeaderBytes,
                               frame.end());
  ASSERT_FALSE(payload.empty());
  payload[payload.size() / 2] ^= 0x10;
  try {
    VerifyPayload(h, payload);
    FAIL() << "corrupt payload passed the checksum";
  } catch (const ApiException& e) {
    EXPECT_EQ(e.code(), ApiErrorCode::kMalformedFrame);
  }
}

TEST(NetWireTest, Xxh64KnownAnswers) {
  // Seed 0, as the reference implementation (libxxhash 0.8) computes them.
  const auto hash = [](const std::string& s) {
    return persist::Xxh64(reinterpret_cast<const uint8_t*>(s.data()),
                          s.size());
  };
  EXPECT_EQ(hash(""), 0xef46db3751d8e999ull);
  EXPECT_EQ(hash("a"), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(hash("abc"), 0x44bc2cf5ad770999ull);
  EXPECT_EQ(hash("JanusAQP"), 0xf2e02b182087ced5ull);
  std::vector<uint8_t> counting(100);
  for (size_t i = 0; i < counting.size(); ++i) {
    counting[i] = static_cast<uint8_t>(i);
  }
  EXPECT_EQ(persist::Xxh64(counting.data(), 32), 0xcbf59c5116ff32b4ull);
  EXPECT_EQ(persist::Xxh64(counting.data(), 100), 0x6ac1e58032166597ull);
  // The size of a 256-row insert frame's payload.
  std::vector<uint8_t> frame(18440);
  for (size_t i = 0; i < frame.size(); ++i) {
    frame[i] = static_cast<uint8_t>((i * 131 + 7) & 255);
  }
  EXPECT_EQ(persist::Xxh64(frame.data(), frame.size()),
            0x7a3a32800bb3e73bull);
}

long PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // kilobytes on Linux
}

TEST(NetWireTest, HostileElementCountsAllocateNothing) {
  // A payload of the largest frame size whose count claims 2^24 elements
  // over a zero body. Each element takes at least 8 bytes, so the bytes
  // left cannot hold them: every decoder must throw a typed error before
  // it sizes a vector (2^24 tuples would be 1.2 GB).
  std::vector<uint8_t> payload(kMaxPayloadBytes, 0);
  const uint64_t hostile = uint64_t{1} << 24;
  std::memcpy(payload.data(), &hostile, sizeof(hostile));
  const long before_kb = PeakRssKb();

  persist::Reader tuples(payload);
  EXPECT_THROW((void)ReadTupleVec(&tuples), persist::PersistError);
  persist::Reader queries(payload);
  EXPECT_THROW((void)ReadQueryVec(&queries), persist::PersistError);
  // kDelete's body: a count, then that many u64 ids.
  persist::Reader ids(payload);
  EXPECT_THROW((void)ids.U64Vec(), persist::PersistError);

  const long grown_kb = PeakRssKb() - before_kb;
  EXPECT_LT(grown_kb, 64 * 1024) << "peak RSS grew by " << grown_kb << " KB";
}

TEST(NetWireTest, TruncatedPayloadBodyThrowsAtEveryCut) {
  // Whatever point the truncation lands on — mid-field (bounds-checked
  // Reader, PersistError) or between fields (the dims-vs-remaining sanity
  // guard, typed ApiException) — decoding must throw, never read past the
  // end or fabricate a query. Both exception types map to kMalformedFrame
  // at the frame boundary.
  persist::Writer w;
  WriteAggQuery(SampleQuery(), &w);
  const std::vector<uint8_t> full = w.buffer();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    persist::Reader r(full.data(), cut);
    EXPECT_THROW((void)ReadAggQuery(&r), std::exception) << "cut=" << cut;
  }
}

TEST(NetWireTest, GarbageQueryBodyIsRejectedNotTrusted) {
  // A body that parses as a header but claims absurd dims must fail the
  // dims-vs-remaining sanity check instead of allocating a huge rectangle.
  persist::Writer w;
  w.U8(static_cast<uint8_t>(AggFunc::kCount));
  w.I32(1);              // agg_column
  w.IntVec({0, 1, 2});   // predicate columns
  w.I32(0x40000000);     // hostile dim count
  persist::Reader r(w.buffer());
  EXPECT_THROW((void)ReadAggQuery(&r), std::exception);

  persist::Writer w2;
  w2.U8(250);            // unknown aggregate function code
  persist::Reader r2(w2.buffer());
  EXPECT_THROW((void)ReadAggQuery(&r2), ApiException);
}

}  // namespace
}  // namespace net
}  // namespace janus
