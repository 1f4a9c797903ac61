#include "net/wire.h"

#include <bit>
#include <cstring>
#include <type_traits>

#include "net/socket.h"

namespace janus {
namespace net {

namespace {

[[noreturn]] void ThrowMalformed(const std::string& what) {
  throw ApiException(ApiErrorCode::kMalformedFrame, what);
}

}  // namespace

// --- frame encode / decode --------------------------------------------------

std::vector<uint8_t> EncodeFrame(uint8_t type, uint64_t tenant_id,
                                 uint64_t request_id,
                                 const std::vector<uint8_t>& payload) {
  if (payload.size() > kMaxPayloadBytes) {
    ThrowMalformed("payload of " + std::to_string(payload.size()) +
                   " bytes exceeds the frame cap of " +
                   std::to_string(kMaxPayloadBytes));
  }
  persist::Writer w;
  w.U32(kWireMagic);
  w.U8(type);
  w.U8(0);  // flags: reserved
  w.Bytes(&kWireVersion, 2);
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U64(tenant_id);
  w.U64(request_id);
  w.U64(persist::Xxh64(payload.data(), payload.size()));
  std::vector<uint8_t> frame = w.buffer();
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

FrameHeader DecodeHeader(const uint8_t* data, size_t size) {
  if (size != kFrameHeaderBytes) {
    ThrowMalformed("frame header is " + std::to_string(size) +
                   " bytes, expected " + std::to_string(kFrameHeaderBytes));
  }
  persist::Reader r(data, size);
  FrameHeader h;
  const uint32_t magic = r.U32();
  if (magic != kWireMagic) {
    ThrowMalformed("bad frame magic 0x" + std::to_string(magic) +
                   " (not a serving-tier connection?)");
  }
  h.type = r.U8();
  h.flags = r.U8();
  uint16_t version = 0;
  r.Bytes(&version, 2);
  h.version = version;
  h.payload_len = r.U32();
  h.tenant_id = r.U64();
  h.request_id = r.U64();
  h.checksum = r.U64();
  if (h.version != kWireVersion) {
    ThrowMalformed("unsupported wire version " + std::to_string(h.version) +
                   " (this build speaks version " +
                   std::to_string(kWireVersion) + ")");
  }
  if (h.flags != 0) {
    ThrowMalformed("reserved frame flags must be zero, got " +
                   std::to_string(h.flags));
  }
  if (h.payload_len > kMaxPayloadBytes) {
    // The hostile-length guard: reject before any allocation happens.
    ThrowMalformed("declared payload of " + std::to_string(h.payload_len) +
                   " bytes exceeds the frame cap of " +
                   std::to_string(kMaxPayloadBytes));
  }
  return h;
}

void VerifyPayload(const FrameHeader& h, const std::vector<uint8_t>& payload) {
  if (payload.size() != h.payload_len) {
    ThrowMalformed("frame payload is " + std::to_string(payload.size()) +
                   " bytes but the header declared " +
                   std::to_string(h.payload_len));
  }
  if (persist::Xxh64(payload.data(), payload.size()) != h.checksum) {
    ThrowMalformed("frame payload checksum mismatch");
  }
}

// --- socket-level framing ---------------------------------------------------

void SendFrame(Socket* sock, uint8_t type, uint64_t tenant_id,
               uint64_t request_id, const std::vector<uint8_t>& payload) {
  const std::vector<uint8_t> frame =
      EncodeFrame(type, tenant_id, request_id, payload);
  sock->SendAll(frame.data(), frame.size());
}

bool RecvFrame(Socket* sock, FrameHeader* header,
               std::vector<uint8_t>* payload) {
  uint8_t raw[kFrameHeaderBytes];
  if (!sock->RecvAll(raw, sizeof(raw))) return false;  // clean EOF
  *header = DecodeHeader(raw, sizeof(raw));
  payload->resize(header->payload_len);
  if (header->payload_len > 0 &&
      !sock->RecvAll(payload->data(), payload->size())) {
    ThrowMalformed("connection closed mid-frame: expected " +
                   std::to_string(header->payload_len) + " payload bytes");
  }
  VerifyPayload(*header, *payload);
  return true;
}

// --- payload serializers ----------------------------------------------------

void WriteAggQuery(const AggQuery& q, persist::Writer* w) {
  w->U8(static_cast<uint8_t>(q.func));
  w->I32(q.agg_column);
  w->IntVec(q.predicate_columns);
  w->I32(q.rect.dims());
  for (int d = 0; d < q.rect.dims(); ++d) {
    w->F64(q.rect.lo(d));
    w->F64(q.rect.hi(d));
  }
}

AggQuery ReadAggQuery(persist::Reader* r) {
  AggQuery q;
  const uint8_t func = r->U8();
  if (func > static_cast<uint8_t>(AggFunc::kMax)) {
    ThrowMalformed("unknown aggregate function code " + std::to_string(func));
  }
  q.func = static_cast<AggFunc>(func);
  q.agg_column = r->I32();
  q.predicate_columns = r->IntVec();
  const int dims = r->I32();
  if (dims < 0 || static_cast<size_t>(dims) > r->remaining() / 16) {
    ThrowMalformed("query rectangle declares " + std::to_string(dims) +
                   " dimensions, payload cannot hold them");
  }
  std::vector<double> lo(static_cast<size_t>(dims));
  std::vector<double> hi(static_cast<size_t>(dims));
  for (int d = 0; d < dims; ++d) {
    lo[static_cast<size_t>(d)] = r->F64();
    hi[static_cast<size_t>(d)] = r->F64();
  }
  q.rect = Rectangle(std::move(lo), std::move(hi));
  return q;
}

void WriteQueryResult(const QueryResult& res, persist::Writer* w) {
  w->F64(res.estimate);
  w->F64(res.ci_half_width);
  w->F64(res.variance_catchup);
  w->F64(res.variance_sample);
  // U64, not Size(): Reader::Size() validates length *prefixes* against the
  // payload size, and these are counters that can legitimately exceed the
  // byte count of the frame carrying them.
  w->U64(res.covered_nodes);
  w->U64(res.partial_leaves);
  w->Bool(res.exact);
  w->Bool(res.ok);
  w->U32(res.error_code);
  w->Str(res.error_detail);
}

QueryResult ReadQueryResult(persist::Reader* r) {
  QueryResult res;
  res.estimate = r->F64();
  res.ci_half_width = r->F64();
  res.variance_catchup = r->F64();
  res.variance_sample = r->F64();
  res.covered_nodes = static_cast<size_t>(r->U64());
  res.partial_leaves = static_cast<size_t>(r->U64());
  res.exact = r->Bool();
  res.ok = r->Bool();
  res.error_code = r->U32();
  res.error_detail = r->Str();
  return res;
}

void WriteApiError(const ApiError& e, persist::Writer* w) {
  w->U32(static_cast<uint32_t>(e.code));
  w->Str(e.detail);
}

ApiError ReadApiError(persist::Reader* r) {
  ApiError e;
  e.code = static_cast<ApiErrorCode>(r->U32());
  e.detail = r->Str();
  return e;
}

void WriteEngineStats(const EngineStats& s, persist::Writer* w) {
  w->Str(s.engine);
  w->U64(s.rows);
  w->U64(s.sample_size);
  w->I32(s.num_templates);
  w->U64(s.inserts);
  w->U64(s.deletes);
  w->U64(s.repartitions);
  w->U64(s.partial_repartitions);
  w->U64(s.partial_repartition_fallbacks);
  w->U64(s.trigger_checks);
  w->U64(s.trigger_fires);
  w->U64(s.reservoir_resamples);
  w->U64(s.background_reopts);
  w->U64(s.background_discards);
  w->U64(s.delta_ops_replayed);
  w->U64(s.catchup_processed);
  w->F64(s.catchup_processing_seconds);
  w->U64(s.parallel_scans);
  w->U64(s.serial_scans);
  w->U64(s.nested_serial_scans);
  w->U64(s.stolen_morsels);
  w->F64(s.last_reopt_seconds);
  w->F64(s.last_blocking_seconds);
  w->F64(s.build_seconds);
  w->F64(s.partition_seconds);
  w->U64(s.archive_bytes);
  w->U64(s.synopsis_bytes);
}

EngineStats ReadEngineStats(persist::Reader* r) {
  EngineStats s;
  s.engine = r->Str();
  s.rows = static_cast<size_t>(r->U64());
  s.sample_size = static_cast<size_t>(r->U64());
  s.num_templates = r->I32();
  s.inserts = r->U64();
  s.deletes = r->U64();
  s.repartitions = r->U64();
  s.partial_repartitions = r->U64();
  s.partial_repartition_fallbacks = r->U64();
  s.trigger_checks = r->U64();
  s.trigger_fires = r->U64();
  s.reservoir_resamples = r->U64();
  s.background_reopts = r->U64();
  s.background_discards = r->U64();
  s.delta_ops_replayed = r->U64();
  s.catchup_processed = static_cast<size_t>(r->U64());
  s.catchup_processing_seconds = r->F64();
  s.parallel_scans = r->U64();
  s.serial_scans = r->U64();
  s.nested_serial_scans = r->U64();
  s.stolen_morsels = r->U64();
  s.last_reopt_seconds = r->F64();
  s.last_blocking_seconds = r->F64();
  s.build_seconds = r->F64();
  s.partition_seconds = r->F64();
  s.archive_bytes = static_cast<size_t>(r->U64());
  s.synopsis_bytes = static_cast<size_t>(r->U64());
  return s;
}

void WriteServingStats(const ServingStats& s, persist::Writer* w) {
  w->U64(s.connections);
  w->U64(s.frames);
  w->U64(s.queries);
  w->U64(s.batches);
  w->U64(s.batched_queries);
  w->U64(s.inserts);
  w->U64(s.deletes);
  w->U64(s.rejected_rate_limit);
  w->U64(s.rejected_overloaded);
  w->U64(s.malformed_frames);
}

ServingStats ReadServingStats(persist::Reader* r) {
  ServingStats s;
  s.connections = r->U64();
  s.frames = r->U64();
  s.queries = r->U64();
  s.batches = r->U64();
  s.batched_queries = r->U64();
  s.inserts = r->U64();
  s.deletes = r->U64();
  s.rejected_rate_limit = r->U64();
  s.rejected_overloaded = r->U64();
  s.malformed_frames = r->U64();
  return s;
}

void WriteStatsReply(const StatsReply& s, persist::Writer* w) {
  WriteEngineStats(s.engine, w);
  WriteServingStats(s.serving, w);
}

StatsReply ReadStatsReply(persist::Reader* r) {
  StatsReply s;
  s.engine = ReadEngineStats(r);
  s.serving = ReadServingStats(r);
  return s;
}

void WriteQueryVec(const std::vector<AggQuery>& qs, persist::Writer* w) {
  w->Size(qs.size());
  for (const AggQuery& q : qs) WriteAggQuery(q, w);
}

std::vector<AggQuery> ReadQueryVec(persist::Reader* r) {
  // Smallest query: func, agg column, empty column list, zero dims.
  std::vector<AggQuery> qs(r->Count(1 + 4 + 8 + 4));
  for (AggQuery& q : qs) q = ReadAggQuery(r);
  return qs;
}

void WriteResultVec(const std::vector<QueryResult>& rs, persist::Writer* w) {
  w->Size(rs.size());
  for (const QueryResult& res : rs) WriteQueryResult(res, w);
}

std::vector<QueryResult> ReadResultVec(persist::Reader* r) {
  // Smallest result: four doubles, two counters, two flags, a code and an
  // empty detail string.
  std::vector<QueryResult> rs(r->Count(4 * 8 + 2 * 8 + 2 + 4 + 8));
  for (QueryResult& res : rs) res = ReadQueryResult(r);
  return rs;
}

// A tuple crosses the wire as its id and then its kMaxColumns values, each
// a little-endian 8-byte word with the doubles' IEEE-754 bits: exactly the
// in-memory layout of Tuple on a little-endian host, so a vector of them is
// copied as one byte run.
static_assert(std::is_trivially_copyable_v<Tuple>);
static_assert(sizeof(Tuple) == 8 * (1 + kMaxColumns),
              "Tuple must be its id and values with no padding");
static_assert(std::endian::native == std::endian::little,
              "the wire format is little-endian");

void WriteTupleVec(const std::vector<Tuple>& ts, persist::Writer* w) {
  w->Size(ts.size());
  w->Bytes(ts.data(), ts.size() * sizeof(Tuple));
}

std::vector<Tuple> ReadTupleVec(persist::Reader* r) {
  std::vector<Tuple> ts(r->Count(sizeof(Tuple)));
  r->Bytes(ts.data(), ts.size() * sizeof(Tuple));
  return ts;
}

void WriteConfigEcho(const ConfigKeyEcho& keys, persist::Writer* w) {
  w->Size(keys.size());
  for (const auto& [key, summary] : keys) {
    w->Str(key);
    w->Str(summary);
  }
}

ConfigKeyEcho ReadConfigEcho(persist::Reader* r) {
  ConfigKeyEcho keys(r->Count(2 * 8));  // two length prefixes per key
  for (auto& [key, summary] : keys) {
    key = r->Str();
    summary = r->Str();
  }
  return keys;
}

}  // namespace net
}  // namespace janus
