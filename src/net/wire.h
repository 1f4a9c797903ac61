#ifndef JANUS_NET_WIRE_H_
#define JANUS_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "api/error.h"
#include "data/schema.h"
#include "data/workload.h"
#include "persist/serde.h"

namespace janus {
namespace net {

class Socket;

/// Wire format of the serving tier: length-prefixed, checksummed binary
/// frames over TCP, reusing the persist::Writer/Reader serde (fixed-width
/// little-endian, bit-exact doubles) for payload bodies.
///
/// Frame layout (kFrameHeaderBytes, then payload):
///   bytes  0-3   magic "JAQW" (u32)
///   byte   4     message type (MsgType; replies set kReplyBit)
///   byte   5     flags (reserved, must be 0)
///   bytes  6-7   protocol version (u16, currently 2)
///   bytes  8-11  payload byte count (u32, capped at kMaxPayloadBytes)
///   bytes 12-19  tenant id (u64) — admission control key
///   bytes 20-27  request id (u64) — echoed verbatim in the reply
///   bytes 28-35  XXH64 (seed 0) checksum of the payload (u64)
///
/// A version-1 peer (FNV-1a checksums) gets the typed "unsupported wire
/// version" error.
///
/// Every header field is validated before a single payload byte is
/// allocated or parsed: wrong magic, unknown version, non-zero flags and
/// hostile payload lengths all fail with ApiException(kMalformedFrame),
/// never a crash or an unbounded allocation. Payload decoding inherits the
/// bounds-checked Reader, so truncated or bit-flipped bodies surface as
/// typed errors too, and every element count is checked against the bytes
/// left before its vector is allocated (persist::Reader::Count).
inline constexpr uint32_t kWireMagic = 0x5751414Au;  // "JAQW"
inline constexpr uint16_t kWireVersion = 2;
inline constexpr size_t kFrameHeaderBytes = 36;
/// Hard cap on a single frame payload: a hostile length prefix makes the
/// server allocate at most this much before the checksum check fails it.
/// A hostile element count inside the payload allocates nothing, because no
/// decoder sizes a vector for more elements than the bytes left can hold.
inline constexpr uint32_t kMaxPayloadBytes = 16u << 20;

/// Request message types. A reply carries the request's type with
/// kReplyBit set; a failed request of any type carries kErrorReply with an
/// ApiError payload.
enum class MsgType : uint8_t {
  kPing = 1,        ///< empty payload; reply: empty payload
  kQuery = 2,       ///< AggQuery; reply: QueryResult
  kQueryBatch = 3,  ///< vector<AggQuery>; reply: vector<QueryResult>
  kInsert = 4,      ///< vector<Tuple>; reply: u64 accepted count
  kDelete = 5,      ///< vector<u64> ids; reply: u64 deleted count
  kStats = 6,       ///< empty; reply: StatsReply
  kConfigEcho = 7,  ///< empty; reply: vector<(key, summary)> config registry
};

inline constexpr uint8_t kReplyBit = 0x80;
inline constexpr uint8_t kErrorReply = 0xFF;

/// Decoded frame header (host representation).
struct FrameHeader {
  uint8_t type = 0;
  uint8_t flags = 0;
  uint16_t version = kWireVersion;
  uint32_t payload_len = 0;
  uint64_t tenant_id = 0;
  uint64_t request_id = 0;
  uint64_t checksum = 0;
};

/// Server-side traffic counters, serialized inside StatsReply so clients
/// can observe admission-control behavior over the wire.
struct ServingStats {
  uint64_t connections = 0;       ///< connections accepted
  uint64_t frames = 0;            ///< request frames decoded
  uint64_t queries = 0;           ///< queries answered (incl. batched)
  uint64_t batches = 0;           ///< engine QueryBatch calls issued
  uint64_t batched_queries = 0;   ///< queries that rode a coalesced batch
  uint64_t inserts = 0;           ///< tuples ingested
  uint64_t deletes = 0;           ///< delete requests applied
  uint64_t rejected_rate_limit = 0;  ///< kRejectedRateLimit replies
  uint64_t rejected_overloaded = 0;  ///< kRejectedOverloaded replies
  uint64_t malformed_frames = 0;     ///< frames failing header/checksum
};

/// Stats reply body: the engine's uniform snapshot plus the server's
/// serving counters.
struct StatsReply {
  EngineStats engine;
  ServingStats serving;
};

// --- frame encode / decode --------------------------------------------------

/// Serialize a complete frame (header + payload) into one send buffer.
std::vector<uint8_t> EncodeFrame(uint8_t type, uint64_t tenant_id,
                                 uint64_t request_id,
                                 const std::vector<uint8_t>& payload);

/// Parse and validate a header block (exactly kFrameHeaderBytes bytes).
/// Throws ApiException(kMalformedFrame) on bad magic, unsupported version,
/// non-zero flags or an oversized payload length.
FrameHeader DecodeHeader(const uint8_t* data, size_t size);

/// Verify the payload against the header's checksum; throws
/// ApiException(kMalformedFrame) on mismatch.
void VerifyPayload(const FrameHeader& h, const std::vector<uint8_t>& payload);

// --- socket-level framing ---------------------------------------------------

/// Send one frame; throws ApiException(kNetwork) on transport failure.
void SendFrame(Socket* sock, uint8_t type, uint64_t tenant_id,
               uint64_t request_id, const std::vector<uint8_t>& payload);

/// Receive one frame. Returns false on clean EOF at a frame boundary
/// (peer closed between frames). Throws ApiException(kMalformedFrame) on a
/// corrupt header/payload and ApiException(kNetwork) on transport errors or
/// mid-frame EOF.
bool RecvFrame(Socket* sock, FrameHeader* header,
               std::vector<uint8_t>* payload);

// --- payload serializers ----------------------------------------------------
//
// All Read* functions decode from a bounds-checked persist::Reader; a
// truncated or garbage body throws persist::PersistError, which the frame
// paths convert to ApiException(kMalformedFrame).

void WriteAggQuery(const AggQuery& q, persist::Writer* w);
AggQuery ReadAggQuery(persist::Reader* r);

void WriteQueryResult(const QueryResult& res, persist::Writer* w);
QueryResult ReadQueryResult(persist::Reader* r);

void WriteApiError(const ApiError& e, persist::Writer* w);
ApiError ReadApiError(persist::Reader* r);

void WriteEngineStats(const EngineStats& s, persist::Writer* w);
EngineStats ReadEngineStats(persist::Reader* r);

void WriteServingStats(const ServingStats& s, persist::Writer* w);
ServingStats ReadServingStats(persist::Reader* r);

void WriteStatsReply(const StatsReply& s, persist::Writer* w);
StatsReply ReadStatsReply(persist::Reader* r);

void WriteQueryVec(const std::vector<AggQuery>& qs, persist::Writer* w);
std::vector<AggQuery> ReadQueryVec(persist::Reader* r);

void WriteResultVec(const std::vector<QueryResult>& rs, persist::Writer* w);
std::vector<QueryResult> ReadResultVec(persist::Reader* r);

/// kInsert's payload: a count, then each tuple's id and kMaxColumns values
/// as 8-byte words, copied as one byte run.
void WriteTupleVec(const std::vector<Tuple>& ts, persist::Writer* w);
std::vector<Tuple> ReadTupleVec(persist::Reader* r);

using ConfigKeyEcho = std::vector<std::pair<std::string, std::string>>;
void WriteConfigEcho(const ConfigKeyEcho& keys, persist::Writer* w);
ConfigKeyEcho ReadConfigEcho(persist::Reader* r);

}  // namespace net
}  // namespace janus

#endif  // JANUS_NET_WIRE_H_
