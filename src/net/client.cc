#include "net/client.h"

#include "api/error.h"
#include "persist/serde.h"

namespace janus {
namespace net {

namespace {

/// Decode a reply payload; a truncated or garbage body (caught by the
/// bounds-checked Reader) surfaces as a typed malformed-frame error, never
/// a raw persistence exception.
template <typename Fn>
auto DecodePayload(const std::vector<uint8_t>& payload, Fn fn)
    -> decltype(fn(static_cast<persist::Reader*>(nullptr))) {
  persist::Reader r(payload.data(), payload.size());
  try {
    return fn(&r);
  } catch (const persist::PersistError& e) {
    throw ApiException(ApiErrorCode::kMalformedFrame,
                       std::string("reply payload does not parse: ") +
                           e.what());
  }
}

}  // namespace

AqpClient::AqpClient(const std::string& host, uint16_t port,
                     uint64_t tenant_id)
    : sock_(Socket::ConnectTcp(host, port)), tenant_id_(tenant_id) {}

std::vector<uint8_t> AqpClient::RoundTrip(MsgType type,
                                          const std::vector<uint8_t>& payload,
                                          ApiError* err) {
  const uint64_t request_id = next_request_id_++;
  SendFrame(&sock_, static_cast<uint8_t>(type), tenant_id_, request_id,
            payload);
  FrameHeader header;
  std::vector<uint8_t> reply;
  if (!RecvFrame(&sock_, &header, &reply)) {
    throw ApiException(ApiErrorCode::kNetwork,
                       "server closed the connection before replying");
  }
  if (header.type == kErrorReply) {
    *err = DecodePayload(reply, [](persist::Reader* r) {
      return ReadApiError(r);
    });
    if (err->ok()) {
      // An error frame must carry an error; a kOk code is itself malformed.
      throw ApiException(ApiErrorCode::kMalformedFrame,
                         "error reply carried ApiErrorCode::kOk");
    }
    return {};
  }
  if (header.type != (static_cast<uint8_t>(type) | kReplyBit)) {
    throw ApiException(ApiErrorCode::kMalformedFrame,
                       "reply type " + std::to_string(header.type) +
                           " does not match request type " +
                           std::to_string(static_cast<uint8_t>(type)));
  }
  if (header.request_id != request_id) {
    throw ApiException(ApiErrorCode::kMalformedFrame,
                       "reply echoes request id " +
                           std::to_string(header.request_id) + ", expected " +
                           std::to_string(request_id));
  }
  *err = ApiError::Ok();
  return reply;
}

std::vector<uint8_t> AqpClient::RoundTripOrThrow(
    MsgType type, const std::vector<uint8_t>& payload) {
  ApiError err;
  std::vector<uint8_t> reply = RoundTrip(type, payload, &err);
  if (!err.ok()) throw ApiException(err.code, err.detail);
  return reply;
}

void AqpClient::Ping() { RoundTripOrThrow(MsgType::kPing, {}); }

QueryResult AqpClient::Query(const AggQuery& q) {
  persist::Writer w;
  WriteAggQuery(q, &w);
  ApiError err;
  const std::vector<uint8_t> reply = RoundTrip(MsgType::kQuery, w.buffer(),
                                               &err);
  if (!err.ok()) {
    QueryResult res;
    res.ok = false;
    res.error_code = static_cast<uint32_t>(err.code);
    res.error_detail = err.detail;
    return res;
  }
  return DecodePayload(reply, [](persist::Reader* r) {
    return ReadQueryResult(r);
  });
}

std::vector<QueryResult> AqpClient::QueryBatch(
    const std::vector<AggQuery>& queries) {
  persist::Writer w;
  WriteQueryVec(queries, &w);
  ApiError err;
  const std::vector<uint8_t> reply =
      RoundTrip(MsgType::kQueryBatch, w.buffer(), &err);
  if (!err.ok()) {
    QueryResult rejected;
    rejected.ok = false;
    rejected.error_code = static_cast<uint32_t>(err.code);
    rejected.error_detail = err.detail;
    return std::vector<QueryResult>(queries.size(), rejected);
  }
  return DecodePayload(reply, [](persist::Reader* r) {
    return ReadResultVec(r);
  });
}

uint64_t AqpClient::Insert(const std::vector<Tuple>& rows) {
  persist::Writer w;
  WriteTupleVec(rows, &w);
  const std::vector<uint8_t> reply =
      RoundTripOrThrow(MsgType::kInsert, w.buffer());
  return DecodePayload(reply, [](persist::Reader* r) { return r->U64(); });
}

uint64_t AqpClient::Delete(const std::vector<uint64_t>& ids) {
  persist::Writer w;
  w.U64Vec(ids);
  const std::vector<uint8_t> reply =
      RoundTripOrThrow(MsgType::kDelete, w.buffer());
  return DecodePayload(reply, [](persist::Reader* r) { return r->U64(); });
}

StatsReply AqpClient::Stats() {
  const std::vector<uint8_t> reply = RoundTripOrThrow(MsgType::kStats, {});
  return DecodePayload(reply, [](persist::Reader* r) {
    return ReadStatsReply(r);
  });
}

ConfigKeyEcho AqpClient::ConfigEcho() {
  const std::vector<uint8_t> reply =
      RoundTripOrThrow(MsgType::kConfigEcho, {});
  return DecodePayload(reply, [](persist::Reader* r) {
    return ReadConfigEcho(r);
  });
}

}  // namespace net
}  // namespace janus
