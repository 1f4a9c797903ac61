#ifndef JANUS_PERSIST_SNAPSHOT_H_
#define JANUS_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "persist/serde.h"

namespace janus {

/// Recovery metadata stored alongside the engine state: which backend wrote
/// the snapshot and how far it had consumed each broker request stream when
/// the state was captured. On restore, EngineDriver resumes its consumer
/// offsets from these and replays the tail of the streams to catch up —
/// the recovery contract is "snapshot + replayed tail == uninterrupted run".
struct SnapshotMeta {
  std::string engine;
  uint64_t insert_offset = 0;
  uint64_t delete_offset = 0;
  uint64_t query_offset = 0;
};

namespace persist {

/// Snapshot file layout (all integers little-endian):
///   bytes 0-3   magic "JAQS"
///   bytes 4-7   format version (u32, currently 2; version 2 appends the
///               multi engine's extra templates to JanusAqp's bytes)
///   bytes 8-15  payload byte count (u64)
///   bytes 16-23 FNV-1a 64 checksum of the payload (u64)
///   bytes 24-   payload: SnapshotMeta, then the engine's SaveState bytes
/// Readers verify magic, version, declared size and checksum before any
/// payload byte reaches an engine, so wrong-magic / truncated / bit-flipped
/// files fail with a clean PersistError and never a crash.
inline constexpr uint32_t kSnapshotMagic = 0x53514A41u;  // "JAQS"
inline constexpr uint32_t kSnapshotVersion = 2;

/// Serialize `meta` at the front of a payload writer.
void WriteMeta(const SnapshotMeta& meta, Writer* w);
SnapshotMeta ReadMeta(Reader* r);

/// Atomically and durably write a snapshot file: header + payload to a
/// temp file, fsync, rename over `path`, fsync the parent directory.
/// Throws PersistError on I/O failure.
void WriteSnapshotFile(const std::string& path, const Writer& payload);

/// A verified snapshot file held in one buffer; the payload is the suffix
/// starting at `payload_offset` (no second copy of a potentially huge
/// payload just to drop the header).
struct SnapshotFile {
  std::vector<uint8_t> bytes;
  size_t payload_offset = 0;

  const uint8_t* payload() const { return bytes.data() + payload_offset; }
  size_t payload_size() const { return bytes.size() - payload_offset; }
};

/// Read and verify a snapshot file. Throws PersistError on missing file,
/// bad magic, unsupported version, truncation, or checksum mismatch.
SnapshotFile ReadSnapshotFile(const std::string& path);

}  // namespace persist
}  // namespace janus

#endif  // JANUS_PERSIST_SNAPSHOT_H_
