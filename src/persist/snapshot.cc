#include "persist/snapshot.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

namespace janus {
namespace persist {

void WriteMeta(const SnapshotMeta& meta, Writer* w) {
  w->Str(meta.engine);
  w->U64(meta.insert_offset);
  w->U64(meta.delete_offset);
  w->U64(meta.query_offset);
}

SnapshotMeta ReadMeta(Reader* r) {
  SnapshotMeta meta;
  meta.engine = r->Str();
  meta.insert_offset = r->U64();
  meta.delete_offset = r->U64();
  meta.query_offset = r->U64();
  return meta;
}

void WriteSnapshotFile(const std::string& path, const Writer& payload) {
  const std::vector<uint8_t>& body = payload.buffer();
  Writer header;
  header.U32(kSnapshotMagic);
  header.U32(kSnapshotVersion);
  header.U64(body.size());
  header.U64(Fnv1a(body.data(), body.size()));

  // Write to a temp file and rename so a crash mid-write never leaves a
  // half-written snapshot under the published name.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw PersistError("cannot open snapshot file for writing: " + tmp);
  }
  const std::vector<uint8_t>& head = header.buffer();
  // Flush + fsync before the rename: the publish must not outrun the data,
  // or an OS crash could leave the published name pointing at cached-only
  // bytes after the previous good snapshot is already gone.
  const bool ok =
      std::fwrite(head.data(), 1, head.size(), f) == head.size() &&
      (body.empty() ||
       std::fwrite(body.data(), 1, body.size(), f) == body.size()) &&
      std::fflush(f) == 0 && fsync(fileno(f)) == 0;
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) {
    std::remove(tmp.c_str());
    throw PersistError("short write to snapshot file: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw PersistError("cannot publish snapshot file: " + path);
  }
  // The rename lives in the parent directory until that is synced too; a
  // power loss before then can still un-publish the snapshot.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  const bool synced = fd >= 0 && fsync(fd) == 0;
  if (fd >= 0) close(fd);
  if (!synced) {
    throw PersistError("cannot sync the directory of snapshot file: " + path);
  }
}

SnapshotFile ReadSnapshotFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw PersistError("cannot open snapshot file: " + path);
  }
  // One right-sized read: engine snapshots can be hundreds of MB, so no
  // chunked growth reallocations and no second payload copy below.
  std::vector<uint8_t> raw;
  struct stat st{};
  if (fstat(fileno(f), &st) == 0 && st.st_size > 0) {
    raw.resize(static_cast<size_t>(st.st_size));
    const size_t got = std::fread(raw.data(), 1, raw.size(), f);
    raw.resize(got);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) throw PersistError("read error on snapshot file: " + path);

  Reader header(raw.data(), raw.size());
  uint32_t magic = 0;
  try {
    magic = header.U32();
  } catch (const PersistError&) {
    throw PersistError("snapshot file too short for a header: " + path);
  }
  if (magic != kSnapshotMagic) {
    throw PersistError("bad snapshot magic in " + path +
                       " (not a snapshot file?)");
  }
  const uint32_t version = header.U32();
  if (version != kSnapshotVersion) {
    throw PersistError("unsupported snapshot format version " +
                       std::to_string(version) + " in " + path +
                       " (this build reads version " +
                       std::to_string(kSnapshotVersion) + ")");
  }
  const uint64_t declared = header.U64();
  const uint64_t checksum = header.U64();
  if (declared != header.remaining()) {
    throw PersistError("snapshot payload truncated: " + path + " declares " +
                       std::to_string(declared) + " bytes, has " +
                       std::to_string(header.remaining()));
  }
  SnapshotFile file;
  file.payload_offset = header.pos();
  file.bytes = std::move(raw);
  if (Fnv1a(file.payload(), file.payload_size()) != checksum) {
    throw PersistError("snapshot checksum mismatch in " + path +
                       " (file corrupted)");
  }
  return file;
}

}  // namespace persist
}  // namespace janus
