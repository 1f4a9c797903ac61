#ifndef JANUS_PERSIST_SERDE_H_
#define JANUS_PERSIST_SERDE_H_

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace janus {
namespace persist {

/// Every persistence failure — I/O, bad magic, version or engine mismatch,
/// truncation, checksum — surfaces as this exception. Callers that must not
/// die on a corrupt snapshot catch it and fall back to a cold start.
class PersistError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only binary encoder for snapshot payloads. Fixed-width
/// little-endian primitives (the format is not cross-endian portable;
/// snapshots are host-local operational state, not an interchange format).
/// Doubles round-trip bit-exactly through their IEEE-754 representation,
/// including NaN, infinities and signed zero — recovery must be
/// bit-identical, so no text formatting anywhere.
class Writer {
 public:
  void Bytes(const void* p, size_t n) {
    // resize + memcpy rather than a range insert, which GCC 12 misreads as
    // an overflow (-Wstringop-overflow) once inlined into small writers.
    if (n == 0) return;
    const size_t at = buf_.size();
    buf_.resize(at + n);
    std::memcpy(buf_.data() + at, p, n);
  }

  void U8(uint8_t v) { Bytes(&v, 1); }
  void U32(uint32_t v) { Bytes(&v, 4); }
  void U64(uint64_t v) { Bytes(&v, 8); }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Size(size_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    U64(bits);
  }
  void Str(const std::string& s) {
    Size(s.size());
    Bytes(s.data(), s.size());
  }

  void F64Vec(const std::vector<double>& v) {
    Size(v.size());
    for (double x : v) F64(x);
  }
  void U64Vec(const std::vector<uint64_t>& v) {
    Size(v.size());
    for (uint64_t x : v) U64(x);
  }
  void IntVec(const std::vector<int>& v) {
    Size(v.size());
    for (int x : v) I32(x);
  }
  void StrVec(const std::vector<std::string>& v) {
    Size(v.size());
    for (const std::string& s : v) Str(s);
  }

  const std::vector<uint8_t>& buffer() const { return buf_; }

 private:
  std::vector<uint8_t> buf_;
};

/// Bounds-checked decoder over a snapshot payload. Any read past the end
/// (a truncated or garbage file) throws PersistError instead of reading
/// out of bounds, which is what turns file corruption into a clean error.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit Reader(const std::vector<uint8_t>& buf)
      : Reader(buf.data(), buf.size()) {}

  void Bytes(void* out, size_t n) {
    if (n > size_ - pos_) {
      throw PersistError("snapshot truncated: need " + std::to_string(n) +
                         " bytes at offset " + std::to_string(pos_) +
                         ", only " + std::to_string(size_ - pos_) + " left");
    }
    if (n == 0) return;  // memcpy wants valid pointers even for no bytes
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  uint8_t U8() {
    uint8_t v;
    Bytes(&v, 1);
    return v;
  }
  uint32_t U32() {
    uint32_t v;
    Bytes(&v, 4);
    return v;
  }
  uint64_t U64() {
    uint64_t v;
    Bytes(&v, 8);
    return v;
  }
  int32_t I32() { return static_cast<int32_t>(U32()); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  bool Bool() { return U8() != 0; }
  double F64() {
    const uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }
  /// size_t with a sanity bound against hostile/corrupt length prefixes:
  /// a length can never exceed the payload size.
  size_t Size() {
    const uint64_t v = U64();
    if (v > size_) {
      throw PersistError("snapshot corrupt: length " + std::to_string(v) +
                         " exceeds payload size " + std::to_string(size_));
    }
    return static_cast<size_t>(v);
  }
  /// An element count whose elements each take at least `min_bytes`
  /// encoded bytes: it cannot exceed remaining() / min_bytes, so a decoder
  /// that sizes its output from it never allocates for elements the payload
  /// cannot hold.
  size_t Count(size_t min_bytes) {
    const uint64_t v = U64();
    if (v > remaining() / min_bytes) {
      throw PersistError("snapshot corrupt: count " + std::to_string(v) +
                         " exceeds the " + std::to_string(remaining()) +
                         " bytes left");
    }
    return static_cast<size_t>(v);
  }
  std::string Str() {
    const size_t n = Count(1);
    std::string s(n, '\0');
    Bytes(s.data(), n);
    return s;
  }

  std::vector<double> F64Vec() {
    std::vector<double> v(Count(8));
    for (double& x : v) x = F64();
    return v;
  }
  std::vector<uint64_t> U64Vec() {
    std::vector<uint64_t> v(Count(8));
    for (uint64_t& x : v) x = U64();
    return v;
  }
  std::vector<int> IntVec() {
    std::vector<int> v(Count(4));
    for (int& x : v) x = I32();
    return v;
  }
  std::vector<std::string> StrVec() {
    std::vector<std::string> v(Count(8));  // each string's length prefix
    for (std::string& s : v) s = Str();
    return v;
  }

  size_t pos() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// FNV-1a 64-bit, the payload checksum of the snapshot format.
uint64_t Fnv1a(const uint8_t* data, size_t n);

/// XXH64 with seed 0, the payload checksum of the serving tier's frames.
/// Portable C++ over little-endian words: four independent 8-byte lanes
/// per step, where FNV-1a chains one multiply per byte.
uint64_t Xxh64(const uint8_t* data, size_t n);

}  // namespace persist
}  // namespace janus

#endif  // JANUS_PERSIST_SERDE_H_
