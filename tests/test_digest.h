#ifndef JANUS_TESTS_TEST_DIGEST_H_
#define JANUS_TESTS_TEST_DIGEST_H_

// Recorded digests: a test that must keep every bit of some output hashes
// that output and compares the hash with one recorded from an earlier build.
// The digest is written as text so that a failure prints the value it saw.
// Digests fix the fixed seeds they were recorded with; they do not follow
// JANUS_TEST_SEED.

#include <cinttypes>
#include <cstdio>
#include <string>

#include "persist/serde.h"

namespace janus {

/// FNV-1a of everything written to `w`, as "0x" and 16 hex digits.
inline std::string DigestHex(const persist::Writer& w) {
  char text[24];
  std::snprintf(text, sizeof(text), "0x%016" PRIx64,
                persist::Fnv1a(w.buffer().data(), w.buffer().size()));
  return text;
}

}  // namespace janus

#endif  // JANUS_TESTS_TEST_DIGEST_H_
