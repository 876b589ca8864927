// FNV-1a over a serialized fingerprint: the pinned-digest tests compare
// one 64-bit value per run instead of kilobytes of metrics text.

#ifndef DQSCHED_TESTS_FNV1A_H_
#define DQSCHED_TESTS_FNV1A_H_

#include <cstdint>
#include <string>

namespace dqsched {

inline uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace dqsched

#endif  // DQSCHED_TESTS_FNV1A_H_
