// FNV-1a over exact bit patterns, for test digests and fingerprints: two
// digests match only when every added value is bit-identical.

#ifndef DLROVER_TESTS_FNV1A_H_
#define DLROVER_TESTS_FNV1A_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace dlrover {

class Fnv1a {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  /// Hashes the in-memory bytes of `v`'s elements.
  template <typename T>
  void AddBytes(const std::vector<T>& v) {
    const unsigned char* p = reinterpret_cast<const unsigned char*>(v.data());
    for (size_t i = 0; i < v.size() * sizeof(T); ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  void Add(const std::string& s) {
    Add(static_cast<uint64_t>(s.size()));
    for (char c : s) Add(static_cast<uint64_t>(static_cast<unsigned char>(c)));
  }
  uint64_t value() const { return hash_; }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace dlrover

#endif  // DLROVER_TESTS_FNV1A_H_
