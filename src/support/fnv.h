// FNV-1a, the one byte hash behind every content fingerprint: store and
// checkpoint checksums, the ProgramCache revalidation fingerprint, and the
// content address of codegen artifacts. Header-inline because the
// fingerprint runs on every ProgramCache hit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace parad {

/// Streaming FNV-1a (64-bit). Multi-byte values are mixed little-endian
/// regardless of the host, so fingerprints are portable.
struct Fnv1a {
  static constexpr std::uint64_t kBasis = 0xcbf29ce484222325ull;
  std::uint64_t h = kBasis;

  void byte(unsigned char b) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  void bytes(const void* data, std::size_t len) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (std::size_t k = 0; k < len; ++k) byte(p[k]);
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  /// Length-prefixed, so adjacent strings cannot alias.
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

/// FNV-1a over a byte range, continuing from `h`.
inline std::uint64_t fnv1a(const void* data, std::size_t len,
                           std::uint64_t h = Fnv1a::kBasis) {
  Fnv1a f{h};
  f.bytes(data, len);
  return f.h;
}

}  // namespace parad
