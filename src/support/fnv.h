// FNV-1a, the one hash behind every content fingerprint. Two paths share the
// state and the prime:
//   * bytes (`byte`, `bytes`, `fnv1a()`): classic FNV-1a, one byte per step.
//     Store and checkpoint checksums use only this path, so their on-disk
//     values are fixed by it.
//   * words (`u64`, `f64`): one 64-bit word per step, `h ^= mix(v);
//     h *= prime`. The ProgramCache revalidation fingerprint and the content
//     address of codegen artifacts hash through it; it is eight times fewer
//     steps than feeding the word's bytes. Each step is a bijection of the
//     state (xor, then a multiply by an odd number mod 2^64) and `mix` is a
//     bijection of the word, so changing any one word changes the hash.
//     `mix` matters for edits of two or more words: a multiply only carries a
//     difference upward, so without it two sign flips (two bit-63 changes)
//     cancel and power-of-two constants differ only in the top bits. `mix`
//     spreads every bit of the word over all 64 before it meets the state;
//     it depends on the word alone, so it runs beside the state's multiply
//     chain and adds little time per step.
// Header-inline because the fingerprint runs on every ProgramCache hit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace parad {

/// Streaming FNV-1a (64-bit). Words are mixed as integer values, so
/// fingerprints do not depend on the host's byte order.
struct Fnv1a {
  static constexpr std::uint64_t kBasis = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t h = kBasis;

  void byte(unsigned char b) {
    h ^= b;
    h *= kPrime;
  }
  void bytes(const void* data, std::size_t len) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (std::size_t k = 0; k < len; ++k) byte(p[k]);
  }
  void u64(std::uint64_t v) {
    h ^= mix(v);
    h *= kPrime;
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  /// MurmurHash3's 64-bit finalizer: a bijection in which every input bit
  /// flips each output bit with probability about 1/2.
  static constexpr std::uint64_t mix(std::uint64_t k) {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdull;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ull;
    k ^= k >> 33;
    return k;
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
