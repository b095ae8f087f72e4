// Strict parsing of byte-size knobs: the cache and store caps read from the
// environment (PARAD_PROGRAM_CACHE_BYTES, PARAD_CODEGEN_{MEM,DISK}_BYTES,
// PARAD_CKPT_DISK_BYTES).
#pragma once

#include <cstddef>
#include <string_view>

namespace parad {

/// Parses a byte count: decimal digits, optionally followed by one binary
/// suffix K, M or G (2^10, 2^20, 2^30). No sign, space or fraction. Throws
/// parad::Error naming `name` and `text` when the text is malformed or the
/// value does not fit in std::size_t.
std::size_t parseByteSize(std::string_view name, std::string_view text);

/// The byte size in environment variable `name`, or 0 (no cap) when it is
/// unset or empty. A malformed value throws (see parseByteSize).
std::size_t envByteSize(const char* name);

}  // namespace parad
