#include "src/support/bytes.h"

#include <cstdlib>
#include <limits>

#include "src/support/common.h"

namespace parad {

std::size_t parseByteSize(std::string_view name, std::string_view text) {
  std::string_view digits = text;
  int shift = 0;
  if (!digits.empty()) {
    switch (digits.back()) {
      case 'K': shift = 10; break;
      case 'M': shift = 20; break;
      case 'G': shift = 30; break;
      default: break;
    }
    if (shift != 0) digits.remove_suffix(1);
  }
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string_view::npos)
    fail(name, "='", text,
         "' is not a byte size (expected decimal digits, optionally followed "
         "by K, M or G)");
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  std::size_t v = 0;
  for (char c : digits) {
    std::size_t d = static_cast<std::size_t>(c - '0');
    if (v > (kMax - d) / 10) fail(name, "='", text, "' overflows a byte size");
    v = v * 10 + d;
  }
  if (v > (kMax >> shift)) fail(name, "='", text, "' overflows a byte size");
  return v << shift;
}

std::size_t envByteSize(const char* name) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return 0;
  return parseByteSize(name, s);
}

}  // namespace parad
