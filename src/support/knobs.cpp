#include "src/support/knobs.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/support/common.h"
#include "src/support/suggest.h"

namespace parad {

namespace {

// Sorted by name, so a prefix filter keeps the order. PARAD_SERVE_SMOKE is
// read by bench/serve_throughput; it is listed so the PARAD_SERVE_ scan of
// ServeConfig::fromEnv accepts it.
constexpr Knob kEnvKnobs[] = {
    {"PARAD_CKPT_DISK_BYTES", KnobKind::Bytes},
    {"PARAD_CODEGEN_DIR", KnobKind::Text},
    {"PARAD_CODEGEN_DISK_BYTES", KnobKind::Bytes},
    {"PARAD_CODEGEN_FLAGS", KnobKind::Text},
    {"PARAD_CODEGEN_MEM_BYTES", KnobKind::Bytes},
    {"PARAD_CXX", KnobKind::Text},
    {"PARAD_ENGINE", KnobKind::Text},
    {"PARAD_FAULTS", KnobKind::Text},
    {"PARAD_PROGRAM_CACHE_BYTES", KnobKind::Bytes},
    {"PARAD_SERVE_BATCH", KnobKind::Integer, kMaxInt},
    {"PARAD_SERVE_BREAKER", KnobKind::Integer, kMaxInt},
    {"PARAD_SERVE_BREAKER_COOLDOWN_MS", KnobKind::Time, kMaxTimeNs / 1e6},
    {"PARAD_SERVE_BURST", KnobKind::Number, kMaxNumber},
    {"PARAD_SERVE_CACHE_BYTES", KnobKind::Bytes},
    {"PARAD_SERVE_CKPT_DIR", KnobKind::Text},
    {"PARAD_SERVE_DEADLINE_MS", KnobKind::Time, kMaxTimeNs / 1e6},
    {"PARAD_SERVE_ENGINE", KnobKind::Text},
    {"PARAD_SERVE_INFLIGHT", KnobKind::Integer, kMaxInt},
    {"PARAD_SERVE_MAX_DELAY_US", KnobKind::Time, kMaxTimeNs / 1e3},
    {"PARAD_SERVE_QUEUE", KnobKind::Integer, kMaxInt},
    {"PARAD_SERVE_RATE", KnobKind::Number, kMaxNumber},
    {"PARAD_SERVE_RETRY", KnobKind::Integer, kMaxInt},
    {"PARAD_SERVE_RETRY_BACKOFF_US", KnobKind::Time, kMaxTimeNs / 1e3},
    {"PARAD_SERVE_SMOKE", KnobKind::Text},
    {"PARAD_SERVE_THREADS", KnobKind::Integer, kMaxInt},
};

const Knob& envKnob(std::string_view name) {
  for (const Knob& k : kEnvKnobs)
    if (k.name == name) return k;
  fail("knob ", name, " is not in the knob table");
}

const char* envValue(std::string_view name) {
  const char* s = std::getenv(std::string(envKnob(name).name).c_str());
  return s != nullptr && *s != '\0' ? s : nullptr;
}

// A whole-number bound, printed in full ("1000000000000000", not "1e+15").
std::string whole(double v) {
  char buf[320];
  std::snprintf(buf, sizeof buf, "%.0f", v);
  return buf;
}

}  // namespace

std::span<const Knob> envKnobs() { return kEnvKnobs; }

double parseKnob(const Knob& k, std::string_view text, std::string_view ctx) {
  PARAD_CHECK(k.kind != KnobKind::Bytes, "byte sizes go through parseByteSize");
  auto reject = [&](const std::string& rule) {
    fail(ctx, ": ", k.name, " must be ", rule, ", got '", text, "'");
  };
  if (k.kind == KnobKind::Text) {
    if (text.empty()) reject("non-empty");
    return 0;
  }
  std::string s(text);  // strtod needs the terminating NUL
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size())
    fail(ctx, ": malformed ", k.name, "='", text, "' (expected a number)");
  if (!std::isfinite(v)) reject("finite");
  if (k.kind == KnobKind::Flag) {
    if (v != 0 && v != 1) reject("0 or 1");
    return v;
  }
  if (v < k.min || (k.minOpen && v == k.min))
    reject(k.minOpen     ? "greater than " + whole(k.min)
           : k.min == 0 ? "non-negative"
                        : "at least " + whole(k.min));
  if (v > k.max) reject("at most " + whole(k.max));
  if (k.kind == KnobKind::Integer && v != std::trunc(v))
    reject("a non-negative integer");
  return v;
}

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

std::string envText(std::string_view name) {
  const char* s = envValue(name);
  return s != nullptr ? s : "";
}

double envNumber(std::string_view name, double dflt, std::string_view ctx) {
  const char* s = envValue(name);
  return s != nullptr ? parseKnob(envKnob(name), s, ctx) : dflt;
}

std::size_t envByteSize(std::string_view name) {
  const char* s = envValue(name);
  return s != nullptr ? parseByteSize(name, s) : 0;
}

void rejectUnknownEnv(std::string_view prefix, std::string_view ctx) {
  std::vector<std::string_view> known;
  for (const Knob& k : kEnvKnobs)
    if (k.name.starts_with(prefix)) known.push_back(k.name);
  for (char** e = ::environ; e != nullptr && *e != nullptr; ++e) {
    std::string_view ev(*e);
    if (!ev.starts_with(prefix)) continue;
    std::string_view name = ev.substr(0, ev.find('='));
    if (std::find(known.begin(), known.end(), name) == known.end())
      failUnknownName(ctx, "environment knob", name, known, "knobs");
  }
}

std::string hostTempDir() {
  const char* tmp = std::getenv("TMPDIR");
  return tmp != nullptr && *tmp != '\0' ? tmp : "/tmp";
}

std::string joinNames(const std::vector<std::string_view>& names) {
  std::string out;
  for (std::string_view n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

void failUnknownName(std::string_view ctx, std::string_view what,
                     std::string_view name,
                     const std::vector<std::string_view>& known,
                     std::string_view label) {
  fail(ctx, ": unknown ", what, " '", name, "'", didYouMean(name, known), " (",
       label, ": ", joinNames(known), ")");
}

}  // namespace parad
