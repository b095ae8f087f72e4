// The one home for env knobs (DESIGN.md §15.6): a table of every PARAD_*
// variable the library reads, the strict parser that every knob value and
// every PARAD_FAULTS key goes through, and the unknown-name error shared by
// env knobs, fault-spec keys and engine names. Nothing else in src/ reads
// the process env.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace parad {

/// How the text of a knob is parsed.
enum class KnobKind {
  Number,   // a finite number in [min, max]
  Integer,  // a whole number in [0, max]
  Time,     // parsed like Number; max is kMaxTimeNs in the knob's unit
  Flag,     // 0 or 1
  Bytes,    // a byte size (parseByteSize)
  Text,     // any non-empty string
};

/// One knob: name, kind and bounds. Defaults stay with the config that owns
/// the knob (ServeConfig, FaultConfig, CodegenConfig), not here.
struct Knob {
  std::string_view name;
  KnobKind kind;
  double max = 0;        // inclusive upper bound of Number, Integer and Time
  double min = 0;        // lower bound of Number and Time
  bool minOpen = false;  // whether `min` itself is excluded
};

// Integer knobs fit an int. Times stay at or below 10^18 ns (about 31
// years), so adding one to a clock stays in range.
constexpr double kMaxInt = std::numeric_limits<int>::max();
constexpr double kMaxTimeNs = 1e18;
constexpr double kMaxNumber = std::numeric_limits<double>::max();

/// Every env knob the library reads, sorted by name.
std::span<const Knob> envKnobs();

/// Parses `text` as a value of knob `k`. Number, Integer, Time and Flag
/// values must be a whole finite number inside the bounds; every check runs
/// before the caller casts the result. A Text value must be non-empty and
/// yields 0. Errors read `<ctx>: <name> must be ..., got '<text>'`.
double parseKnob(const Knob& k, std::string_view text, std::string_view ctx);

/// Parses a byte count: decimal digits, optionally followed by one binary
/// suffix K, M or G (2^10, 2^20, 2^30). No sign, space or fraction. Throws
/// parad::Error naming `name` and `text` when the text is malformed or the
/// value does not fit in std::size_t.
std::size_t parseByteSize(std::string_view name, std::string_view text);

/// The text of env knob `name`, or "" when it is unset. An empty
/// value counts as unset, for every knob below too.
std::string envText(std::string_view name);

/// The value of env knob `name` (see parseKnob), or `dflt`.
double envNumber(std::string_view name, double dflt, std::string_view ctx);

/// The byte size in env knob `name`, or 0 (no cap).
std::size_t envByteSize(std::string_view name);

/// Throws for the first env variable that starts with `prefix` but
/// is not in the knob table, so a typo cannot silently run with defaults.
void rejectUnknownEnv(std::string_view prefix, std::string_view ctx);

/// $TMPDIR, or "/tmp" when it is unset.
std::string hostTempDir();

/// "a, b, c".
std::string joinNames(const std::vector<std::string_view>& names);

/// Throws `<ctx>: unknown <what> '<name>'<did you mean> (<label>: <known>)`.
[[noreturn]] void failUnknownName(std::string_view ctx, std::string_view what,
                                  std::string_view name,
                                  const std::vector<std::string_view>& known,
                                  std::string_view label);

}  // namespace parad
