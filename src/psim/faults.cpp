#include "src/psim/faults.h"

#include <algorithm>
#include <iterator>
#include <type_traits>
#include <variant>

#include "src/support/knobs.h"

namespace parad::psim {

namespace {

// Decision salts: each fault family draws from an independent stream.
enum : std::uint64_t {
  kSaltDrop = 1,
  kSaltDup = 2,
  kSaltDelay = 3,
  kSaltDelayAmt = 4,
  kSaltAlloc = 5,
  kSaltStraggle = 6,
  kSaltKill = 7,
  kSaltKillTime = 8,
};

// Where a key's parsed value goes.
using Field = std::variant<std::uint64_t FaultConfig::*, double FaultConfig::*,
                           int FaultConfig::*, bool FaultConfig::*,
                           std::string FaultConfig::*>;

struct FaultKey {
  Knob knob;
  Field field;
};

// One row per key, in the order the key list prints them. Rates are
// probabilities; times are virtual ns.
const FaultKey kFaultKeys[] = {
    {{"seed", KnobKind::Integer, 0x1p53}, &FaultConfig::seed},
    {{"drop", KnobKind::Number, 1}, &FaultConfig::dropRate},
    {{"dup", KnobKind::Number, 1}, &FaultConfig::dupRate},
    {{"delay", KnobKind::Number, 1}, &FaultConfig::delayRate},
    {{"delayns", KnobKind::Time, kMaxTimeNs}, &FaultConfig::delayNs},
    {{"allocfail", KnobKind::Number, 1}, &FaultConfig::allocFailRate},
    {{"straggle", KnobKind::Number, 1}, &FaultConfig::straggleRate},
    {{"factor", KnobKind::Number, kMaxNumber, 1}, &FaultConfig::straggleFactor},
    {{"rto", KnobKind::Time, kMaxTimeNs, 0, true}, &FaultConfig::rtoNs},
    {{"maxretry", KnobKind::Integer, 30}, &FaultConfig::maxRetransmits},
    {{"kill", KnobKind::Number, 1}, &FaultConfig::killRate},
    {{"killns", KnobKind::Time, kMaxTimeNs, 0, true}, &FaultConfig::killNs},
    {{"ckpt_interval", KnobKind::Integer, kMaxInt},
     &FaultConfig::ckptInterval},
    {{"retry", KnobKind::Integer, kMaxInt}, &FaultConfig::retryBudget},
    {{"elastic", KnobKind::Flag}, &FaultConfig::elastic},
    // A path, so it cannot contain the spec's comma separator: set
    // FaultConfig::ckptDir directly for such paths.
    {{"ckpt_dir", KnobKind::Text}, &FaultConfig::ckptDir},
    {{"iofail", KnobKind::Number, 1}, &FaultConfig::ioFailRate},
    {{"torn", KnobKind::Number, 1}, &FaultConfig::tornRate},
    {{"iocorrupt", KnobKind::Number, 1}, &FaultConfig::ioCorruptRate},
};

}  // namespace

std::vector<std::string_view> faultSpecKeys() {
  std::vector<std::string_view> keys;
  for (const FaultKey& k : kFaultKeys) keys.push_back(k.knob.name);
  return keys;
}

FaultConfig parseFaultSpec(const std::string& spec) {
  FaultConfig cfg;
  if (spec.empty()) return cfg;
  cfg.enabled = true;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string tok = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (tok.empty()) continue;
    std::size_t eq = tok.find('=');
    if (eq == std::string::npos)
      fail("fault spec: expected key=value, got '", tok,
           "' (keys: ", joinNames(faultSpecKeys()), ")");
    std::string key = tok.substr(0, eq), val = tok.substr(eq + 1);
    const FaultKey* k = std::find_if(
        std::begin(kFaultKeys), std::end(kFaultKeys),
        [&](const FaultKey& row) { return row.knob.name == key; });
    if (k == std::end(kFaultKeys))
      failUnknownName("fault spec", "key", key, faultSpecKeys(), "keys");
    double v = parseKnob(k->knob, val, "fault spec");
    std::visit(
        [&](auto field) {
          auto& slot = cfg.*field;
          if constexpr (std::is_same_v<decltype(slot), std::string&>)
            slot = val;
          else
            slot = static_cast<std::remove_reference_t<decltype(slot)>>(v);
        },
        k->field);
  }
  return cfg;
}

FaultPlan::SendFaults FaultPlan::onSend(int src, int dst, int tag,
                                        std::uint64_t seq) const {
  SendFaults f;
  if (!cfg_.enabled) return f;
  std::uint64_t s = static_cast<std::uint64_t>(src);
  std::uint64_t d = static_cast<std::uint64_t>(dst);
  std::uint64_t t = static_cast<std::uint64_t>(static_cast<std::int64_t>(tag));
  if (cfg_.dropRate > 0) {
    // Attempt k is a fresh draw; the last allowed attempt always goes through
    // (after maxRetransmits losses the fabric escalates to a reliable
    // channel), so delivery is exactly-once and values stay bit-exact.
    while (f.retransmits < cfg_.maxRetransmits &&
           unit(kSaltDrop, s, d, t,
                seq * 64 + static_cast<std::uint64_t>(f.retransmits)) <
               cfg_.dropRate)
      ++f.retransmits;
  }
  if (cfg_.delayRate > 0 && unit(kSaltDelay, s, d, t, seq) < cfg_.delayRate)
    f.extraDelayNs = cfg_.delayNs * unit(kSaltDelayAmt, s, d, t, seq);
  if (cfg_.dupRate > 0 && unit(kSaltDup, s, d, t, seq) < cfg_.dupRate)
    f.duplicate = true;
  return f;
}

double FaultPlan::slowdown(int rank) const {
  if (!cfg_.enabled || cfg_.straggleRate <= 0) return 1.0;
  return unit(kSaltStraggle, static_cast<std::uint64_t>(rank), 0, 0, 0) <
                 cfg_.straggleRate
             ? cfg_.straggleFactor
             : 1.0;
}

bool FaultPlan::allocFails(std::uint64_t allocIndex) const {
  if (!cfg_.enabled || cfg_.allocFailRate <= 0) return false;
  return unit(kSaltAlloc, allocIndex, 0, 0, 0) < cfg_.allocFailRate;
}

double FaultPlan::killTime(int rank, int index) const {
  if (!cfg_.enabled || cfg_.killRate <= 0) return -1.0;
  std::uint64_t r = static_cast<std::uint64_t>(rank);
  std::uint64_t k = static_cast<std::uint64_t>(index);
  if (unit(kSaltKill, r, k, 0, 0) >= cfg_.killRate) return -1.0;
  // Crash k lands in the window [k + 1/4, k + 1) * killNs: strictly
  // increasing in k, and never at virtual time zero.
  double jitter = unit(kSaltKillTime, r, k, 0, 1);
  return cfg_.killNs * (static_cast<double>(index) + 0.25 + 0.75 * jitter);
}

}  // namespace parad::psim
