#include "src/psim/faults.h"

#include <cstdlib>

#include "src/support/suggest.h"

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

double parseNumber(const std::string& key, const std::string& val) {
  char* end = nullptr;
  double v = std::strtod(val.c_str(), &end);
  PARAD_CHECK(end && *end == '\0' && !val.empty(),
              "fault spec: bad value for '", key, "': '", val, "'");
  return v;
}

double parseRate(const std::string& key, const std::string& val) {
  double v = parseNumber(key, val);
  PARAD_CHECK(v >= 0.0 && v <= 1.0, "fault spec: '", key,
              "' must be a probability in [0,1], got ", val);
  return v;
}

constexpr const char* kKeys[] = {
    "seed",     "drop",   "dup",    "delay",         "delayns",
    "allocfail", "straggle", "factor", "rto",         "maxretry",
    "kill",     "killns", "ckpt_interval", "retry",  "elastic",
    "ckpt_dir", "iofail", "torn",   "iocorrupt",
};

std::string keyList() {
  std::string out;
  for (const char* k : kKeys) {
    if (!out.empty()) out += ", ";
    out += k;
  }
  return out;
}

}  // namespace

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
    PARAD_CHECK(eq != std::string::npos,
                "fault spec: expected key=value, got '", tok,
                "' (keys: ", keyList(), ")");
    std::string key = tok.substr(0, eq), val = tok.substr(eq + 1);
    if (key == "seed") {
      cfg.seed = static_cast<std::uint64_t>(parseNumber(key, val));
    } else if (key == "drop") {
      cfg.dropRate = parseRate(key, val);
    } else if (key == "dup") {
      cfg.dupRate = parseRate(key, val);
    } else if (key == "delay") {
      cfg.delayRate = parseRate(key, val);
    } else if (key == "delayns") {
      cfg.delayNs = parseNumber(key, val);
      PARAD_CHECK(cfg.delayNs >= 0, "fault spec: delayns must be >= 0");
    } else if (key == "allocfail") {
      cfg.allocFailRate = parseRate(key, val);
    } else if (key == "straggle") {
      cfg.straggleRate = parseRate(key, val);
    } else if (key == "factor") {
      cfg.straggleFactor = parseNumber(key, val);
      PARAD_CHECK(cfg.straggleFactor >= 1,
                  "fault spec: straggle factor must be >= 1");
    } else if (key == "rto") {
      cfg.rtoNs = parseNumber(key, val);
      PARAD_CHECK(cfg.rtoNs > 0, "fault spec: rto must be > 0");
    } else if (key == "maxretry") {
      cfg.maxRetransmits = static_cast<int>(parseNumber(key, val));
      PARAD_CHECK(cfg.maxRetransmits >= 0 && cfg.maxRetransmits <= 30,
                  "fault spec: maxretry must be in [0,30]");
    } else if (key == "kill") {
      cfg.killRate = parseRate(key, val);
    } else if (key == "killns") {
      cfg.killNs = parseNumber(key, val);
      PARAD_CHECK(cfg.killNs > 0, "fault spec: killns must be > 0");
    } else if (key == "ckpt_interval") {
      cfg.ckptInterval = static_cast<int>(parseNumber(key, val));
      PARAD_CHECK(cfg.ckptInterval >= 0,
                  "fault spec: ckpt_interval must be >= 0");
    } else if (key == "retry") {
      cfg.retryBudget = static_cast<int>(parseNumber(key, val));
      PARAD_CHECK(cfg.retryBudget >= 0, "fault spec: retry must be >= 0");
    } else if (key == "elastic") {
      double v = parseNumber(key, val);
      PARAD_CHECK(v == 0.0 || v == 1.0, "fault spec: elastic must be 0 or 1");
      cfg.elastic = v != 0.0;
    } else if (key == "ckpt_dir") {
      // The one string-valued key: a durable-checkpoint directory path.
      // Comma is the spec separator, so paths containing one are not
      // expressible — set FaultConfig::ckptDir directly for those.
      PARAD_CHECK(!val.empty(), "fault spec: ckpt_dir needs a path");
      cfg.ckptDir = val;
    } else if (key == "iofail") {
      cfg.ioFailRate = parseRate(key, val);
    } else if (key == "torn") {
      cfg.tornRate = parseRate(key, val);
    } else if (key == "iocorrupt") {
      cfg.ioCorruptRate = parseRate(key, val);
    } else {
      fail("fault spec: unknown key '", key, "'", didYouMean(key, kKeys),
           " (keys: ", keyList(), ")");
    }
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
