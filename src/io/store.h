// Crash-consistent durable storage shared by every layer that touches disk
// (checkpoint epochs, the codegen artifact cache).
//
// A DurableStore publishes named records atomically: each record is written
// to a unique temp file, flushed, fsynced, and renamed into place, so a
// reader never observes a half-written record under its final name — the
// only failure modes are "old record", "no record", or a *detectably*
// damaged record. Every record carries a versioned header (magic, format
// version, a caller-chosen kind tag and content fingerprint) and an FNV-1a
// checksum over the payload; get() validates all of it, so truncated, torn,
// bit-flipped, or foreign records are rejected with a reason instead of
// being decoded. A manifest record summarizes the published set (fast
// listing; reads fall back to a directory scan when it is missing or
// damaged — it is itself just another record and enjoys no special crash
// immunity). Retention is a byte-capped oldest-first sweep that never
// removes the caller-designated newest record.
//
// Disk faults are injected with the same discipline as the VM's FaultPlan
// (src/psim/faults.h): every decision is a pure hash of (seed, operation
// coordinates), never of wall time, so an IO fault schedule replays exactly
// from its seed. Three families: a publish can fail outright (the ENOSPC
// model — nothing is installed), a publish can tear (the installed file is
// truncated at a seeded offset, modeling a crash mid-flush), and a read can
// observe a seeded bit-flip (media rot). Tears and flips are silent at
// injection time and must be *detected* by the validation path — that is
// the property the Durable.* chaos sweeps lean on. See DESIGN.md §16.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/support/fnv.h"

namespace parad::io {

/// Knobs of the seeded disk-fault injector. Rates are probabilities in
/// [0, 1]; the plan is inert unless `enabled` is true.
struct IoFaultConfig {
  bool enabled = false;
  std::uint64_t seed = 1;
  double failRate = 0;     // P(a publish fails outright — ENOSPC model)
  double tornRate = 0;     // P(a publish installs a truncated file)
  double corruptRate = 0;  // P(a read observes one flipped bit)
};

/// The seeded decision oracle for disk faults. Stateless and pure: every
/// answer is a hash of (seed, salt, key, op), so callers that present
/// deterministic (key, op) coordinates get a replayable fault schedule.
class IoFaultPlan {
 public:
  IoFaultPlan() = default;
  explicit IoFaultPlan(const IoFaultConfig& cfg) : cfg_(cfg) {}

  bool enabled() const { return cfg_.enabled; }
  const IoFaultConfig& config() const { return cfg_; }

  /// Whether the publish identified by (key, op) fails outright.
  bool writeFails(std::uint64_t key, std::uint64_t op) const;
  /// Bytes of an `len`-byte publish that actually reach the disk: `len`
  /// when the write is whole, a seeded value in [0, len) when it tears.
  std::size_t tornLength(std::uint64_t key, std::uint64_t op,
                         std::size_t len) const;
  /// Bit index flipped in an `len`-byte read image, or SIZE_MAX when the
  /// read is clean.
  std::size_t corruptBit(std::uint64_t key, std::uint64_t op,
                         std::size_t len) const;

 private:
  // SplitMix64-style finalizer, same constants as psim::FaultPlan — the IO
  // salts live in their own family so the two schedules never correlate.
  static std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double unit(std::uint64_t salt, std::uint64_t a, std::uint64_t b) const {
    std::uint64_t h = cfg_.seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    h = mix(h ^ mix(a + 0x9e3779b97f4a7c15ull));
    h = mix(h ^ mix(b + 0x2545f4914f6cdd1dull));
    return static_cast<double>(h >> 11) * 0x1.0p-53;
  }

  IoFaultConfig cfg_;
};

/// FNV-1a over a byte range (src/support/fnv.h): the store's record
/// checksums and the checkpoint format's fingerprints.
using parad::fnv1a;

/// mkdir -p. Returns false (with errno-derived `err`) on failure.
bool makeDirs(const std::string& path, std::string* err = nullptr);

/// Atomically publishes `len` bytes at `path`: unique temp + flush + fsync +
/// rename. With a fault plan armed the publish may fail outright (returns
/// false, nothing installed) or tear (returns true, the installed file is
/// truncated — a reader must detect it). `faultKey` identifies the logical
/// record for the seeded decisions.
bool atomicWriteFile(const std::string& path, const void* data,
                     std::size_t len, const IoFaultPlan* faults,
                     std::uint64_t faultKey, std::string* err = nullptr);

/// Atomically installs an existing temp file at `finalPath` (fsync +
/// rename) under the same fault model: an injected failure unlinks the temp
/// and returns false; an injected tear truncates the file before the rename
/// and returns true.
bool installFile(const std::string& tmpPath, const std::string& finalPath,
                 const IoFaultPlan* faults, std::uint64_t faultKey,
                 std::string* err = nullptr);

/// Byte-capped oldest-first retention sweep over `dir` (shared by the
/// store and the codegen artifact cache). Files matching prefix+suffix are
/// removed oldest-mtime-first (ties broken by path, so the order is
/// deterministic) until their total size fits `capacityBytes`; `keepPath`
/// is never removed; each victim's sibling files (same stem, the listed
/// extensions) go with it. Returns the number of records removed.
struct SweepSpec {
  std::string prefix;
  std::string suffix;
  std::uint64_t capacityBytes = 0;  // 0 = unbounded (sweep is a no-op)
  std::vector<std::string> siblingExts;
};
int sweepDirectory(const std::string& dir, const SweepSpec& spec,
                   const std::string& keepPath);

/// Store identity and policy. `kind` and `fingerprint` are baked into every
/// record header and validated on read, so records of a different subsystem
/// or a different program can never be decoded by accident.
struct StoreConfig {
  std::string dir;
  std::string prefix = "parad_ds_";
  std::uint64_t kind = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t capacityBytes = 0;  // 0 = unbounded
  IoFaultConfig faults;
};

class DurableStore {
 public:
  explicit DurableStore(StoreConfig cfg);

  const StoreConfig& config() const { return cfg_; }
  const IoFaultPlan& faultPlan() const { return faults_; }
  std::string pathOf(const std::string& name) const {
    return cfg_.dir + "/" + cfg_.prefix + name;
  }

  /// Publishes `payload` under `name` (header + checksum + atomic install)
  /// and rewrites the manifest. False on failure (real or injected); the
  /// previous record under `name`, if any, is untouched in that case.
  bool put(const std::string& name, const std::vector<std::uint8_t>& payload,
           std::string* err = nullptr);

  /// Reads and validates the record: header magic/version/kind/fingerprint,
  /// payload length, checksum. False with a reason on any mismatch.
  bool get(const std::string& name, std::vector<std::uint8_t>* payload,
           std::string* err = nullptr) const;

  void remove(const std::string& name);

  /// Published record names, sorted ascending. Prefers the manifest (one
  /// read) and falls back to a directory scan when the manifest is missing
  /// or fails validation — a stale manifest can at worst hide the newest
  /// record, degrading a resume by one epoch, never corrupting it.
  std::vector<std::string> list() const;
  /// Ground-truth directory scan (ignores the manifest), sorted ascending.
  std::vector<std::string> scan() const;

  /// Applies the byte cap: removes oldest records first, never `keepName`,
  /// then rewrites the manifest. Returns the number of records removed.
  int sweep(const std::string& keepName);

  // Telemetry for tests and benches.
  std::uint64_t puts() const { return puts_; }
  std::uint64_t putFailures() const { return putFailures_; }

 private:
  void writeManifest();

  StoreConfig cfg_;
  IoFaultPlan faults_;
  std::uint64_t ops_ = 0;  // per-store operation ordinal (fault coordinates)
  std::uint64_t puts_ = 0;
  std::uint64_t putFailures_ = 0;
};

}  // namespace parad::io
