#include "src/io/store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/support/common.h"

namespace parad::io {

namespace {

// IO fault salts. psim::FaultPlan's salts end at 8 (kSaltKillTime); the
// disk families continue the same global numbering so no two fault families
// in the process ever share a decision stream.
enum : std::uint64_t {
  kSaltIoFail = 9,
  kSaltIoTorn = 10,
  kSaltIoTornOff = 11,
  kSaltIoCorrupt = 12,
  kSaltIoCorruptBit = 13,
};

// Record header: 6 little-endian u64 fields, 48 bytes.
//   [magic, formatVersion, kind, fingerprint, payloadLen, checksum]
constexpr std::uint64_t kStoreMagic = 0x70647374307265ull;  // "pdst0re"
constexpr std::uint64_t kFormatVersion = 1;
constexpr std::size_t kHeaderBytes = 48;

void putU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int b = 0; b < 8; ++b)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
}

std::uint64_t getU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int b = 0; b < 8; ++b)
    v |= static_cast<std::uint64_t>(p[b]) << (8 * b);
  return v;
}

std::string errnoStr() { return std::strerror(errno); }

}  // namespace

bool IoFaultPlan::writeFails(std::uint64_t key, std::uint64_t op) const {
  if (!cfg_.enabled || cfg_.failRate <= 0) return false;
  return unit(kSaltIoFail, key, op) < cfg_.failRate;
}

std::size_t IoFaultPlan::tornLength(std::uint64_t key, std::uint64_t op,
                                    std::size_t len) const {
  if (!cfg_.enabled || cfg_.tornRate <= 0 || len == 0) return len;
  if (unit(kSaltIoTorn, key, op) >= cfg_.tornRate) return len;
  return static_cast<std::size_t>(unit(kSaltIoTornOff, key, op) *
                                  static_cast<double>(len));
}

std::size_t IoFaultPlan::corruptBit(std::uint64_t key, std::uint64_t op,
                                    std::size_t len) const {
  if (!cfg_.enabled || cfg_.corruptRate <= 0 || len == 0) return SIZE_MAX;
  if (unit(kSaltIoCorrupt, key, op) >= cfg_.corruptRate) return SIZE_MAX;
  return static_cast<std::size_t>(unit(kSaltIoCorruptBit, key, op) *
                                  static_cast<double>(len * 8));
}

bool makeDirs(const std::string& path, std::string* err) {
  std::string cur;
  for (std::size_t i = 0; i < path.size(); ++i) {
    cur += path[i];
    if (path[i] == '/' || i + 1 == path.size()) {
      std::string d = cur;
      while (!d.empty() && d.back() == '/') d.pop_back();
      if (d.empty()) continue;
      if (::mkdir(d.c_str(), 0700) != 0 && errno != EEXIST) {
        if (err) *err = "mkdir " + d + ": " + errnoStr();
        return false;
      }
    }
  }
  return true;
}

namespace {

/// The shared publish tail: write `len` bytes (possibly torn) of `data` to
/// a unique temp next to `path`, flush + fsync, rename into place.
bool publishBytes(const std::string& path, const void* data, std::size_t len,
                  std::size_t diskLen, std::string* err) {
  std::string tmp = path + ".tmp" +
                    std::to_string(static_cast<long>(::getpid())) + "." +
                    std::to_string(reinterpret_cast<std::uintptr_t>(&path) ^
                                   len);
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
  if (fd < 0) {
    if (err) *err = "open " + tmp + ": " + errnoStr();
    return false;
  }
  const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
  std::size_t done = 0;
  while (done < diskLen) {
    ssize_t n = ::write(fd, p + done, diskLen - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (err) *err = "write " + tmp + ": " + errnoStr();
      ::close(fd);
      ::remove(tmp.c_str());
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    if (err) *err = "fsync " + tmp + ": " + errnoStr();
    ::close(fd);
    ::remove(tmp.c_str());
    return false;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    if (err) *err = "rename " + tmp + " -> " + path + ": " + errnoStr();
    ::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace

bool atomicWriteFile(const std::string& path, const void* data,
                     std::size_t len, const IoFaultPlan* faults,
                     std::uint64_t faultKey, std::string* err) {
  std::size_t diskLen = len;
  if (faults != nullptr && faults->enabled()) {
    // One op ordinal per call keyed by the record identity: re-publishing
    // the same record draws the same fate (the ENOSPC/bad-sector model).
    if (faults->writeFails(faultKey, 0)) {
      if (err) *err = "injected write failure (ENOSPC model)";
      return false;
    }
    // A tear is silent: the publish "succeeds" but a crash mid-flush left
    // only a prefix on disk. Readers must detect it.
    diskLen = faults->tornLength(faultKey, 0, len);
  }
  return publishBytes(path, data, len, diskLen, err);
}

bool installFile(const std::string& tmpPath, const std::string& finalPath,
                 const IoFaultPlan* faults, std::uint64_t faultKey,
                 std::string* err) {
  if (faults != nullptr && faults->enabled()) {
    if (faults->writeFails(faultKey, 0)) {
      ::remove(tmpPath.c_str());
      if (err) *err = "injected install failure (ENOSPC model)";
      return false;
    }
    struct stat st{};
    if (::stat(tmpPath.c_str(), &st) == 0 && st.st_size > 0) {
      std::size_t len = static_cast<std::size_t>(st.st_size);
      std::size_t torn = faults->tornLength(faultKey, 0, len);
      if (torn < len)
        (void)::truncate(tmpPath.c_str(), static_cast<off_t>(torn));
    }
  }
  int fd = ::open(tmpPath.c_str(), O_RDONLY);
  if (fd >= 0) {
    (void)::fsync(fd);
    ::close(fd);
  }
  if (::rename(tmpPath.c_str(), finalPath.c_str()) != 0) {
    if (err)
      *err = "rename " + tmpPath + " -> " + finalPath + ": " + errnoStr();
    ::remove(tmpPath.c_str());
    return false;
  }
  return true;
}

int sweepDirectory(const std::string& dir, const SweepSpec& spec,
                   const std::string& keepPath) {
  if (spec.capacityBytes == 0) return 0;
  struct F {
    std::string path;
    std::uint64_t bytes;
    double mtime;
  };
  std::vector<F> files;
  std::uint64_t total = 0;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name.rfind(spec.prefix, 0) != 0) continue;
    if (!spec.suffix.empty()) {
      if (name.size() < spec.suffix.size() ||
          name.compare(name.size() - spec.suffix.size(), spec.suffix.size(),
                       spec.suffix) != 0)
        continue;
    }
    if (name.find(".tmp") != std::string::npos) continue;
    std::string path = dir + "/" + name;
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0) continue;
    total += static_cast<std::uint64_t>(st.st_size);
    files.push_back({path, static_cast<std::uint64_t>(st.st_size),
                     static_cast<double>(st.st_mtime)});
  }
  ::closedir(d);
  std::sort(files.begin(), files.end(), [](const F& a, const F& b) {
    return a.mtime != b.mtime ? a.mtime < b.mtime : a.path < b.path;
  });
  int removed = 0;
  for (const F& f : files) {
    if (total <= spec.capacityBytes) break;
    if (f.path == keepPath) continue;
    ::remove(f.path.c_str());
    std::string stem = spec.suffix.empty()
                           ? f.path
                           : f.path.substr(0, f.path.size() -
                                                  spec.suffix.size());
    for (const std::string& ext : spec.siblingExts)
      ::remove((stem + ext).c_str());
    total -= f.bytes;
    ++removed;
  }
  return removed;
}

DurableStore::DurableStore(StoreConfig cfg)
    : cfg_(std::move(cfg)), faults_(cfg_.faults) {
  std::string err;
  PARAD_CHECK(makeDirs(cfg_.dir, &err), "durable store: cannot create '",
              cfg_.dir, "': ", err);
}

bool DurableStore::put(const std::string& name,
                       const std::vector<std::uint8_t>& payload,
                       std::string* err) {
  ++puts_;
  std::vector<std::uint8_t> rec;
  rec.reserve(kHeaderBytes + payload.size());
  putU64(rec, kStoreMagic);
  putU64(rec, kFormatVersion);
  putU64(rec, cfg_.kind);
  putU64(rec, cfg_.fingerprint);
  putU64(rec, payload.size());
  putU64(rec, fnv1a(payload.data(), payload.size()));
  rec.insert(rec.end(), payload.begin(), payload.end());
  // Fault coordinates: the record's name identity plus this store's op
  // ordinal, both deterministic for a deterministic caller.
  std::uint64_t key = fnv1a(name.data(), name.size()) ^ (ops_++ << 1);
  if (faults_.enabled() && faults_.writeFails(key, 0)) {
    ++putFailures_;
    if (err) *err = "injected write failure (ENOSPC model)";
    return false;
  }
  std::size_t diskLen = faults_.enabled()
                            ? faults_.tornLength(key, 0, rec.size())
                            : rec.size();
  if (!publishBytes(pathOf(name), rec.data(), rec.size(), diskLen, err)) {
    ++putFailures_;
    return false;
  }
  writeManifest();
  return true;
}

bool DurableStore::get(const std::string& name,
                       std::vector<std::uint8_t>* payload,
                       std::string* err) const {
  std::string path = pathOf(name);
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (err) *err = "open " + path + ": " + errnoStr();
    return false;
  }
  std::vector<std::uint8_t> rec;
  std::uint8_t buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (err) *err = "read " + path + ": " + errnoStr();
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    rec.insert(rec.end(), buf, buf + n);
  }
  ::close(fd);
  if (faults_.enabled()) {
    // Media rot: a seeded bit of this record's on-disk image reads flipped,
    // every time — keyed by the name alone so the damage is stable, like a
    // bad sector. The checksum below must catch it.
    std::uint64_t key = fnv1a(name.data(), name.size());
    std::size_t bit = faults_.corruptBit(key, 0, rec.size());
    if (bit != SIZE_MAX) rec[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  if (rec.size() < kHeaderBytes) {
    if (err) *err = "truncated header (" + std::to_string(rec.size()) + " bytes)";
    return false;
  }
  if (getU64(rec.data()) != kStoreMagic) {
    if (err) *err = "bad magic";
    return false;
  }
  std::uint64_t version = getU64(rec.data() + 8);
  if (version != kFormatVersion) {
    if (err) *err = "format version " + std::to_string(version) +
                    " (want " + std::to_string(kFormatVersion) + ")";
    return false;
  }
  if (getU64(rec.data() + 16) != cfg_.kind) {
    if (err) *err = "foreign record kind";
    return false;
  }
  if (getU64(rec.data() + 24) != cfg_.fingerprint) {
    if (err) *err = "stale fingerprint (record belongs to a different program)";
    return false;
  }
  std::uint64_t plen = getU64(rec.data() + 32);
  if (plen != rec.size() - kHeaderBytes) {
    if (err) *err = "torn payload (" + std::to_string(rec.size() - kHeaderBytes) +
                    " of " + std::to_string(plen) + " bytes)";
    return false;
  }
  std::uint64_t sum = getU64(rec.data() + 40);
  if (fnv1a(rec.data() + kHeaderBytes, plen) != sum) {
    if (err) *err = "checksum mismatch (payload corrupted)";
    return false;
  }
  if (payload) payload->assign(rec.begin() + kHeaderBytes, rec.end());
  return true;
}

void DurableStore::remove(const std::string& name) {
  ::remove(pathOf(name).c_str());
  writeManifest();
}

std::vector<std::string> DurableStore::scan() const {
  std::vector<std::string> names;
  DIR* d = ::opendir(cfg_.dir.c_str());
  if (d == nullptr) return names;
  while (dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name.rfind(cfg_.prefix, 0) != 0) continue;
    if (name.find(".tmp") != std::string::npos) continue;
    std::string rest = name.substr(cfg_.prefix.size());
    if (rest == "manifest") continue;
    names.push_back(rest);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::string> DurableStore::list() const {
  std::vector<std::uint8_t> payload;
  if (get("manifest", &payload, nullptr)) {
    std::vector<std::string> names;
    std::string line;
    for (std::uint8_t c : payload) {
      if (c == '\n') {
        std::size_t sp = line.find(' ');
        if (sp != std::string::npos) names.push_back(line.substr(0, sp));
        line.clear();
      } else {
        line += static_cast<char>(c);
      }
    }
    std::sort(names.begin(), names.end());
    return names;
  }
  return scan();
}

void DurableStore::writeManifest() {
  // The manifest is a plain record ("name bytes\n" per published record)
  // and goes through the same faultable publish path; a lost or torn
  // manifest only costs list() the fast path.
  std::string body;
  for (const std::string& n : scan()) {
    struct stat st{};
    std::uint64_t bytes =
        ::stat(pathOf(n).c_str(), &st) == 0
            ? static_cast<std::uint64_t>(st.st_size)
            : 0;
    body += n + " " + std::to_string(bytes) + "\n";
  }
  std::vector<std::uint8_t> rec;
  rec.reserve(kHeaderBytes + body.size());
  putU64(rec, kStoreMagic);
  putU64(rec, kFormatVersion);
  putU64(rec, cfg_.kind);
  putU64(rec, cfg_.fingerprint);
  putU64(rec, body.size());
  putU64(rec, fnv1a(body.data(), body.size()));
  rec.insert(rec.end(), body.begin(), body.end());
  std::uint64_t key =
      fnv1a("manifest", 8) ^ (ops_++ << 1);
  if (faults_.enabled() && faults_.writeFails(key, 0)) return;
  std::size_t diskLen = faults_.enabled()
                            ? faults_.tornLength(key, 0, rec.size())
                            : rec.size();
  (void)publishBytes(pathOf("manifest"), rec.data(), rec.size(), diskLen,
                     nullptr);
}

int DurableStore::sweep(const std::string& keepName) {
  SweepSpec spec;
  spec.prefix = cfg_.prefix;
  spec.capacityBytes = cfg_.capacityBytes;
  if (spec.capacityBytes == 0) return 0;
  // The manifest matches the prefix too; its bytes are budgeted on top of
  // the cap so only record bytes count against it, and writeManifest()
  // below recreates it in the unlikely case it was picked as a victim.
  struct stat st{};
  if (::stat(pathOf("manifest").c_str(), &st) == 0)
    spec.capacityBytes += static_cast<std::uint64_t>(st.st_size);
  int removed = sweepDirectory(cfg_.dir, spec, pathOf(keepName));
  writeManifest();
  return removed;
}

}  // namespace parad::io
