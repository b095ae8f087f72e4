#include "src/psim/checkpoint.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <utility>

#include "src/support/bytes.h"

namespace parad::psim {

namespace {

// Serialization helpers: little-endian fixed-width append/read. The format
// is an internal test surface (round-trip + byte-compare), not an on-disk
// interchange format, but it is kept deterministic and self-checking.
void putU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
}
void putI64(std::vector<std::uint8_t>& out, std::int64_t v) {
  putU64(out, static_cast<std::uint64_t>(v));
}
void putF64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  putU64(out, bits);
}

struct Reader {
  const std::vector<std::uint8_t>& buf;
  std::size_t pos = 0;
  std::uint64_t u64() {
    PARAD_CHECK(pos + 8 <= buf.size(), "checkpoint deserialize: truncated");
    std::uint64_t v = 0;
    for (int b = 0; b < 8; ++b)
      v |= static_cast<std::uint64_t>(buf[pos + static_cast<std::size_t>(b)])
           << (8 * b);
    pos += 8;
    return v;
  }
  std::int64_t i64v() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }
  /// An element count about to size a container. Adversarial bytes can
  /// claim astronomically large counts; bounding each against the bytes
  /// actually remaining (at `elemBytes` serialized bytes per element) turns
  /// a would-be giant allocation into a structured truncation error before
  /// any resize happens.
  std::size_t len(std::size_t elemBytes) {
    std::uint64_t n = u64();
    PARAD_CHECK(n <= (buf.size() - pos) / elemBytes,
                "checkpoint deserialize: truncated (count ", n,
                " exceeds the remaining ", buf.size() - pos, " bytes)");
    return static_cast<std::size_t>(n);
  }
};

constexpr std::uint64_t kMagic = 0x70636b7074763132ull;  // "pckptv12"

std::uint64_t objPayloadBytes(const ObjImage& o) {
  return o.freed ? 0 : static_cast<std::uint64_t>(o.count) * 8u;
}

/// Zero-padded epoch record name, so lexicographic order == epoch order and
/// the store's oldest-first sweep retires epochs in capture order.
std::string epochName(int epoch) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "epoch_%08d", epoch);
  return buf;
}

/// Parses an "epoch_%08d" record name back to its epoch, or -1.
int epochOf(const std::string& name) {
  if (name.rfind("epoch_", 0) != 0) return -1;
  int epoch = 0;
  for (std::size_t k = 6; k < name.size(); ++k) {
    if (name[k] < '0' || name[k] > '9') return -1;
    epoch = epoch * 10 + (name[k] - '0');
  }
  return name.size() > 6 ? epoch : -1;
}

}  // namespace

void CheckpointManager::captureBaseImage(std::uint64_t allocSeq) {
  base_ = capture(0);
  base_.epoch = -1;
  base_.allocSeq = allocSeq;
  base_.stats = stats_;
}

void CheckpointManager::beginAttempt(Fabric* fabric, std::uint64_t* allocSeq) {
  fabric_ = fabric;
  allocSeq_ = allocSeq;
  boundaryOrdinal_ = 0;
}

Checkpoint CheckpointManager::capture(std::uint64_t boundary) const {
  Checkpoint cp;
  cp.boundary = boundary;
  cp.liveBytes = mem_.liveBytes();
  std::size_t n = mem_.numObjects();
  cp.objects.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const MemObject& o = mem_.objectAt(k);
    ObjImage img;
    img.elem = o.elem;
    img.count = o.count;
    img.homeSocket = o.homeSocket;
    img.freed = o.freed;
    img.isCache = o.isCache;
    img.isShadow = o.isShadow;
    img.f = o.f;
    img.i = o.i;
    img.p = o.p;
    img.atomicLines = o.atomicLines;
    std::uint64_t bytes = objPayloadBytes(img);
    cp.payloadBytes += bytes;
    if (img.isCache) cp.cacheBytes += bytes;
    if (img.isShadow) cp.shadowBytes += bytes;
    cp.objects.push_back(std::move(img));
  }
  if (fabric_) {
    cp.sendSeq = fabric_->sendSeqState();
    cp.recvSeq = fabric_->recvSeqState();
  }
  if (allocSeq_) cp.allocSeq = *allocSeq_;
  return cp;
}

void CheckpointManager::onBoundary(double& releaseTime) {
  std::uint64_t b = boundaryOrdinal_++;
  if (seeking_) {
    if (b < seekTarget_) return;  // fast-forwarding through the prefix
    PARAD_CHECK(b == seekTarget_,
                "checkpoint seek overshot its boundary ordinal (", b, " vs ",
                seekTarget_, "): replay diverged from the captured run");
    apply(latest_);
    releaseTime = seekResumeClock_;
    seeking_ = false;
    return;
  }
  if (cfg_.ckptInterval <= 0) return;
  if ((b + 1) % static_cast<std::uint64_t>(cfg_.ckptInterval) != 0) return;
  // Only checkpoint a boundary where the fabric is fully quiesced (no
  // unwaited requests or buffered messages): then the snapshot needs no
  // message payloads, only the per-flow sequence counters.
  if (fabric_ && !fabric_->quiescent()) return;
  Checkpoint cp = capture(b);
  stats_.checkpoints++;
  stats_.ckptBytes += cp.payloadBytes;
  releaseTime += cost_.ckptWriteBase +
                 cost_.ckptWritePerByte * static_cast<double>(cp.payloadBytes);
  cp.releaseClock = releaseTime;
  cp.stats = stats_;  // includes this capture's own accounting
  cp.epoch = nextEpoch_++;
  log_.push_back({cp.epoch, b, cp.payloadBytes, cp.cacheBytes});
  latest_ = std::move(cp);
  publishDurable();
}

void CheckpointManager::publishDurable() {
  if (!store_) return;
  stats_.durableWrites++;
  std::vector<std::uint8_t> bytes = serialize(latest_);
  std::string name = epochName(latest_.epoch);
  std::string err;
  if (!store_->put(name, bytes, &err)) {
    // A failed publish never fails the run: the in-memory checkpoint still
    // recovers kills within this run; only cross-process resume degrades
    // (to the previous durable epoch, or a cold start).
    stats_.durableWriteFails++;
    remarks_.push_back("durable: epoch " + std::to_string(latest_.epoch) +
                       " not published: " + err +
                       " (in-memory recovery unaffected)");
    return;
  }
  int swept = store_->sweep(name);
  if (swept > 0)
    remarks_.push_back("durable: retention sweep removed " +
                       std::to_string(swept) + " old epoch record(s)");
}

double CheckpointManager::openDurable(int nranks) {
  PARAD_CHECK(!cfg_.ckptDir.empty(), "openDurable without a ckpt_dir");
  // The program fingerprint hashes what a resume must agree on: the rank
  // count and the run-start image — object shapes, roles, AND input values
  // (a same-shaped but different job must cold-start, not resume into a
  // foreign snapshot). Fault seeds are deliberately excluded: a serve warm
  // retry re-runs the same job under an offset seed and must still match.
  std::uint64_t fp = io::fnv1a(&nranks, sizeof nranks);
  std::uint64_t nobj = base_.objects.size();
  fp = io::fnv1a(&nobj, sizeof nobj, fp);
  for (const ObjImage& o : base_.objects) {
    std::uint64_t hdr[3] = {static_cast<std::uint64_t>(o.elem),
                            static_cast<std::uint64_t>(o.count),
                            (o.freed ? 1u : 0u) | (o.isCache ? 2u : 0u) |
                                (o.isShadow ? 4u : 0u)};
    fp = io::fnv1a(hdr, sizeof hdr, fp);
    fp = io::fnv1a(o.f.data(), o.f.size() * sizeof(double), fp);
    fp = io::fnv1a(o.i.data(), o.i.size() * sizeof(i64), fp);
    for (const RtPtr& ptr : o.p) {
      // Field-by-field: RtPtr has interior padding whose bytes are
      // indeterminate, and the fingerprint must be a pure function of state.
      std::int64_t pv[2] = {ptr.obj, ptr.off};
      fp = io::fnv1a(pv, sizeof pv, fp);
    }
  }
  programFp_ = fp;

  io::StoreConfig sc;
  sc.dir = cfg_.ckptDir;
  sc.prefix = "parad_ckpt_";
  sc.kind = kMagic;
  sc.fingerprint = programFp_;
  sc.capacityBytes = envByteSize("PARAD_CKPT_DISK_BYTES");
  sc.faults.enabled = cfg_.enabled && (cfg_.ioFailRate > 0 ||
                                       cfg_.tornRate > 0 ||
                                       cfg_.ioCorruptRate > 0);
  sc.faults.seed = cfg_.seed;
  sc.faults.failRate = cfg_.ioFailRate;
  sc.faults.tornRate = cfg_.tornRate;
  sc.faults.corruptRate = cfg_.ioCorruptRate;
  store_ = std::make_unique<io::DurableStore>(std::move(sc));

  // Resume from the newest epoch that survives BOTH the store's validation
  // (magic/version/kind/fingerprint/checksum — catches torn, bit-flipped,
  // and stale records) and checkpoint deserialization (catches adversarial
  // or version-skewed payloads). Anything damaged is skipped with a remark
  // and the next-older epoch is tried; with none left the run cold-starts.
  std::vector<std::string> names = store_->list();
  std::sort(names.begin(), names.end(),
            [](const std::string& a, const std::string& b) { return a > b; });
  for (const std::string& name : names) {
    if (epochOf(name) < 0) continue;
    std::vector<std::uint8_t> bytes;
    std::string err;
    if (!store_->get(name, &bytes, &err)) {
      remarks_.push_back("durable: skipping epoch record '" + name +
                         "': " + err);
      continue;
    }
    Checkpoint cp;
    try {
      cp = deserialize(bytes);
    } catch (const Error& e) {
      remarks_.push_back("durable: skipping epoch record '" + name +
                         "': " + e.what());
      continue;
    }
    if (cp.epoch < 0) {
      remarks_.push_back("durable: skipping epoch record '" + name +
                         "': negative epoch");
      continue;
    }
    latest_ = std::move(cp);
    nextEpoch_ = latest_.epoch + 1;
    // Re-seat through the existing replay-and-seek machinery, priced like a
    // restore: replay from zero, apply the snapshot at its boundary, resume
    // the clocks past the modeled restore cost. The event is attributed in
    // the trail with killedRank -1 (no rank died — the *process* did).
    double resume =
        latest_.releaseClock + cost_.ckptRestoreBase +
        cost_.ckptRestorePerByte * static_cast<double>(latest_.payloadBytes);
    seeking_ = true;
    seekTarget_ = latest_.boundary;
    seekResumeClock_ = resume;
    stats_.restores++;
    stats_.durableResumes++;
    trail_.push_back(RestoreEvent{/*killedRank=*/-1, latest_.epoch,
                                  /*killClock=*/0.0, resume,
                                  /*elastic=*/false});
    remarks_.push_back("durable: resuming from epoch " +
                       std::to_string(latest_.epoch) + " (boundary " +
                       std::to_string(latest_.boundary) + ")");
    return resume;
  }
  remarks_.push_back("durable: no valid epoch record in '" + cfg_.ckptDir +
                     "'; cold start");
  return -1.0;
}

void CheckpointManager::applyMemory(const Checkpoint& cp) {
  PARAD_CHECK(mem_.numObjects() >= cp.objects.size(),
              "checkpoint restore: machine has fewer objects (",
              mem_.numObjects(), ") than the snapshot (", cp.objects.size(),
              "): replay diverged from the captured run");
  mem_.truncateObjects(cp.objects.size());
  for (std::size_t k = 0; k < cp.objects.size(); ++k) {
    const ObjImage& img = cp.objects[k];
    MemObject& o = mem_.objectAt(k);
    PARAD_CHECK(o.elem == img.elem && o.count == img.count,
                "checkpoint restore: object ", k,
                " changed shape since capture");
    o.homeSocket = img.homeSocket;
    o.freed = img.freed;
    o.isCache = img.isCache;
    o.isShadow = img.isShadow;
    o.f = img.f;
    o.i = img.i;
    o.p = img.p;
    o.atomicLines = img.atomicLines;
  }
  mem_.setLiveBytes(cp.liveBytes);
}

void CheckpointManager::applyStats(const RunStats& snap) {
  // Everything is rolled back to the snapshot except the resilience
  // counters, which describe the recovery machinery itself and must survive
  // into the final report.
  RunStats keep = stats_;
  stats_ = snap;
  stats_.checkpoints = keep.checkpoints;
  stats_.restores = keep.restores;
  stats_.ranksKilled = keep.ranksKilled;
  stats_.ckptBytes = keep.ckptBytes;
  stats_.elasticMigrations = keep.elasticMigrations;
  stats_.durableWrites = keep.durableWrites;
  stats_.durableWriteFails = keep.durableWriteFails;
  stats_.durableResumes = keep.durableResumes;
}

void CheckpointManager::apply(const Checkpoint& cp) {
  applyMemory(cp);
  if (fabric_) fabric_->restoreSeqState(cp.sendSeq, cp.recvSeq);
  if (allocSeq_) *allocSeq_ = cp.allocSeq;
  applyStats(cp.stats);
}

void CheckpointManager::restoreNow(const Checkpoint& cp) { apply(cp); }

double CheckpointManager::planRecovery(const RankKillSignal& kill,
                                       bool elastic, int nranks) {
  PARAD_CHECK(hasCheckpoint(), "planRecovery without a checkpoint");
  applyMemory(base_);
  applyStats(base_.stats);
  if (allocSeq_) *allocSeq_ = base_.allocSeq;
  double recoveryCost;
  if (elastic) {
    // Shard migration: the dead rank's 1/nranks share of the checkpoint
    // payload is shipped to its adopter instead of rolling every rank back
    // through a full restore.
    double shardBytes = static_cast<double>(latest_.payloadBytes) /
                        static_cast<double>(nranks > 0 ? nranks : 1);
    recoveryCost =
        cost_.elasticMigrateBase + cost_.elasticMigratePerByte * shardBytes;
    stats_.elasticMigrations++;
  } else {
    recoveryCost =
        cost_.ckptRestoreBase +
        cost_.ckptRestorePerByte * static_cast<double>(latest_.payloadBytes);
    stats_.restores++;
  }
  // The crash is detected no earlier than it fired and the snapshot cannot
  // be restored before it was written, so the resume clock is the max of the
  // two plus the recovery cost — monotone, which also guarantees forward
  // progress when a replay is killed again before reaching its target.
  double resume = std::max(kill.clock, latest_.releaseClock) + recoveryCost;
  seeking_ = true;
  seekTarget_ = latest_.boundary;
  seekResumeClock_ = resume;
  trail_.push_back(
      RestoreEvent{kill.rank, latest_.epoch, kill.clock, resume, elastic});
  return resume;
}

std::vector<std::uint8_t> CheckpointManager::serialize(
    const Checkpoint& cp) const {
  static_assert(std::is_trivially_copyable<RunStats>::value,
                "RunStats must stay trivially copyable for serialization");
  std::vector<std::uint8_t> out;
  putU64(out, kMagic);
  putI64(out, cp.epoch);
  putU64(out, cp.boundary);
  putF64(out, cp.releaseClock);
  putU64(out, cp.allocSeq);
  putU64(out, cp.liveBytes);
  putU64(out, cp.payloadBytes);
  putU64(out, cp.cacheBytes);
  putU64(out, cp.shadowBytes);
  const std::uint8_t* sp = reinterpret_cast<const std::uint8_t*>(&cp.stats);
  putU64(out, sizeof(RunStats));
  out.insert(out.end(), sp, sp + sizeof(RunStats));
  putU64(out, cp.objects.size());
  for (const ObjImage& o : cp.objects) {
    putI64(out, static_cast<std::int64_t>(o.elem));
    putI64(out, o.count);
    putI64(out, o.homeSocket);
    putU64(out, (o.freed ? 1u : 0u) | (o.isCache ? 2u : 0u) |
                    (o.isShadow ? 4u : 0u));
    putU64(out, o.f.size());
    for (double v : o.f) putF64(out, v);
    putU64(out, o.i.size());
    for (i64 v : o.i) putI64(out, v);
    putU64(out, o.p.size());
    for (const RtPtr& v : o.p) {
      putI64(out, v.obj);
      putI64(out, v.off);
    }
    putU64(out, o.atomicLines.size());
    for (const MemObject::AtomicLine& l : o.atomicLines) {
      putI64(out, l.lastCore);
      putU64(out, l.hot ? 1 : 0);
      putI64(out, l.streak);
      putI64(out, l.transitions);
    }
  }
  putU64(out, cp.sendSeq.size());
  for (const auto& kv : cp.sendSeq) {
    putI64(out, kv.first.first.first);   // peer
    putI64(out, kv.first.first.second);  // tag
    putI64(out, kv.first.second);        // dest
    putU64(out, kv.second);
  }
  putU64(out, cp.recvSeq.size());
  for (const auto& kv : cp.recvSeq) {
    putI64(out, std::get<0>(kv.first));  // dst
    putI64(out, std::get<1>(kv.first));  // src
    putI64(out, std::get<2>(kv.first));  // tag
    putU64(out, kv.second);
  }
  return out;
}

Checkpoint CheckpointManager::deserialize(
    const std::vector<std::uint8_t>& bytes) const {
  Reader r{bytes};
  PARAD_CHECK(r.u64() == kMagic, "checkpoint deserialize: bad magic");
  Checkpoint cp;
  cp.epoch = static_cast<int>(r.i64v());
  cp.boundary = r.u64();
  cp.releaseClock = r.f64();
  cp.allocSeq = r.u64();
  cp.liveBytes = r.u64();
  cp.payloadBytes = r.u64();
  cp.cacheBytes = r.u64();
  cp.shadowBytes = r.u64();
  PARAD_CHECK(r.u64() == sizeof(RunStats),
              "checkpoint deserialize: RunStats layout changed");
  PARAD_CHECK(r.pos + sizeof(RunStats) <= bytes.size(),
              "checkpoint deserialize: truncated stats");
  std::memcpy(&cp.stats, bytes.data() + r.pos, sizeof(RunStats));
  r.pos += sizeof(RunStats);
  // Every count below is bounds-checked against the remaining bytes (each
  // object needs at least its 8 fixed fields; f/i/p/atomic elements occupy
  // 8/8/16/32 serialized bytes) so adversarial counts raise parad::Error
  // instead of driving a huge resize — the mutation-corpus test in
  // tests/test_durable.cpp exercises exactly this surface under ASan.
  std::size_t nobj = r.len(8 * 8);
  cp.objects.resize(nobj);
  for (ObjImage& o : cp.objects) {
    std::int64_t elem = r.i64v();
    PARAD_CHECK(elem >= 0 && elem <= static_cast<std::int64_t>(ir::Type::Task),
                "checkpoint deserialize: bad element type ", elem);
    o.elem = static_cast<ir::Type>(elem);
    o.count = r.i64v();
    PARAD_CHECK(o.count >= 0, "checkpoint deserialize: negative object count");
    o.homeSocket = static_cast<int>(r.i64v());
    std::uint64_t flags = r.u64();
    o.freed = (flags & 1) != 0;
    o.isCache = (flags & 2) != 0;
    o.isShadow = (flags & 4) != 0;
    o.f.resize(r.len(8));
    for (double& v : o.f) v = r.f64();
    o.i.resize(r.len(8));
    for (i64& v : o.i) v = r.i64v();
    o.p.resize(r.len(16));
    for (RtPtr& v : o.p) {
      v.obj = static_cast<std::int32_t>(r.i64v());
      v.off = r.i64v();
    }
    o.atomicLines.resize(r.len(32));
    for (MemObject::AtomicLine& l : o.atomicLines) {
      l.lastCore = static_cast<int>(r.i64v());
      l.hot = r.u64() != 0;
      l.streak = static_cast<int>(r.i64v());
      l.transitions = static_cast<int>(r.i64v());
    }
  }
  std::size_t nsend = r.len(32);
  for (std::size_t k = 0; k < nsend; ++k) {
    int peer = static_cast<int>(r.i64v());
    int tag = static_cast<int>(r.i64v());
    int dest = static_cast<int>(r.i64v());
    cp.sendSeq[{{peer, tag}, dest}] = r.u64();
  }
  std::size_t nrecv = r.len(32);
  for (std::size_t k = 0; k < nrecv; ++k) {
    int dst = static_cast<int>(r.i64v());
    int src = static_cast<int>(r.i64v());
    int tag = static_cast<int>(r.i64v());
    cp.recvSeq[std::make_tuple(dst, src, tag)] = r.u64();
  }
  PARAD_CHECK(r.pos == bytes.size(),
              "checkpoint deserialize: trailing bytes");
  return cp;
}

}  // namespace parad::psim
