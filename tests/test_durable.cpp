// Durable checkpoints, seeded disk-fault injection, and restart-resume
// (DESIGN.md §16): every capture is also published through the
// crash-consistent io::DurableStore, a fresh Machine over the same directory
// re-seats from the newest valid epoch through the ordinary replay-and-seek
// path, and damaged records — torn installs, bit flips, stale fingerprints,
// version skew — are *detected* and skipped, degrading recovery to an older
// epoch or a cold start but never to a wrong answer. The acceptance bar is
// the same as the in-memory chaos sweeps': gradients and primal values
// bit-identical to the fault-free run on every engine, under every seeded
// disk-fault schedule.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "src/interp/codegen.h"
#include "src/io/store.h"
#include "src/psim/checkpoint.h"
#include "src/psim/failure.h"
#include "src/psim/faults.h"
#include "src/serve/serve.h"
#include "tests/test_util.h"

using namespace parad;
using namespace parad::test;
using ir::Type;
using ir::Value;

namespace {

/// Restores the process-wide engine default on scope exit.
struct EngineGuard {
  std::string saved = interp::defaultEngine();
  ~EngineGuard() { interp::setDefaultEngine(saved); }
};

constexpr const char* kEngines[] = {"exec", "tree", "codegen"};

/// Removes a directory tree on scope exit (test artifact hygiene).
struct TempDir {
  std::string path;
  explicit TempDir(const std::string& prefix) : path(makeTempDir(prefix)) {}
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

// Ring shift with a barrier closing every round — the same capture-eligible
// workload the in-memory checkpoint tests use.
ir::Module buildRing(i64 n, i64 rounds) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "ring", {Type::PtrF64, Type::PtrF64});
  auto sendbuf = b.param(0), recvbuf = b.param(1);
  auto rank = b.mpRank();
  auto size = b.mpSize();
  auto right = b.irem(b.iadd(rank, b.constI(1)), size);
  auto left = b.irem(b.iadd(b.isub(rank, b.constI(1)), size), size);
  auto nn = b.constI(n);
  auto tag = b.constI(7);
  b.emitFor(b.constI(0), b.constI(rounds), [&](Value) {
    auto r0 = b.mpIrecv(recvbuf, nn, left, tag);
    auto s0 = b.mpIsend(sendbuf, nn, right, tag);
    b.mpWait(r0);
    b.mpWait(s0);
    b.mpBarrier();
  });
  b.ret();
  b.finish();
  ir::verify(mod);
  return mod;
}

struct RingOut {
  std::vector<std::vector<double>> recv;
  double makespan = 0;
  psim::RunStats stats;
};

/// Runs the ring on a caller-owned Machine so tests can inspect the
/// checkpoint manager (durable store, restore trail, remarks) afterwards.
RingOut runRing(psim::Machine& m, int R, i64 N, i64 rounds = 8) {
  ir::Module mod = buildRing(N, rounds);
  std::vector<psim::RtPtr> sendb, recvb;
  for (int r = 0; r < R; ++r) {
    sendb.push_back(m.mem().alloc(Type::F64, N, 0));
    recvb.push_back(m.mem().alloc(Type::F64, N, 0));
    for (i64 k = 0; k < N; ++k)
      m.mem().atF(sendb.back(), k) = 100.0 * r + static_cast<double>(k);
  }
  RingOut out;
  out.makespan = m.run({R, 1}, [&](psim::RankEnv& env) {
    interp::Interpreter it(mod, m);
    it.run(mod.get("ring"),
           {interp::RtVal::P(sendb[(std::size_t)env.rank]),
            interp::RtVal::P(recvb[(std::size_t)env.rank])},
           env);
  });
  for (int r = 0; r < R; ++r)
    out.recv.push_back(readF64(m, recvb[(std::size_t)r], N));
  out.stats = m.stats();
  return out;
}

RingOut runRing(const psim::MachineConfig& mc, int R, i64 N, i64 rounds = 8) {
  psim::Machine m(mc);
  return runRing(m, R, N, rounds);
}

// faults.enabled is always set explicitly so a PARAD_FAULTS environment spec
// (the CHAOS CI job exports one) can never leak into these runs.
psim::MachineConfig cleanConfig(std::uint64_t seed) {
  psim::MachineConfig mc;
  mc.faults.enabled = true;
  mc.faults.seed = seed;
  mc.faults.ckptInterval = 1;
  return mc;
}

/// A config whose kill schedule lands mid-run and whose retry budget is
/// exhausted immediately: the machine dies like a crashed process, with its
/// published epochs surviving on disk.
psim::MachineConfig crashConfig(std::uint64_t seed, const std::string& dir,
                                double cleanMakespan) {
  psim::MachineConfig mc = cleanConfig(seed);
  mc.ckptDir = dir;
  mc.faults.killRate = 0.9;
  mc.faults.killNs = cleanMakespan * 0.8;  // window [0.2, 0.8) * makespan
  mc.faults.retryBudget = 0;
  return mc;
}

/// Seeds widened by PARAD_CHAOS=1, mirroring the in-memory kill sweeps.
std::vector<std::uint64_t> sweepSeeds() {
  std::vector<std::uint64_t> seeds = {1, 2, 3};
  const char* env = std::getenv("PARAD_CHAOS");
  if (env && std::string(env) != "0") seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  return seeds;
}

}  // namespace

// ---------------------------------------------------------------------------
// DurableStore unit surface.

TEST(Durable, StoreRoundTripAndValidation) {
  TempDir dir("parad_durable_store");
  io::StoreConfig sc;
  sc.dir = dir.path + "/s";
  sc.kind = 0x1234;
  sc.fingerprint = 0xfeed;
  io::DurableStore store(sc);

  std::vector<std::uint8_t> payload;
  for (int i = 0; i < 257; ++i)
    payload.push_back(static_cast<std::uint8_t>(i * 7));
  ASSERT_TRUE(store.put("epoch_00000000", payload));
  ASSERT_TRUE(store.put("epoch_00000001", payload));

  std::vector<std::uint8_t> back;
  std::string err;
  ASSERT_TRUE(store.get("epoch_00000001", &back, &err)) << err;
  EXPECT_EQ(back, payload);
  EXPECT_EQ(store.list(),
            (std::vector<std::string>{"epoch_00000000", "epoch_00000001"}));

  // A foreign-fingerprint store over the same directory rejects the records
  // as stale instead of decoding them.
  io::StoreConfig other = sc;
  other.fingerprint = 0xdead;
  io::DurableStore foreign(other);
  EXPECT_FALSE(foreign.get("epoch_00000000", &back, &err));
  EXPECT_NE(err.find("stale fingerprint"), std::string::npos) << err;

  // Flip one payload byte on disk: the checksum catches it.
  {
    std::string p = store.pathOf("epoch_00000000");
    FILE* f = std::fopen(p.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 48 + 5, SEEK_SET);  // past the header, into the payload
    std::fputc('X' ^ 0x20, f);
    std::fclose(f);
    EXPECT_FALSE(store.get("epoch_00000000", &back, &err));
    EXPECT_NE(err.find("checksum mismatch"), std::string::npos) << err;
  }

  // Truncate mid-payload (a torn install): detected as torn, not misread.
  {
    std::string p = store.pathOf("epoch_00000001");
    ASSERT_EQ(::truncate(p.c_str(), 48 + 10), 0);
    EXPECT_FALSE(store.get("epoch_00000001", &back, &err));
    EXPECT_NE(err.find("torn payload"), std::string::npos) << err;
    // Truncate inside the header too.
    ASSERT_EQ(::truncate(p.c_str(), 20), 0);
    EXPECT_FALSE(store.get("epoch_00000001", &back, &err));
    EXPECT_NE(err.find("truncated header"), std::string::npos) << err;
  }

  // A missing or damaged manifest degrades list() to the directory scan.
  std::filesystem::remove(store.pathOf("manifest"));
  EXPECT_EQ(store.list(), store.scan());
}

TEST(Durable, StoreSweepKeepsNewestUnderByteCap) {
  TempDir dir("parad_durable_sweep");
  io::StoreConfig sc;
  sc.dir = dir.path + "/s";
  sc.kind = 7;
  sc.capacityBytes = 600;  // a few ~(48 + 128)-byte records
  io::DurableStore store(sc);

  std::vector<std::uint8_t> payload(128, 0x5a);
  std::vector<std::string> names;
  for (int e = 0; e < 8; ++e) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "epoch_%08d", e);
    names.push_back(buf);
    ASSERT_TRUE(store.put(names.back(), payload));
    store.sweep(/*keepName=*/names.back());
  }
  std::vector<std::string> kept = store.scan();
  // The cap held: not all eight records survive, and the newest always does.
  EXPECT_LT(kept.size(), 8u);
  EXPECT_NE(std::find(kept.begin(), kept.end(), "epoch_00000007"),
            kept.end());
  std::uint64_t bytes = 0;
  for (const std::string& n : kept)
    bytes += std::filesystem::file_size(store.pathOf(n));
  EXPECT_LE(bytes, sc.capacityBytes);
  std::vector<std::uint8_t> back;
  std::string err;
  EXPECT_TRUE(store.get("epoch_00000007", &back, &err)) << err;
}

TEST(Durable, StoreFaultInjectionDeterministic) {
  // The fault oracle is a pure hash of (seed, coordinates): two plans built
  // from the same config answer identically, and a different seed diverges.
  io::IoFaultConfig fc;
  fc.enabled = true;
  fc.seed = 42;
  fc.failRate = 0.5;
  fc.tornRate = 0.5;
  fc.corruptRate = 0.5;
  io::IoFaultPlan a(fc), b(fc);
  fc.seed = 43;
  io::IoFaultPlan c(fc);
  int diverged = 0;
  for (std::uint64_t op = 0; op < 64; ++op) {
    EXPECT_EQ(a.writeFails(11, op), b.writeFails(11, op));
    EXPECT_EQ(a.tornLength(11, op, 1000), b.tornLength(11, op, 1000));
    EXPECT_EQ(a.corruptBit(11, op, 1000), b.corruptBit(11, op, 1000));
    if (a.writeFails(11, op) != c.writeFails(11, op)) diverged++;
  }
  EXPECT_GT(diverged, 0);

  // Injected failures surface exactly like real ones. failRate=1: every
  // publish fails, nothing installed.
  TempDir dir("parad_durable_iofault");
  io::StoreConfig sc;
  sc.dir = dir.path + "/fail";
  sc.faults.enabled = true;
  sc.faults.seed = 9;
  sc.faults.failRate = 1.0;
  io::DurableStore failing(sc);
  std::vector<std::uint8_t> payload(64, 1);
  EXPECT_FALSE(failing.put("epoch_00000000", payload));
  EXPECT_EQ(failing.putFailures(), 1u);
  EXPECT_TRUE(failing.scan().empty());

  // tornRate=1: the publish "succeeds" (crash-mid-flush model) but the
  // installed record must be detected as damaged on read.
  sc.dir = dir.path + "/torn";
  sc.faults.failRate = 0;
  sc.faults.tornRate = 1.0;
  io::DurableStore tearing(sc);
  EXPECT_TRUE(tearing.put("epoch_00000000", payload));
  std::vector<std::uint8_t> back;
  std::string err;
  EXPECT_FALSE(tearing.get("epoch_00000000", &back, &err));
  EXPECT_FALSE(err.empty());

  // corruptRate=1: every read observes a flipped bit; the checksum (or the
  // header validation, if the flip lands there) rejects it.
  sc.dir = dir.path + "/rot";
  sc.faults.tornRate = 0;
  sc.faults.corruptRate = 1.0;
  io::DurableStore rotting(sc);
  EXPECT_TRUE(rotting.put("epoch_00000000", payload));
  EXPECT_FALSE(rotting.get("epoch_00000000", &back, &err));
  EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------------------
// Restart-resume across a machine teardown.

TEST(Durable, RestartResumeBitExact) {
  const int R = 8;
  const i64 N = 32;
  EngineGuard guard;
  for (const char* eng : kEngines) {
    SCOPED_TRACE(eng);
    interp::setDefaultEngine(eng);
    TempDir dir("parad_durable_resume");

    RingOut clean = runRing(cleanConfig(21), R, N);
    EXPECT_EQ(clean.stats.durableWrites, 0u);  // no directory, no disk

    // "Process" one: dies mid-run past its retry budget, epochs on disk.
    bool died = false;
    try {
      runRing(crashConfig(21, dir.path, clean.makespan), R, N);
    } catch (const psim::VmError& e) {
      EXPECT_EQ(e.report().kind, psim::FailureReport::Kind::RankKilled)
          << e.what();
      died = true;
    }
    ASSERT_TRUE(died);
    ASSERT_FALSE(std::filesystem::is_empty(dir.path));

    // "Process" two: fresh machine, same directory, no kills. It must seed
    // from the newest on-disk epoch and finish with bit-identical values.
    psim::MachineConfig resume = cleanConfig(21);
    resume.ckptDir = dir.path;
    psim::Machine m2(resume);
    RingOut warm = runRing(m2, R, N);
    EXPECT_EQ(warm.stats.durableResumes, 1u);
    EXPECT_EQ(warm.stats.restores, 1u);
    ASSERT_EQ(warm.recv.size(), clean.recv.size());
    for (std::size_t r = 0; r < clean.recv.size(); ++r)
      EXPECT_EQ(warm.recv[r], clean.recv[r]);
    EXPECT_GT(warm.makespan, clean.makespan);  // only timing degrades

    // Disk-resume attribution: one trail event, not pinned on any rank.
    ASSERT_NE(m2.checkpoints(), nullptr);
    ASSERT_EQ(m2.checkpoints()->trail().size(), 1u);
    const psim::RestoreEvent& ev = m2.checkpoints()->trail()[0];
    EXPECT_EQ(ev.killedRank, -1);
    EXPECT_GE(ev.epoch, 0);
    EXPECT_FALSE(ev.elastic);
    EXPECT_GT(ev.resumeClock, 0.0);
    EXPECT_FALSE(m2.checkpoints()->remarks().empty());
  }
}

TEST(Durable, RestartResumeUnderIoFaultSweep) {
  // Disk-fault chaos crossed with the crash/restart cycle: whatever the
  // seeded iofail/torn/iocorrupt schedule does to the epoch files, the
  // resumed run degrades (older epoch, or a cold start when nothing valid
  // survives) but its values stay bit-identical to the fault-free run.
  const int R = 8;
  const i64 N = 16;
  struct IoCase {
    const char* label;
    double fail, torn, corrupt;
  };
  const IoCase kIoCases[] = {
      {"iofail", 0.4, 0, 0},
      {"torn", 0, 0.4, 0},
      {"iocorrupt", 0, 0, 0.4},
      {"mixed", 0.25, 0.25, 0.25},
  };
  EngineGuard guard;
  RingOut clean = runRing(cleanConfig(5), R, N);
  std::uint64_t warmTotal = 0, writeFails = 0;
  std::size_t idx = 0;
  for (const IoCase& ic : kIoCases) {
    for (std::uint64_t seed : sweepSeeds()) {
      SCOPED_TRACE(std::string(ic.label) + " seed=" + std::to_string(seed));
      interp::setDefaultEngine(kEngines[idx++ % 3]);
      TempDir dir("parad_durable_iosweep");

      psim::MachineConfig crash = crashConfig(5, dir.path, clean.makespan);
      crash.faults.seed = seed;
      crash.faults.ioFailRate = ic.fail;
      crash.faults.tornRate = ic.torn;
      crash.faults.ioCorruptRate = ic.corrupt;
      try {
        runRing(crash, R, N);
      } catch (const psim::VmError& e) {
        EXPECT_EQ(e.report().kind, psim::FailureReport::Kind::RankKilled)
            << e.what();
      }

      psim::MachineConfig resume = cleanConfig(5);
      resume.ckptDir = dir.path;
      resume.faults.seed = seed;
      resume.faults.ioFailRate = ic.fail;
      resume.faults.tornRate = ic.torn;
      resume.faults.ioCorruptRate = ic.corrupt;
      RingOut out = runRing(resume, R, N);
      warmTotal += out.stats.durableResumes;
      writeFails += out.stats.durableWriteFails;
      ASSERT_EQ(out.recv.size(), clean.recv.size());
      for (std::size_t r = 0; r < clean.recv.size(); ++r)
        EXPECT_EQ(out.recv[r], clean.recv[r]);  // never a wrong answer

      // The resumed run republished its own epochs; a further restart over
      // the evolved directory must still end bit-identical, whichever epoch
      // it seats from.
      RingOut again = runRing(resume, R, N);
      for (std::size_t r = 0; r < clean.recv.size(); ++r)
        EXPECT_EQ(again.recv[r], clean.recv[r]);
    }
  }
  // The sweep exercised real warm resumes and real injected write failures,
  // not just cold starts on pristine disks.
  EXPECT_GT(warmTotal, 0u);
  EXPECT_GT(writeFails, 0u);
}

TEST(Durable, MalformedDiskByteCapIsRejected) {
  // A cap the parser cannot read exactly stops the run: read leniently,
  // "64MB" would cap the epoch set at 64 bytes.
  TempDir dir("parad_durable_badcap");
  psim::MachineConfig dur = cleanConfig(3);
  dur.ckptDir = dir.path;
  EnvVar cap("PARAD_CKPT_DISK_BYTES", "64MB");
  try {
    runRing(dur, 4, 8);
    ADD_FAILURE() << "a malformed PARAD_CKPT_DISK_BYTES was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "PARAD_CKPT_DISK_BYTES='64MB' is not a byte size (expected "
              "decimal digits, optionally followed by K, M or G)");
  }
}

TEST(Durable, EpochRetentionUnderDiskByteCap) {
  // PARAD_CKPT_DISK_BYTES caps the on-disk epoch set; the sweep removes
  // oldest-first and never the newest valid epoch, so a capped directory
  // still resumes — just with fewer fallback epochs behind it.
  const int R = 4;
  const i64 N = 8;
  TempDir dir("parad_durable_cap");

  RingOut clean = runRing(cleanConfig(3), R, N);

  psim::MachineConfig dur = cleanConfig(3);
  dur.ckptDir = dir.path;
  psim::Machine m(dur);
  {
    // Cap sized to hold only a couple of epoch records.
    std::uint64_t epochBytes = 0;
    {
      psim::MachineConfig probe = cleanConfig(3);
      probe.ckptDir = dir.path + "/probe";
      psim::Machine pm(probe);
      runRing(pm, R, N);
      ASSERT_NE(pm.checkpoints(), nullptr);
      epochBytes = std::filesystem::file_size(pm.checkpoints()->store()->pathOf(
          "epoch_00000000"));
    }
    EnvVar cap("PARAD_CKPT_DISK_BYTES", std::to_string(epochBytes * 5 / 2));
    RingOut out = runRing(m, R, N);
    EXPECT_EQ(out.stats.durableWrites, 8u);  // every boundary published
    ASSERT_EQ(out.recv.size(), clean.recv.size());
    for (std::size_t r = 0; r < clean.recv.size(); ++r)
      EXPECT_EQ(out.recv[r], clean.recv[r]);

    ASSERT_NE(m.checkpoints(), nullptr);
    ASSERT_TRUE(m.checkpoints()->durable());
    std::vector<std::string> kept = m.checkpoints()->store()->scan();
    EXPECT_LT(kept.size(), 8u);  // the cap evicted older epochs
    EXPECT_NE(std::find(kept.begin(), kept.end(), "epoch_00000007"),
              kept.end());

    // The capped directory still warm-resumes a fresh machine bit-exactly.
    psim::MachineConfig resume = cleanConfig(3);
    resume.ckptDir = dir.path;
    RingOut warm = runRing(resume, R, N);
    EXPECT_EQ(warm.stats.durableResumes, 1u);
    for (std::size_t r = 0; r < clean.recv.size(); ++r)
      EXPECT_EQ(warm.recv[r], clean.recv[r]);
  }
}

TEST(Durable, StaleFingerprintColdStarts) {
  // Epochs belong to a program: pointing a *different* job at the same
  // directory must not decode them — the fingerprint check skips every
  // record and the run cold-starts with correct values.
  const int R = 4;
  TempDir dir("parad_durable_stale");

  psim::MachineConfig dur = cleanConfig(11);
  dur.ckptDir = dir.path;
  runRing(dur, R, /*N=*/8);
  ASSERT_FALSE(std::filesystem::is_empty(dir.path));

  // Same directory, different input shape => different program fingerprint.
  RingOut clean = runRing(cleanConfig(11), R, /*N=*/16);
  psim::Machine m(dur);
  RingOut out = runRing(m, R, /*N=*/16);
  EXPECT_EQ(out.stats.durableResumes, 0u);  // cold start, nothing resumed
  ASSERT_EQ(out.recv.size(), clean.recv.size());
  for (std::size_t r = 0; r < clean.recv.size(); ++r)
    EXPECT_EQ(out.recv[r], clean.recv[r]);
  ASSERT_NE(m.checkpoints(), nullptr);
  bool sawStale = false;
  for (const std::string& r : m.checkpoints()->remarks())
    if (r.find("stale fingerprint") != std::string::npos) sawStale = true;
  EXPECT_TRUE(sawStale);
}

TEST(Durable, OldRunStatsLayoutColdStarts) {
  // Epochs written before RunStats lost its 13 serve/cache fields carry a
  // 41-field stats block. The store accepts the record (fingerprint and
  // checksum are fine), deserialization rejects the layout, and the run
  // remarks the skip and cold-starts with correct values.
  const int R = 4;
  const i64 N = 8;
  TempDir dir("parad_durable_layout");
  psim::MachineConfig dur = cleanConfig(17);
  dur.ckptDir = dir.path;
  psim::Machine first(dur);
  RingOut clean = runRing(first, R, N);

  // Rewrite every epoch with the old layout: stats length 41 * 8 and 13
  // zero fields appended to the stats block (which follows the 9-word
  // header and its length word).
  constexpr std::size_t kStatsLenAt = 9 * 8;
  constexpr std::uint64_t kOldStatsBytes = 41 * 8;
  io::DurableStore store(first.checkpoints()->store()->config());
  std::vector<std::string> names = store.list();
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(store.get(name, &bytes));
    std::uint64_t len = 0;
    std::memcpy(&len, bytes.data() + kStatsLenAt, sizeof len);
    ASSERT_EQ(len, sizeof(psim::RunStats));
    std::memcpy(bytes.data() + kStatsLenAt, &kOldStatsBytes, sizeof len);
    bytes.insert(bytes.begin() + kStatsLenAt + 8 + sizeof(psim::RunStats),
                 kOldStatsBytes - sizeof(psim::RunStats), 0);
    ASSERT_TRUE(store.put(name, bytes));
  }

  psim::Machine m(dur);
  RingOut out = runRing(m, R, N);
  EXPECT_EQ(out.stats.durableResumes, 0u);
  EXPECT_EQ(out.recv, clean.recv);
  int skipped = 0;
  for (const std::string& r : m.checkpoints()->remarks())
    if (r.find("RunStats layout changed") != std::string::npos) ++skipped;
  EXPECT_EQ(skipped, static_cast<int>(names.size()));
  EXPECT_EQ(m.checkpoints()->remarks().back(),
            "durable: no valid epoch record in '" + dir.path +
                "'; cold start");
}

// ---------------------------------------------------------------------------
// Adversarial deserialization: arbitrary byte damage must surface as a
// structured parad::Error (or a harmless successful decode when the damage
// lands in a value), never UB. The ASan lane runs this corpus too.

TEST(Durable, DeserializeMutationCorpus) {
  const int R = 4;
  const i64 N = 8;
  psim::MachineConfig mc = cleanConfig(13);
  psim::Machine m(mc);
  runRing(m, R, N);
  psim::CheckpointManager* ckpt = m.checkpoints();
  ASSERT_NE(ckpt, nullptr);
  ASSERT_TRUE(ckpt->hasCheckpoint());
  const std::vector<std::uint8_t> bytes = ckpt->serialize(ckpt->latest());
  ASSERT_GT(bytes.size(), 64u);

  auto tryDecode = [&](const std::vector<std::uint8_t>& mutant) {
    try {
      psim::Checkpoint cp = ckpt->deserialize(mutant);
      (void)cp;  // a surviving decode is fine; crashing or misreading is not
    } catch (const parad::Error&) {
      // structured rejection is the expected common case
    }
  };

  std::mt19937_64 rng(0xd15c0ull);  // fixed seed: the corpus is deterministic
  // Truncations at seeded offsets (plus the boundary cases).
  tryDecode({});
  tryDecode(std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + 1));
  for (int i = 0; i < 64; ++i) {
    std::size_t cut = rng() % bytes.size();
    tryDecode(std::vector<std::uint8_t>(bytes.begin(),
                                        bytes.begin() + (long)cut));
  }
  // Single- and multi-bit flips anywhere in the stream: counts, enum tags,
  // seqno map sizes — every field takes hits across the corpus.
  for (int i = 0; i < 256; ++i) {
    std::vector<std::uint8_t> mutant = bytes;
    int flips = 1 + (int)(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      std::size_t pos = rng() % mutant.size();
      mutant[pos] ^= (std::uint8_t)(1u << (rng() % 8));
    }
    tryDecode(mutant);
  }
  // Adversarially large counts: overwrite each of the first few u64 fields
  // with huge values; the bounds checks must reject them without allocating.
  for (std::size_t field = 0; field < 8; ++field) {
    std::vector<std::uint8_t> mutant = bytes;
    std::size_t off = field * 8;
    if (off + 8 > mutant.size()) break;
    for (int b = 0; b < 8; ++b) mutant[off + (std::size_t)b] = 0xff;
    tryDecode(mutant);
  }
  // Truncated-then-padded streams (length lies in both directions).
  std::vector<std::uint8_t> padded = bytes;
  padded.insert(padded.end(), 32, 0xaa);
  tryDecode(padded);
}

// ---------------------------------------------------------------------------
// Serving layer: warm retries and cross-service restart recovery.

namespace {

/// acc += sin(x[i]) * c + x[i]^2 / 2 — the canonical servable builder.
std::function<void(ir::Module&)> servable(double c) {
  return [c](ir::Module& mod) {
    ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
    auto x = b.param(0);
    auto n = b.param(1);
    auto acc = b.alloc(b.constI(1), Type::F64);
    b.store(acc, b.constI(0), b.constF(0));
    b.emitFor(b.constI(0), n, [&](Value i) {
      auto v = b.load(x, i);
      auto t = b.fadd(b.fmul(b.sin_(v), b.constF(c)),
                      b.fmul(b.fmul(v, v), b.constF(0.5)));
      b.store(acc, b.constI(0), b.fadd(b.load(acc, b.constI(0)), t));
    });
    b.ret(b.load(acc, b.constI(0)));
    b.finish();
  };
}

/// The same computation with a barrier closing every loop round: serve jobs
/// run single-rank, and collectives are the only checkpoint boundaries, so a
/// servable must contain some for durable epochs to exist at all. A 1-rank
/// barrier is trivially quiescent and capture-eligible.
std::function<void(ir::Module&)> servableBarriered(double c) {
  return [c](ir::Module& mod) {
    ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
    auto x = b.param(0);
    auto n = b.param(1);
    auto acc = b.alloc(b.constI(1), Type::F64);
    b.store(acc, b.constI(0), b.constF(0));
    b.emitFor(b.constI(0), n, [&](Value i) {
      auto v = b.load(x, i);
      auto t = b.fadd(b.fmul(b.sin_(v), b.constF(c)),
                      b.fmul(b.fmul(v, v), b.constF(0.5)));
      b.store(acc, b.constI(0), b.fadd(b.load(acc, b.constI(0)), t));
      b.mpBarrier();
    });
    b.ret(b.load(acc, b.constI(0)));
    b.finish();
  };
}

std::vector<double> serveInput(std::size_t n) {
  std::vector<double> x(n);
  for (std::size_t k = 0; k < n; ++k)
    x[k] = 0.25 + 0.5 * static_cast<double>(k);
  return x;
}

}  // namespace

TEST(Durable, ServeWarmRetryResume) {
  // A transient rank-kill retry re-seats from the job's last durable epoch:
  // the retry attempt's Machine opens the per-job directory the failed
  // attempt published into. Observable end to end — the answering
  // attempt's durableResumes, the service-wide warmResumes counter — and the
  // retried gradient is still bit-identical to the clean single-shot run.
  constexpr std::size_t kN = 5;
  TempDir dir("parad_durable_serve");
  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.maxBatch = 1;
  cfg.retryBackoffUs = 1.0;
  cfg.ckptDir = dir.path;
  serve::GradientService svc(cfg);
  svc.registerProgram("poly", servableBarriered(3.0), "f", kN);

  serve::Request clean;
  clean.program = "poly";
  clean.inputs = serveInput(kN);
  serve::Response want = svc.callDirect(clean);
  ASSERT_TRUE(want.ok) << want.error;

  // Kills landing mid-run with per-attempt in-VM recovery off (retry=0):
  // a killed attempt dies like a crashed worker, but the epochs it
  // published let the next attempt resume from disk. Find a seed whose
  // schedule kills at least one attempt and then lets a retry finish.
  const std::string killNs = std::to_string((long long)want.virtualNs);
  serve::ServiceStats before = svc.stats();
  serve::Response r;
  bool succeeded = false;
  for (std::uint64_t seed = 1; seed < 64 && !succeeded; ++seed) {
    serve::Request faulty = clean;
    faulty.id = 1000 + seed;  // stable per-job directory
    faulty.faultSpec = "seed=" + std::to_string(seed) + ",kill=0.45,killns=" +
                       killNs + ",ckpt_interval=1,retry=0";
    faulty.retryMax = 3;
    r = svc.call(faulty);
    succeeded = r.ok && r.retries > 0 && r.stats.durableResumes > 0;
  }
  ASSERT_TRUE(succeeded) << r.error;
  EXPECT_GT(svc.stats().warmResumes, before.warmResumes);
  EXPECT_EQ(r.primal, want.primal);
  ASSERT_EQ(r.gradient.size(), kN);
  for (std::size_t k = 0; k < kN; ++k)
    EXPECT_EQ(r.gradient[k], want.gradient[k]) << "k=" << k;
}

TEST(Durable, ServeRestartRecoversAcrossServices) {
  // Tear the whole service down mid-job and rebuild it over the same
  // directory: the replacement service re-registers the program and a job
  // with the same id warm-resumes from the epochs the dead service's
  // attempts published — state recovery across a serving-process restart.
  constexpr std::size_t kN = 5;
  TempDir dir("parad_durable_serve_restart");
  serve::Response want;
  const std::uint64_t jobId = 7777;
  {
    serve::ServeConfig cfg;
    cfg.workers = 1;
    cfg.maxBatch = 1;
    cfg.ckptDir = dir.path;
    serve::GradientService a(cfg);
    a.registerProgram("poly", servableBarriered(3.0), "f", kN);
    serve::Request clean;
    clean.program = "poly";
    clean.inputs = serveInput(kN);
    want = a.callDirect(clean);
    ASSERT_TRUE(want.ok) << want.error;

    serve::Request doomed = clean;
    doomed.id = jobId;
    // kill=1 with kills landing mid-run: every attempt checkpoints, then
    // dies past its in-VM budget — the serving process "crashes" with the
    // job unfinished and its epochs on disk.
    doomed.faultSpec = "seed=3,kill=1,killns=" +
                       std::to_string((long long)want.virtualNs) +
                       ",ckpt_interval=1,retry=0";
    doomed.retryMax = 1;
    serve::Response dead = a.call(doomed);
    EXPECT_FALSE(dead.ok);
    ASSERT_NE(dead.failure, nullptr);
    EXPECT_EQ(dead.failure->kind, psim::FailureReport::Kind::RankKilled);
  }  // service torn down; its epochs survive on disk
  ASSERT_FALSE(std::filesystem::is_empty(dir.path));

  serve::ServeConfig cfg;
  cfg.workers = 1;
  cfg.maxBatch = 1;
  cfg.ckptDir = dir.path;
  serve::GradientService b(cfg);
  b.registerProgram("poly", servableBarriered(3.0), "f", kN);
  serve::Request retry;
  retry.program = "poly";
  retry.inputs = serveInput(kN);
  retry.id = jobId;  // same job directory as the dead service's attempts
  retry.faultSpec = "seed=3,ckpt_interval=1";  // same job, kinder hardware
  serve::Response r = b.call(retry);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.stats.durableResumes, 0u);  // resumed, not recomputed from zero
  EXPECT_GT(b.stats().warmResumes, 0u);
  EXPECT_EQ(r.primal, want.primal);
  ASSERT_EQ(r.gradient.size(), kN);
  for (std::size_t k = 0; k < kN; ++k)
    EXPECT_EQ(r.gradient[k], want.gradient[k]) << "k=" << k;
}

// ---------------------------------------------------------------------------
// Codegen artifact cache on the shared durable-write path.

TEST(Durable, CodegenTornInstallTolerated) {
  // A torn .so install (crash mid-flush) must behave like any damaged
  // artifact: dlopen-time validation rejects it, the lookup falls back to
  // exec with identical values, and clearing the sticky failure state lets a
  // later clean install recover.
  const std::vector<double> x = {0.5, 1.25, 2.0};
  EngineGuard guard;
  auto& cache = interp::CodegenCache::global();
  interp::CodegenConfig saved = cache.config();
  TempDir dir("parad_durable_cg");

  ir::Module modRef;
  servable(2.5)(modRef);
  interp::setDefaultEngine("exec");
  std::vector<double> wantG = adGradScalarFn(modRef, "f", x);

  interp::CodegenConfig torn;
  torn.cacheDir = dir.path;
  torn.ioFaults.enabled = true;
  torn.ioFaults.seed = 4;
  torn.ioFaults.tornRate = 1.0;
  cache.setConfig(torn);
  cache.clear();
  interp::CodegenCounters before = cache.counters();

  interp::setDefaultEngine("codegen");
  ir::Module modA;
  servable(2.5)(modA);
  std::vector<double> gotTorn = adGradScalarFn(modA, "f", x);
  ASSERT_EQ(gotTorn.size(), wantG.size());
  for (std::size_t k = 0; k < wantG.size(); ++k)
    EXPECT_EQ(gotTorn[k], wantG[k]) << "k=" << k;
  // Whether a compiler exists or not, this lookup cannot have produced a
  // usable artifact: it fell back to exec.
  EXPECT_GT(cache.counters().fallbacks, before.fallbacks);

  // Disarm the faults and clear the sticky failed state: the next lookup
  // recovers (fresh compile where a toolchain exists; clean fallback where
  // not) and values are unchanged either way.
  interp::CodegenConfig clean;
  clean.cacheDir = dir.path;
  cache.setConfig(clean);
  cache.clear();
  ir::Module modB;
  servable(2.5)(modB);
  std::vector<double> gotClean = adGradScalarFn(modB, "f", x);
  for (std::size_t k = 0; k < wantG.size(); ++k)
    EXPECT_EQ(gotClean[k], wantG[k]) << "k=" << k;

  cache.setConfig(saved);
  cache.clear();
  cache.clearRemarks();
}
