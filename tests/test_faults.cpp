// Deterministic fault injection: spec parsing, the self-healing fabric,
// watchdogs, and the chaos sweep (values must be bit-identical to the
// fault-free run while only virtual timing degrades).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/apps/lulesh/lulesh.h"
#include "src/apps/minibude/minibude.h"
#include "src/psim/failure.h"
#include "src/psim/faults.h"
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

/// The key-list tail of every unknown-key fault-spec error.
constexpr const char* kFaultKeyList =
    " (keys: seed, drop, dup, delay, delayns, allocfail, straggle, factor, "
    "rto, maxretry, kill, killns, ckpt_interval, retry, elastic, ckpt_dir, "
    "iofail, torn, iocorrupt)";

/// The full engine matrix (codegen degrades to exec without a host compiler).
constexpr const char* kEngines[] = {"exec", "tree", "codegen"};

// Multi-round ring shift: several messages per (src, dst, tag) flow, so the
// duplicate-suppression path (stale ghosts found while scanning for the next
// sequence number) actually runs.
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

RingOut runRing(int R, i64 N, psim::MachineConfig mc, i64 rounds = 4) {
  ir::Module mod = buildRing(N, rounds);
  psim::Machine m(mc);
  std::vector<psim::RtPtr> sendb(static_cast<std::size_t>(R)),
      recvb(static_cast<std::size_t>(R));
  for (int r = 0; r < R; ++r) {
    sendb[(std::size_t)r] = m.mem().alloc(Type::F64, N, 0);
    recvb[(std::size_t)r] = m.mem().alloc(Type::F64, N, 0);
    for (i64 k = 0; k < N; ++k)
      m.mem().atF(sendb[(std::size_t)r], k) = 100.0 * r + static_cast<double>(k);
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

}  // namespace

TEST(Faults, ParseFaultSpec) {
  psim::FaultConfig fc = psim::parseFaultSpec(
      "seed=7,drop=0.25,dup=0.05,delay=0.5,delayns=1500,allocfail=0.1,"
      "straggle=0.3,factor=3,rto=2500,maxretry=8");
  EXPECT_TRUE(fc.enabled);
  EXPECT_EQ(fc.seed, 7u);
  EXPECT_DOUBLE_EQ(fc.dropRate, 0.25);
  EXPECT_DOUBLE_EQ(fc.dupRate, 0.05);
  EXPECT_DOUBLE_EQ(fc.delayRate, 0.5);
  EXPECT_DOUBLE_EQ(fc.delayNs, 1500);
  EXPECT_DOUBLE_EQ(fc.allocFailRate, 0.1);
  EXPECT_DOUBLE_EQ(fc.straggleRate, 0.3);
  EXPECT_DOUBLE_EQ(fc.straggleFactor, 3);
  EXPECT_DOUBLE_EQ(fc.rtoNs, 2500);
  EXPECT_EQ(fc.maxRetransmits, 8);

  EXPECT_FALSE(psim::parseFaultSpec("").enabled);

  auto errOf = [](const std::string& spec) -> std::string {
    try {
      psim::parseFaultSpec(spec);
    } catch (const parad::Error& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(errOf("bogus=1").find("bogus"), std::string::npos);
  EXPECT_NE(errOf("drop=1.5").find("drop"), std::string::npos);
  EXPECT_NE(errOf("drop").find("drop"), std::string::npos);
  EXPECT_NE(errOf("seed=xyz").find("xyz"), std::string::npos);
  EXPECT_NE(errOf("maxretry=40").find("maxretry"), std::string::npos);

  // Unknown keys are rejected with a structured error, never silently
  // ignored (a typo like `drp=0.1` must not run fault-free), and the error
  // suggests the nearest valid key.
  EXPECT_EQ(errOf("drp=0.1"),
            "fault spec: unknown key 'drp' (did you mean 'drop'?)" +
                std::string(kFaultKeyList));
  EXPECT_EQ(errOf("kil=0.5"),
            "fault spec: unknown key 'kil' (did you mean 'kill'?)" +
                std::string(kFaultKeyList));
  EXPECT_EQ(errOf("ckptinterval=2"),
            "fault spec: unknown key 'ckptinterval' (did you mean "
            "'ckpt_interval'?)" +
                std::string(kFaultKeyList));
  // A key nothing like any knob gets the full key list but no bogus guess.
  EXPECT_EQ(errOf("zzzzzzzz=1"),
            "fault spec: unknown key 'zzzzzzzz'" + std::string(kFaultKeyList));
}

TEST(Faults, ParseResilienceKeys) {
  psim::FaultConfig fc = psim::parseFaultSpec(
      "seed=9,kill=0.02,killns=50000,ckpt_interval=2,retry=5,elastic=1");
  EXPECT_TRUE(fc.enabled);
  EXPECT_DOUBLE_EQ(fc.killRate, 0.02);
  EXPECT_DOUBLE_EQ(fc.killNs, 50000);
  EXPECT_EQ(fc.ckptInterval, 2);
  EXPECT_EQ(fc.retryBudget, 5);
  EXPECT_TRUE(fc.elastic);
  EXPECT_FALSE(psim::parseFaultSpec("kill=0.1").elastic);

  auto errOf = [](const std::string& spec) -> std::string {
    try {
      psim::parseFaultSpec(spec);
    } catch (const parad::Error& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(errOf("kill=2").find("kill"), std::string::npos);
  EXPECT_NE(errOf("killns=0").find("killns"), std::string::npos);
  EXPECT_NE(errOf("ckpt_interval=-1").find("ckpt_interval"),
            std::string::npos);
  EXPECT_NE(errOf("retry=-3").find("retry"), std::string::npos);
  EXPECT_NE(errOf("elastic=0.5").find("elastic must be 0 or 1"),
            std::string::npos);
  EXPECT_EQ(errOf("elastc=1"),
            "fault spec: unknown key 'elastc' (did you mean 'elastic'?)" +
                std::string(kFaultKeyList));
}

TEST(Faults, ParseDurableKeys) {
  psim::FaultConfig fc = psim::parseFaultSpec(
      "seed=2,ckpt_interval=1,ckpt_dir=/tmp/parad_epochs,iofail=0.1,"
      "torn=0.2,iocorrupt=0.3");
  EXPECT_TRUE(fc.enabled);
  EXPECT_EQ(fc.ckptDir, "/tmp/parad_epochs");
  EXPECT_DOUBLE_EQ(fc.ioFailRate, 0.1);
  EXPECT_DOUBLE_EQ(fc.tornRate, 0.2);
  EXPECT_DOUBLE_EQ(fc.ioCorruptRate, 0.3);
  EXPECT_TRUE(psim::parseFaultSpec("iofail=0").ckptDir.empty());

  auto errOf = [](const std::string& spec) -> std::string {
    try {
      psim::parseFaultSpec(spec);
    } catch (const parad::Error& e) {
      return e.what();
    }
    return "";
  };
  // Rates are validated like every other probability knob.
  EXPECT_NE(errOf("iofail=1.5").find("iofail"), std::string::npos);
  EXPECT_NE(errOf("torn=-0.1").find("torn"), std::string::npos);
  EXPECT_NE(errOf("iocorrupt=2").find("iocorrupt"), std::string::npos);
  EXPECT_NE(errOf("ckpt_dir=").find("ckpt_dir"), std::string::npos);
  // Typos get the same did-you-mean treatment as the original key set.
  EXPECT_EQ(errOf("iofial=0.1"),
            "fault spec: unknown key 'iofial' (did you mean 'iofail'?)" +
                std::string(kFaultKeyList));
  EXPECT_EQ(errOf("ckptdir=/x"),
            "fault spec: unknown key 'ckptdir' (did you mean 'ckpt_dir'?)" +
                std::string(kFaultKeyList));
  EXPECT_EQ(errOf("icorrupt=0.1"),
            "fault spec: unknown key 'icorrupt' (did you mean "
            "'iocorrupt'?)" +
                std::string(kFaultKeyList));
  EXPECT_EQ(errOf("torm=0.1"),
            "fault spec: unknown key 'torm' (did you mean 'torn'?)" +
                std::string(kFaultKeyList));
  // The new keys appear in the full key list shown for far-off typos.
  std::string far = errOf("zzzzzzzz=1");
  EXPECT_NE(far.find("iofail"), std::string::npos) << far;
  EXPECT_NE(far.find("ckpt_dir"), std::string::npos) << far;
}

TEST(Faults, KillScheduleIsDeterministicAndIncreasing) {
  psim::FaultConfig fc;
  fc.enabled = true;
  fc.seed = 4;
  fc.killRate = 0.8;
  fc.killNs = 10000;
  psim::FaultPlan a(fc), b(fc);
  bool anyKill = false;
  for (int r = 0; r < 8; ++r) {
    double prev = 0;
    for (int k = 0; k < 4; ++k) {
      double ta = a.killTime(r, k), tb = b.killTime(r, k);
      EXPECT_DOUBLE_EQ(ta, tb);  // pure hash: replayable from the seed
      if (ta < 0) continue;
      anyKill = true;
      EXPECT_GT(ta, prev);  // successive crash times strictly increase
      prev = ta;
    }
  }
  EXPECT_TRUE(anyKill);
  psim::FaultPlan off{psim::FaultConfig{}};
  EXPECT_LT(off.killTime(0, 0), 0.0);  // disabled plan never kills
}

TEST(Faults, PlanIsDeterministicFromSeed) {
  psim::FaultConfig fc;
  fc.enabled = true;
  fc.seed = 11;
  fc.dropRate = 0.5;
  fc.dupRate = 0.3;
  fc.delayRate = 0.5;
  psim::FaultPlan a(fc), b(fc);
  fc.seed = 12;
  psim::FaultPlan c(fc);
  bool anyFault = false, anyDiffer = false;
  for (int src = 0; src < 4; ++src)
    for (int dst = 0; dst < 4; ++dst)
      for (std::uint64_t seq = 0; seq < 16; ++seq) {
        auto fa = a.onSend(src, dst, 7, seq);
        auto fb = b.onSend(src, dst, 7, seq);
        EXPECT_EQ(fa.retransmits, fb.retransmits);
        EXPECT_EQ(fa.duplicate, fb.duplicate);
        EXPECT_DOUBLE_EQ(fa.extraDelayNs, fb.extraDelayNs);
        anyFault = anyFault || fa.injected() > 0;
        auto fcx = c.onSend(src, dst, 7, seq);
        anyDiffer = anyDiffer || fcx.retransmits != fa.retransmits ||
                    fcx.duplicate != fa.duplicate;
      }
  EXPECT_TRUE(anyFault);
  EXPECT_TRUE(anyDiffer);  // a different seed yields a different schedule
}

TEST(Faults, SelfHealingRingIsBitExact) {
  const int R = 8;
  const i64 N = 32;
  RingOut clean = runRing(R, N, {});
  EXPECT_EQ(clean.stats.retransmits, 0u);

  psim::MachineConfig mc;
  mc.faults.enabled = true;
  mc.faults.seed = 3;
  mc.faults.dropRate = 0.4;
  mc.faults.dupRate = 0.3;
  mc.faults.delayRate = 0.5;
  RingOut faulty = runRing(R, N, mc);
  EXPECT_GT(faulty.stats.retransmits, 0u);
  EXPECT_GT(faulty.stats.dupDeliveries, 0u);
  EXPECT_GT(faulty.stats.faultsInjected, 0u);
  EXPECT_GE(faulty.makespan, clean.makespan);  // only timing degrades
  EXPECT_EQ(faulty.stats.messages, clean.stats.messages);
  ASSERT_EQ(faulty.recv.size(), clean.recv.size());
  for (std::size_t r = 0; r < clean.recv.size(); ++r)
    EXPECT_EQ(faulty.recv[r], clean.recv[r]);  // values bit-exact

  // Replay: the same seed reproduces the same degraded timeline exactly.
  RingOut replay = runRing(R, N, mc);
  EXPECT_EQ(replay.makespan, faulty.makespan);
  EXPECT_EQ(replay.stats.retransmits, faulty.stats.retransmits);
  EXPECT_EQ(replay.stats.dupDeliveries, faulty.stats.dupDeliveries);
}

TEST(Faults, StragglersAndAllocFaultsOnlySlowTheRun) {
  const int R = 4;
  const i64 N = 16;
  RingOut clean = runRing(R, N, {});
  psim::MachineConfig mc;
  mc.faults.enabled = true;
  mc.faults.seed = 5;
  mc.faults.straggleRate = 1.0;  // every rank straggles
  mc.faults.straggleFactor = 4;
  mc.faults.allocFailRate = 1.0;  // every alloc transiently fails once
  RingOut slow = runRing(R, N, mc);
  EXPECT_GT(slow.makespan, clean.makespan);
  EXPECT_GT(slow.stats.faultsInjected, 0u);
  EXPECT_EQ(slow.stats.retransmits, 0u);
  for (std::size_t r = 0; r < clean.recv.size(); ++r)
    EXPECT_EQ(slow.recv[r], clean.recv[r]);
}

TEST(Faults, DoubleWaitOnSameRequestFails) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "dw", {Type::PtrF64});
  auto buf = b.param(0);
  b.emitIf(
      b.ieq(b.mpRank(), b.constI(0)),
      [&] {
        auto req = b.mpIsend(buf, b.constI(2), b.constI(1), b.constI(0));
        b.mpWait(req);
        b.mpWait(req);  // stale handle: must be rejected, not hang
      },
      [&] { b.mpRecv(buf, b.constI(2), b.constI(0), b.constI(0)); });
  b.ret();
  b.finish();
  ir::verify(mod);
  psim::Machine m;
  psim::RtPtr bufs[2] = {makeF64(m, {1, 2}), makeF64(m, {0, 0})};
  try {
    m.run({2, 1}, [&](psim::RankEnv& env) {
      interp::Interpreter it(mod, m);
      it.run(mod.get("dw"), {interp::RtVal::P(bufs[env.rank])}, env);
    });
    FAIL() << "expected an Error";
  } catch (const parad::Error& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("already been waited on"), std::string::npos) << msg;
  }
}

TEST(Faults, InstructionWatchdogTripsOnBothEngines) {
  // A long-running loop must be converted into a structured error once the
  // per-rank dispatched-instruction bound is exceeded.
  ir::Module mod;
  ir::FunctionBuilder b(mod, "spin", {Type::PtrF64});
  auto buf = b.param(0);
  b.emitFor(b.constI(0), b.constI(1000000), [&](Value i) {
    b.store(buf, b.constI(0), b.fadd(b.load(buf, b.constI(0)), b.constF(1)));
    (void)i;
  });
  b.ret();
  b.finish();
  ir::verify(mod);
  for (const char* eng : kEngines) {
    SCOPED_TRACE(eng);
    psim::MachineConfig mc;
    mc.watchdogInsts = 10000;
    psim::Machine m(mc);
    auto buf = makeF64(m, {0});
    try {
      m.run({1, 1}, [&](psim::RankEnv& env) {
        interp::Interpreter it(mod, m, eng);
        it.run(mod.get("spin"), {interp::RtVal::P(buf)}, env);
      });
      FAIL() << "expected a VmError";
    } catch (const psim::VmError& e) {
      EXPECT_EQ(e.report().kind, psim::FailureReport::Kind::Watchdog);
      std::string msg = e.what();
      EXPECT_NE(msg.find("watchdogInsts"), std::string::npos) << msg;
      // The tripping rank reports the clock it reached, not its start clock.
      ASSERT_EQ(e.report().ranks.size(), 1u);
      EXPECT_GT(e.report().ranks[0].clock, 0.0) << msg;
    }
  }
}

TEST(Faults, VirtualTimeWatchdogTripsOnStalledProgress) {
  // Rank 1 never posts the send rank 0 waits for, but keeps computing:
  // no deadlock, yet virtual time runs away. The time bound catches it.
  ir::Module mod;
  ir::FunctionBuilder b(mod, "stall", {Type::PtrF64});
  auto buf = b.param(0);
  b.emitIf(
      b.ieq(b.mpRank(), b.constI(0)),
      [&] { b.mpRecv(buf, b.constI(1), b.constI(1), b.constI(0)); },
      [&] {
        b.emitFor(b.constI(0), b.constI(1000000), [&](Value i) {
          b.store(buf, b.constI(0),
                  b.fadd(b.load(buf, b.constI(0)), b.constF(1)));
          (void)i;
        });
      });
  b.ret();
  b.finish();
  ir::verify(mod);
  psim::MachineConfig mc;
  mc.watchdogVirtualNs = 50000;
  psim::Machine m(mc);
  psim::RtPtr bufs[2] = {makeF64(m, {0}), makeF64(m, {0})};
  try {
    m.run({2, 1}, [&](psim::RankEnv& env) {
      interp::Interpreter it(mod, m);
      it.run(mod.get("stall"), {interp::RtVal::P(bufs[env.rank])}, env);
    });
    FAIL() << "expected a VmError";
  } catch (const psim::VmError& e) {
    EXPECT_EQ(e.report().kind, psim::FailureReport::Kind::Watchdog);
    std::string msg = e.what();
    EXPECT_NE(msg.find("virtual-time bound"), std::string::npos) << msg;
    // The report still snapshots what every rank was doing.
    ASSERT_EQ(e.report().ranks.size(), 2u);
    EXPECT_EQ(e.report().ranks[0].op, "wait");
    // Rank 0 reports the clock it parked with, the tripping rank 1 the clock
    // that crossed the bound.
    EXPECT_GT(e.report().ranks[0].clock, 0.0) << msg;
    EXPECT_GT(e.report().ranks[1].clock, 50000.0) << msg;
  }
}

// ---------------------------------------------------------------------------
// Chaos sweep: seeds x drop rates x both engines over the two MPI apps.
// The acceptance bar: primal objective and every gradient component are
// bit-identical to the fault-free run, with retransmits actually happening.
// PARAD_CHAOS=1 widens the seed set.
// ---------------------------------------------------------------------------

namespace {

struct ChaosCase {
  std::uint64_t seed;
  double drop;
};

std::vector<ChaosCase> chaosCases(std::vector<double> drops) {
  std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5};
  const char* env = std::getenv("PARAD_CHAOS");
  if (env && std::string(env) != "0")
    seeds = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  std::vector<ChaosCase> cases;
  for (std::uint64_t s : seeds)
    for (double drop : drops) cases.push_back({s, drop});
  return cases;
}

psim::MachineConfig chaosMachine(const ChaosCase& c) {
  psim::MachineConfig mc;
  mc.faults.enabled = true;
  mc.faults.seed = c.seed;
  mc.faults.dropRate = c.drop;
  mc.faults.dupRate = 0.15;
  mc.faults.delayRate = 0.3;
  mc.faults.allocFailRate = 0.01;
  mc.faults.straggleRate = 0.25;
  return mc;
}

}  // namespace

TEST(Faults, ChaosSweepLuleshMp) {
  apps::lulesh::Config cfg;
  cfg.par = apps::lulesh::Config::Par::Serial;
  cfg.mp = true;
  cfg.rside = 2;
  cfg.s = 3;
  cfg.nsteps = 2;
  ir::Module mod = apps::lulesh::build(cfg);
  apps::lulesh::prepare(mod);
  core::GradInfo gi = apps::lulesh::buildGradient(mod);

  auto clean = apps::lulesh::runPrimal(mod, cfg, 1);
  auto cleanG = apps::lulesh::runGradient(mod, gi, cfg, 1);
  ASSERT_EQ(clean.stats.retransmits, 0u);

  EngineGuard guard;
  std::size_t idx = 0;
  for (const ChaosCase& c : chaosCases({0.1, 0.3, 0.5})) {
    SCOPED_TRACE("seed=" + std::to_string(c.seed) +
                 " drop=" + std::to_string(c.drop));
    interp::setDefaultEngine(kEngines[idx++ % 3]);
    psim::MachineConfig mc = chaosMachine(c);
    auto p = apps::lulesh::runPrimal(mod, cfg, 1, mc);
    EXPECT_EQ(p.objective, clean.objective);
    EXPECT_GT(p.stats.retransmits, 0u);
    EXPECT_GE(p.makespan, clean.makespan);
    auto g = apps::lulesh::runGradient(mod, gi, cfg, 1, mc);
    EXPECT_EQ(g.objective, cleanG.objective);
    EXPECT_GT(g.stats.retransmits, 0u);
    ASSERT_EQ(g.gradE.size(), cleanG.gradE.size());
    EXPECT_EQ(g.gradE, cleanG.gradE);  // bit-identical, not just close
    EXPECT_EQ(g.gradU, cleanG.gradU);
  }
}

TEST(Faults, ChaosSweepMinibudeMp) {
  apps::minibude::Config cfg;
  cfg.par = apps::minibude::Config::Par::Serial;
  cfg.mp = true;
  cfg.mpRanks = 8;  // 7 gather flows; drop rates below keep P(no drop) tiny
  cfg.poses = 16;
  cfg.ligAtoms = 4;
  cfg.protAtoms = 6;
  ir::Module mod = apps::minibude::build(cfg);
  apps::minibude::prepare(mod);
  core::GradInfo gi = apps::minibude::buildGradient(mod);

  auto clean = apps::minibude::runPrimal(mod, cfg, 1);
  auto cleanG = apps::minibude::runGradient(mod, gi, cfg, 1);
  ASSERT_EQ(clean.stats.retransmits, 0u);

  EngineGuard guard;
  std::size_t idx = 1;  // offset so this sweep alternates opposite to lulesh
  for (const ChaosCase& c : chaosCases({0.4, 0.6, 0.8})) {
    SCOPED_TRACE("seed=" + std::to_string(c.seed) +
                 " drop=" + std::to_string(c.drop));
    interp::setDefaultEngine(kEngines[idx++ % 3]);
    psim::MachineConfig mc = chaosMachine(c);
    auto p = apps::minibude::runPrimal(mod, cfg, 1, mc);
    EXPECT_EQ(p.objective, clean.objective);
    EXPECT_GT(p.stats.retransmits, 0u);
    auto g = apps::minibude::runGradient(mod, gi, cfg, 1, mc);
    EXPECT_EQ(g.objective, cleanG.objective);
    EXPECT_GT(g.stats.retransmits, 0u);
    EXPECT_EQ(g.gradPoses, cleanG.gradPoses);
    EXPECT_EQ(g.gradLig, cleanG.gradLig);
  }
}

TEST(Faults, EnvSpecDrivesInjection) {
  // PARAD_FAULTS configures the plan when MachineConfig leaves it disabled.
  ASSERT_EQ(setenv("PARAD_FAULTS", "seed=2,drop=0.4,dup=0.2", 1), 0);
  RingOut faulty = runRing(8, 32, {});
  ASSERT_EQ(unsetenv("PARAD_FAULTS"), 0);
  EXPECT_GT(faulty.stats.retransmits, 0u);
  RingOut clean = runRing(8, 32, {});
  EXPECT_EQ(clean.stats.retransmits, 0u);
  for (std::size_t r = 0; r < clean.recv.size(); ++r)
    EXPECT_EQ(faulty.recv[r], clean.recv[r]);
}
