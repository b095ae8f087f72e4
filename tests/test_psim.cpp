// Virtual machine tests: message fabric, scheduler, NUMA/time model.
#include <gtest/gtest.h>

#include <set>

#include "tests/test_util.h"

#if defined(__SANITIZE_ADDRESS__)
#define PARAD_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PARAD_TEST_ASAN 1
#endif
#endif
#ifdef PARAD_TEST_ASAN
#include <sanitizer/asan_interface.h>
#include <sys/mman.h>
#endif

using namespace parad;
using namespace parad::test;
using ir::Type;

namespace {

// Ring shift: each rank sends its buffer to (rank+1)%size with Isend/Irecv.
ir::Module buildRing(i64 n) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "ring", {Type::PtrF64, Type::PtrF64});
  auto sendbuf = b.param(0), recvbuf = b.param(1);
  auto rank = b.mpRank();
  auto size = b.mpSize();
  auto right = b.irem(b.iadd(rank, b.constI(1)), size);
  auto left = b.irem(b.iadd(b.isub(rank, b.constI(1)), size), size);
  auto nn = b.constI(n);
  auto tag = b.constI(7);
  auto r0 = b.mpIrecv(recvbuf, nn, left, tag);
  auto s0 = b.mpIsend(sendbuf, nn, right, tag);
  b.mpWait(r0);
  b.mpWait(s0);
  b.ret();
  b.finish();
  ir::verify(mod);
  return mod;
}

}  // namespace

TEST(Psim, RingExchange) {
  const int R = 8;
  const i64 N = 16;
  ir::Module mod = buildRing(N);
  psim::Machine m;
  std::vector<psim::RtPtr> sendb(R), recvb(R);
  for (int r = 0; r < R; ++r) {
    sendb[(std::size_t)r] = m.mem().alloc(Type::F64, N, 0);
    recvb[(std::size_t)r] = m.mem().alloc(Type::F64, N, 0);
    for (i64 k = 0; k < N; ++k)
      m.mem().atF(sendb[(std::size_t)r], k) = 100.0 * r + static_cast<double>(k);
  }
  m.run({R, 1}, [&](psim::RankEnv& env) {
    interp::Interpreter it(mod, m);
    it.run(mod.get("ring"),
           {interp::RtVal::P(sendb[(std::size_t)env.rank]),
            interp::RtVal::P(recvb[(std::size_t)env.rank])},
           env);
  });
  for (int r = 0; r < R; ++r) {
    int left = (r + R - 1) % R;
    for (i64 k = 0; k < N; ++k)
      EXPECT_DOUBLE_EQ(m.mem().atF(recvb[(std::size_t)r], k),
                       100.0 * left + static_cast<double>(k));
  }
  EXPECT_EQ(m.stats().messages, static_cast<std::uint64_t>(R));
}

TEST(Psim, BlockingSendRecvPair) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "pair", {Type::PtrF64});
  auto buf = b.param(0);
  auto rank = b.mpRank();
  b.emitIf(
      b.ieq(rank, b.constI(0)),
      [&] { b.mpSend(buf, b.constI(4), b.constI(1), b.constI(3)); },
      [&] { b.mpRecv(buf, b.constI(4), b.constI(0), b.constI(3)); });
  b.ret();
  b.finish();
  ir::verify(mod);
  psim::Machine m;
  auto b0 = makeF64(m, {1, 2, 3, 4});
  auto b1 = makeF64(m, {0, 0, 0, 0});
  psim::RtPtr bufs[2] = {b0, b1};
  m.run({2, 1}, [&](psim::RankEnv& env) {
    interp::Interpreter it(mod, m);
    it.run(mod.get("pair"), {interp::RtVal::P(bufs[env.rank])}, env);
  });
  EXPECT_DOUBLE_EQ(m.mem().atF(b1, 3), 4.0);
}

TEST(Psim, AllreduceSumMinWithWinners) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "ar", {Type::PtrF64, Type::PtrF64, Type::PtrI64});
  auto send = b.param(0), recv = b.param(1), win = b.param(2);
  b.mpAllreduce(send, recv, b.constI(2), ir::ReduceKind::Min, win);
  b.ret();
  b.finish();
  ir::verify(mod);
  psim::Machine m;
  const int R = 4;
  std::vector<psim::RtPtr> sp(R), rp(R), wp(R);
  for (int r = 0; r < R; ++r) {
    sp[(std::size_t)r] = makeF64(m, {10.0 - r, 5.0 + r});
    rp[(std::size_t)r] = makeF64(m, {0, 0});
    wp[(std::size_t)r] = m.mem().alloc(Type::I64, 2, 0);
  }
  m.run({R, 1}, [&](psim::RankEnv& env) {
    interp::Interpreter it(mod, m);
    it.run(mod.get("ar"),
           {interp::RtVal::P(sp[(std::size_t)env.rank]),
            interp::RtVal::P(rp[(std::size_t)env.rank]),
            interp::RtVal::P(wp[(std::size_t)env.rank])},
           env);
  });
  for (int r = 0; r < R; ++r) {
    EXPECT_DOUBLE_EQ(m.mem().atF(rp[(std::size_t)r], 0), 10.0 - (R - 1));
    EXPECT_DOUBLE_EQ(m.mem().atF(rp[(std::size_t)r], 1), 5.0);
    EXPECT_EQ(m.mem().atI(wp[(std::size_t)r], 0), R - 1);
    EXPECT_EQ(m.mem().atI(wp[(std::size_t)r], 1), 0);
  }
}

TEST(Psim, DeadlockDetected) {
  // Both ranks recv first: classic deadlock; must throw, not hang.
  ir::Module mod;
  ir::FunctionBuilder b(mod, "dl", {Type::PtrF64});
  auto buf = b.param(0);
  b.mpRecv(buf, b.constI(1), b.irem(b.iadd(b.mpRank(), b.constI(1)), b.mpSize()),
           b.constI(0));
  b.ret();
  b.finish();
  ir::verify(mod);
  psim::Machine m;
  auto b0 = makeF64(m, {0});
  auto b1 = makeF64(m, {0});
  psim::RtPtr bufs[2] = {b0, b1};
  EXPECT_THROW(m.run({2, 1},
                     [&](psim::RankEnv& env) {
                       interp::Interpreter it(mod, m);
                       it.run(mod.get("dl"), {interp::RtVal::P(bufs[env.rank])},
                              env);
                     }),
               parad::Error);
}

TEST(Psim, MpBarrierAlignsClocks) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "bar", {});
  // Rank 0 does extra work before the barrier.
  b.emitIf(b.ieq(b.mpRank(), b.constI(0)), [&] {
    auto acc = b.alloc(b.constI(1), Type::F64);
    b.store(acc, b.constI(0), b.constF(1));
    b.emitFor(b.constI(0), b.constI(5000), [&](ir::Value) {
      auto v = b.load(acc, b.constI(0));
      b.store(acc, b.constI(0), b.sin_(v));
    });
  });
  b.mpBarrier();
  b.ret();
  b.finish();
  ir::verify(mod);
  psim::Machine m;
  std::vector<double> ends(2, 0);
  m.run({2, 1}, [&](psim::RankEnv& env) {
    interp::Interpreter it(mod, m);
    it.run(mod.get("bar"), {}, env);
    ends[(std::size_t)env.rank] = env.main.clock;
  });
  EXPECT_NEAR(ends[0], ends[1], 1.0);
  EXPECT_GT(ends[1], 5000 * 12.0);  // rank 1 waited for rank 0's work
}

TEST(Psim, RemoteMessagesCostMore) {
  // Same-socket vs cross-socket pair latency via placement: with 1 thread per
  // rank, ranks 0 and 1 share socket 0; ranks 0 and 32+ would cross. We check
  // the model directly through Machine placement.
  psim::Machine m;
  EXPECT_EQ(m.socketOfCore(0), 0);
  EXPECT_EQ(m.socketOfCore(31), 0);
  EXPECT_EQ(m.socketOfCore(32), 1);
  EXPECT_EQ(m.socketOfCore(63), 1);
}

TEST(Psim, MemoryStatsTracksCacheAllocs) {
  psim::Machine m;
  psim::RtPtr p = m.mem().alloc(Type::F64, 100, 0, /*isCache=*/true);
  (void)p;
  EXPECT_EQ(m.stats().cacheBytes, 800u);
  EXPECT_EQ(m.stats().allocBytes, 800u);
}

TEST(Psim, FreedObjectTraps) {
  psim::Machine m;
  psim::RtPtr p = m.mem().alloc(Type::F64, 4, 0);
  m.mem().free(p);
  EXPECT_THROW(m.mem().atF(p, 0), parad::Error);
}

TEST(Psim, DeadlockReportNamesBlockedOps) {
  // The deadlock must surface as a VmError whose FailureReport says, per
  // rank, what each one was blocked on and the virtual clock it parked
  // with. Rank r runs 10*(r+1) fadds first, so the two clocks differ; the
  // report is the same on every engine.
  ir::Module mod;
  ir::FunctionBuilder b(mod, "dl", {Type::PtrF64});
  auto buf = b.param(0);
  auto zero = b.constI(0);
  b.emitFor(zero, b.imul(b.iadd(b.mpRank(), b.constI(1)), b.constI(10)),
            [&](ir::Value) {
              b.store(buf, zero, b.fadd(b.load(buf, zero), b.constF(1)));
            });
  b.mpRecv(buf, b.constI(1), b.irem(b.iadd(b.mpRank(), b.constI(1)), b.mpSize()),
           b.constI(9));
  b.ret();
  b.finish();
  ir::verify(mod);
  for (const char* engine : {"exec", "tree", "codegen"}) {
    SCOPED_TRACE(engine);
    psim::Machine m;
    auto b0 = makeF64(m, {0});
    auto b1 = makeF64(m, {0});
    psim::RtPtr bufs[2] = {b0, b1};
    try {
      m.run({2, 1}, [&](psim::RankEnv& env) {
        interp::Interpreter it(mod, m, engine);
        it.run(mod.get("dl"), {interp::RtVal::P(bufs[env.rank])}, env);
      });
      FAIL() << "expected a VmError";
    } catch (const psim::VmError& e) {
      const psim::FailureReport& fr = e.report();
      EXPECT_EQ(fr.kind, psim::FailureReport::Kind::Deadlock);
      ASSERT_EQ(fr.ranks.size(), 2u);
      EXPECT_EQ(fr.ranks[0].rank, 0);
      EXPECT_EQ(fr.ranks[0].op, "wait");
      EXPECT_EQ(fr.ranks[0].peer, 1);
      EXPECT_EQ(fr.ranks[0].tag, 9);
      EXPECT_EQ(fr.ranks[1].peer, 0);
      EXPECT_LT(fr.ranks[0].clock, fr.ranks[1].clock);
      EXPECT_EQ(std::string(e.what()),
                "virtual machine deadlock: message-passing deadlock: no rank "
                "can make progress\n"
                "  rank 0 @ 107.9ns: wait (recv from 1 tag 9 count 1) req=0, "
                "inbox depth 0\n"
                "  rank 1 @ 153.4ns: wait (recv from 0 tag 9 count 1) req=1, "
                "inbox depth 0");
    }
  }
}

TEST(Psim, BarrierVsAllreduceMismatchIsDiagnosed) {
  // Rank 0 enters a barrier while rank 1 enters an allreduce: a collective
  // mismatch, reported with both collectives named instead of a deadlock.
  ir::Module mod;
  ir::FunctionBuilder b(mod, "mm", {Type::PtrF64, Type::PtrF64});
  auto s = b.param(0), r = b.param(1);
  b.emitIf(
      b.ieq(b.mpRank(), b.constI(0)), [&] { b.mpBarrier(); },
      [&] { b.mpAllreduce(s, r, b.constI(1), ir::ReduceKind::Sum, {}); });
  b.ret();
  b.finish();
  ir::verify(mod);
  psim::Machine m;
  psim::RtPtr sp[2] = {makeF64(m, {1}), makeF64(m, {2})};
  psim::RtPtr rp[2] = {makeF64(m, {0}), makeF64(m, {0})};
  try {
    m.run({2, 1}, [&](psim::RankEnv& env) {
      interp::Interpreter it(mod, m);
      it.run(mod.get("mm"),
             {interp::RtVal::P(sp[env.rank]), interp::RtVal::P(rp[env.rank])},
             env);
    });
    FAIL() << "expected a VmError";
  } catch (const psim::VmError& e) {
    EXPECT_EQ(e.report().kind, psim::FailureReport::Kind::CollectiveMismatch);
    std::string msg = e.what();
    EXPECT_NE(msg.find("collective mismatch"), std::string::npos) << msg;
    EXPECT_NE(msg.find("barrier"), std::string::npos) << msg;
    EXPECT_NE(msg.find("allreduce"), std::string::npos) << msg;
    // Rank 0 parked in the barrier; rank 1 detected the mismatch. Both
    // report the clock they had, not the one they started with.
    for (const psim::RankSnapshot& r : e.report().ranks)
      EXPECT_GT(r.clock, 0.0) << "rank " << r.rank << "\n" << msg;
  }
}

TEST(Psim, AllreduceCountMismatchIsDiagnosed) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "mm", {Type::PtrF64, Type::PtrF64});
  auto s = b.param(0), r = b.param(1);
  b.emitIf(
      b.ieq(b.mpRank(), b.constI(0)),
      [&] { b.mpAllreduce(s, r, b.constI(2), ir::ReduceKind::Sum, {}); },
      [&] { b.mpAllreduce(s, r, b.constI(1), ir::ReduceKind::Sum, {}); });
  b.ret();
  b.finish();
  ir::verify(mod);
  psim::Machine m;
  psim::RtPtr sp[2] = {makeF64(m, {1, 1}), makeF64(m, {2, 2})};
  psim::RtPtr rp[2] = {makeF64(m, {0, 0}), makeF64(m, {0, 0})};
  try {
    m.run({2, 1}, [&](psim::RankEnv& env) {
      interp::Interpreter it(mod, m);
      it.run(mod.get("mm"),
             {interp::RtVal::P(sp[env.rank]), interp::RtVal::P(rp[env.rank])},
             env);
    });
    FAIL() << "expected a VmError";
  } catch (const psim::VmError& e) {
    EXPECT_EQ(e.report().kind, psim::FailureReport::Kind::CollectiveMismatch);
    std::string msg = e.what();
    EXPECT_NE(msg.find("count 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("count 1"), std::string::npos) << msg;
  }
}

TEST(Psim, AllreduceKindMismatchIsDiagnosed) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "mm", {Type::PtrF64, Type::PtrF64});
  auto s = b.param(0), r = b.param(1);
  b.emitIf(
      b.ieq(b.mpRank(), b.constI(0)),
      [&] { b.mpAllreduce(s, r, b.constI(1), ir::ReduceKind::Sum, {}); },
      [&] { b.mpAllreduce(s, r, b.constI(1), ir::ReduceKind::Max, {}); });
  b.ret();
  b.finish();
  ir::verify(mod);
  psim::Machine m;
  psim::RtPtr sp[2] = {makeF64(m, {1}), makeF64(m, {2})};
  psim::RtPtr rp[2] = {makeF64(m, {0}), makeF64(m, {0})};
  try {
    m.run({2, 1}, [&](psim::RankEnv& env) {
      interp::Interpreter it(mod, m);
      it.run(mod.get("mm"),
             {interp::RtVal::P(sp[env.rank]), interp::RtVal::P(rp[env.rank])},
             env);
    });
    FAIL() << "expected a VmError";
  } catch (const psim::VmError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("sum"), std::string::npos) << msg;
    EXPECT_NE(msg.find("max"), std::string::npos) << msg;
  }
}

TEST(Psim, IrecvRejectsNegativeCountAndOverflow) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "bad", {Type::PtrF64, Type::I64});
  auto buf = b.param(0);
  auto req = b.mpIrecv(buf, b.param(1), b.constI(0), b.constI(0));
  b.mpWait(req);
  b.ret();
  b.finish();
  ir::verify(mod);
  for (i64 count : {i64(-1), i64(99)}) {
    psim::Machine m;
    auto buf = makeF64(m, {0, 0, 0, 0});
    try {
      m.run({1, 1}, [&](psim::RankEnv& env) {
        interp::Interpreter it(mod, m);
        it.run(mod.get("bad"),
               {interp::RtVal::P(buf), interp::RtVal::I(count)}, env);
      });
      FAIL() << "expected an Error for count " << count;
    } catch (const parad::Error& e) {
      std::string msg = e.what();
      if (count < 0)
        EXPECT_NE(msg.find("negative"), std::string::npos) << msg;
      else
        EXPECT_NE(msg.find("too small"), std::string::npos) << msg;
    }
  }
}

// ---------------------------------------------------------------------------
// Scheduler: ranks are fibers on one carrier thread per run.
// ---------------------------------------------------------------------------

namespace {

// Counts its destructions: proves a parked rank's frames were unwound.
struct UnwindProbe {
  int* count;
  ~UnwindProbe() { ++*count; }
};

}  // namespace

TEST(Psim, FailedRunUnwindsEveryBlockedRank) {
  // Ranks 0..R-2 park in block() with a live RAII object on their stacks;
  // the last rank then fails. Every parked rank must rethrow from block()
  // and run its destructors, for an application error (the others see the
  // consequent deadlock) and for a coordinated abortAll alike.
  const int R = 6;
  auto clock = [](int) { return 0.0; };
  for (bool viaAbort : {false, true}) {
    SCOPED_TRACE(viaAbort ? "abortAll" : "app error");
    psim::CoopScheduler s;
    int unwound = 0, rethrown = 0;
    auto body = [&](int r) {
      UnwindProbe probe{&unwound};
      if (r < R - 1) {
        try {
          s.block(r);
        } catch (...) {
          ++rethrown;
          throw;
        }
        FAIL() << "rank " << r << " resumed without a wake";
      }
      auto e = std::make_exception_ptr(Error("rank " + std::to_string(r) +
                                             " failed"));
      if (viaAbort) s.abortAll(e);
      std::rethrow_exception(e);
    };
    try {
      s.run(R, body, clock);
      FAIL() << "expected the failing rank's error";
    } catch (const psim::VmError& e) {
      FAIL() << "a consequent deadlock report won: " << e.what();
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("rank 5 failed"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(rethrown, R - 1);
    EXPECT_EQ(unwound, R);
  }
}

TEST(Psim, MachineReusableAfterFailedMultiRankRun) {
  // A 4-rank run where rank 3 throws while ranks 0..2 wait on receives that
  // never come; the same Machine then runs a clean exchange correctly.
  const i64 N = 4;
  psim::Machine m;
  std::vector<psim::RtPtr> recv(4);
  for (auto& p : recv) p = m.mem().alloc(Type::F64, N, 0);
  EXPECT_THROW(m.run({4, 1},
                     [&](psim::RankEnv& env) {
                       if (env.rank == 3) fail("rank 3 gives up");
                       m.fabric()->recv(env.rank, env.main,
                                        recv[(std::size_t)env.rank], N,
                                        /*src=*/3, /*tag=*/1);
                     }),
               Error);
  const std::uint64_t msgsBefore = m.stats().messages;
  std::vector<double> payload = {1, 2, 3, 4};
  double makespan = m.run({4, 1}, [&](psim::RankEnv& env) {
    psim::Fabric& f = *m.fabric();
    if (env.rank == 3) {
      for (int d = 0; d < 3; ++d)
        f.send(3, env.main, payload.data(), N, d, /*tag=*/1);
    } else {
      f.recv(env.rank, env.main, recv[(std::size_t)env.rank], N, 3, 1);
    }
  });
  EXPECT_GT(makespan, 0.0);
  EXPECT_EQ(m.stats().messages - msgsBefore, 3u);
  for (int r = 0; r < 3; ++r)
    EXPECT_EQ(readF64(m, recv[(std::size_t)r], N), payload);
}

TEST(Psim, RunIdUniqueAndZeroOutsideRun) {
  // runId() names the active run: 0 outside one (also after a run that
  // threw), the same for every rank of a run, and never reused across runs
  // or Machines.
  psim::Machine m, other;
  EXPECT_EQ(m.runId(), 0u);
  auto idOf = [](psim::Machine& mm, bool throws) {
    std::vector<std::uint64_t> seen(4, 0);
    try {
      mm.run({4, 1}, [&](psim::RankEnv& env) {
        seen[static_cast<std::size_t>(env.rank)] = mm.runId();
        if (throws && env.rank == 3) fail("rank 3 gives up");
      });
    } catch (const Error&) {
      EXPECT_TRUE(throws);
    }
    for (std::uint64_t id : seen) EXPECT_EQ(id, seen[0]);
    EXPECT_EQ(mm.runId(), 0u);
    return seen[0];
  };
  std::uint64_t a = idOf(m, false);
  std::uint64_t b = idOf(m, true);
  std::uint64_t c = idOf(m, false);
  std::uint64_t d = idOf(other, false);
  EXPECT_NE(a, 0u);
  std::set<std::uint64_t> ids = {a, b, c, d};
  EXPECT_EQ(ids.size(), 4u);
}

TEST(Psim, DeepRecursionFitsOnFiberStacks) {
  // Both ranks of a 2-rank run recurse to the default call-depth limit and
  // park in a barrier at the bottom, so both fiber stacks are at full depth
  // at once.
  ir::Module mod;
  {
    // Placeholder so the self-recursive call below can resolve its return
    // type while "rec" is still being (re)built.
    ir::FunctionBuilder b(mod, "rec", {Type::I64}, Type::I64);
    b.ret(b.constI(0));
    b.finish();
  }
  ir::FunctionBuilder b(mod, "rec", {Type::I64}, Type::I64);
  auto n = b.param(0);
  auto out = b.alloc(b.constI(1), Type::I64);
  b.emitIf(
      b.igt(n, b.constI(0)),
      [&] {
        auto r = b.call("rec", {b.isub(n, b.constI(1))});
        b.store(out, b.constI(0), b.iadd(r, b.constI(1)));
      },
      [&] {
        b.mpBarrier();
        b.store(out, b.constI(0), b.constI(0));
      });
  b.ret(b.load(out, b.constI(0)));
  b.finish();
  ir::verify(mod);

  for (const char* e : {"exec", "tree", "codegen"}) {
    SCOPED_TRACE(e);
    psim::Machine m;
    const i64 depth = m.config().maxCallDepth - 1;  // deepest admitted
    std::vector<i64> got(2, -1);
    m.run({2, 1}, [&](psim::RankEnv& env) {
      interp::Interpreter it(mod, m, e);
      got[(std::size_t)env.rank] =
          it.run(mod.get("rec"), {interp::RtVal::I(depth)}, env).u.i;
    });
    EXPECT_EQ(got, std::vector<i64>(2, depth));
    // One level deeper trips the limit: the run above reached it.
    try {
      m.run({2, 1}, [&](psim::RankEnv& env) {
        interp::Interpreter it(mod, m, e);
        it.run(mod.get("rec"), {interp::RtVal::I(depth + 1)}, env);
      });
      FAIL() << "expected the call-depth limit to fire";
    } catch (const Error& ex) {
      EXPECT_NE(std::string(ex.what()).find("call depth limit exceeded"),
                std::string::npos)
          << ex.what();
    }
  }
}

TEST(Psim, RingExchangeAt4096Ranks) {
  // A nonblocking ring over 4096 ranks: every value arrives, and the
  // scheduling trace (picks and per-rank wakes) is exactly the one the
  // (clock, rank) pick order implies.
  const int R = 4096;
  const i64 N = 2;
  psim::Machine m;
  std::vector<psim::RtPtr> recv(R);
  for (auto& p : recv) p = m.mem().alloc(Type::F64, N, 0);
  m.run({R, 1}, [&](psim::RankEnv& env) {
    psim::Fabric& f = *m.fabric();
    const int r = env.rank;
    double payload[N] = {static_cast<double>(r), -static_cast<double>(r)};
    psim::ReqId rq = f.irecv(r, env.main, recv[(std::size_t)r], N,
                             (r + R - 1) % R, /*tag=*/7);
    psim::ReqId sq = f.isend(r, env.main, payload, N, (r + 1) % R, 7);
    f.wait(r, env.main, rq);
    f.wait(r, env.main, sq);
  });
  for (int r = 0; r < R; ++r) {
    const double left = static_cast<double>((r + R - 1) % R);
    ASSERT_EQ(readF64(m, recv[(std::size_t)r], N),
              (std::vector<double>{left, -left}))
        << "rank " << r;
  }
  EXPECT_EQ(m.stats().messages, static_cast<std::uint64_t>(R));
  const psim::CoopScheduler::Telemetry& t = m.sched().lastRunTelemetry();
  // Ranks run in index order; each finds its left neighbour's message
  // already buffered except rank 0, which parks until rank R-1 sends: one
  // pick per rank plus one resume of rank 0.
  EXPECT_EQ(t.steps, static_cast<std::uint64_t>(R + 1));
  ASSERT_EQ(t.wakes.size(), static_cast<std::size_t>(R));
  EXPECT_EQ(t.wakes[0], 1u);
  for (int r = 1; r < R; ++r)
    EXPECT_EQ(t.wakes[(std::size_t)r], 0u) << "rank " << r;
}

TEST(Psim, BlockAndWakeOutsideARunAreDiagnosed) {
  psim::CoopScheduler s;
  EXPECT_THROW(s.block(0), Error);
  EXPECT_THROW(s.wake(0), Error);
  EXPECT_THROW(s.abortAll(nullptr), Error);
}

TEST(Psim, BlockInsideCatchHandlerIsRejected) {
  // Fibers share one thread's caught-exception stack, so a rank may not
  // park inside a catch handler.
  psim::CoopScheduler s;
  EXPECT_THROW(s.run(
                   2,
                   [&](int r) {
                     try {
                       throw std::runtime_error("handled");
                     } catch (const std::runtime_error&) {
                       s.block(r);
                     }
                   },
                   [](int) { return 0.0; }),
               Error);
}

#ifdef PARAD_TEST_ASAN
TEST(Psim, FinishedFiberStacksLeaveNoPoison) {
  // A finished fiber abandons its last frames; their ASan redzones must not
  // outlive the unmapped stack, or whatever maps those addresses next
  // (here: fresh mappings of a fiber stack's size) reads as poisoned.
  const int R = 16;
  psim::Machine m;
  std::vector<psim::RtPtr> recv(R);
  for (auto& p : recv) p = m.mem().alloc(Type::F64, 1, 0);
  std::vector<double> one(1, 1.0);
  auto body = [&](psim::RankEnv& env) {
    m.fabric()->allreduce(env.rank, env.main, ir::ReduceKind::Sum, one.data(),
                          recv[(std::size_t)env.rank], 1);
  };
  m.run({R, 1}, body);
  EXPECT_THROW(m.run({R, 1},
                     [&](psim::RankEnv& env) {
                       if (env.rank == R - 1) fail("rank gives up");
                       body(env);
                     }),
               Error);
  const std::size_t bytes = (std::size_t{8} << 20) + 4096;
  std::vector<void*> maps;
  for (int i = 0; i < 2 * R; ++i) {
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    ASSERT_NE(p, MAP_FAILED);
    maps.push_back(p);
    EXPECT_EQ(__asan_region_is_poisoned(p, bytes), nullptr) << "mapping " << i;
  }
  for (void* p : maps) munmap(p, bytes);
}
#endif
