// The machine runtime under every engine (DESIGN.md §9): the one place that
// turns an instruction's meaning into psim calls, as libomp and MPI are the
// one runtime every program of the paper calls.
//
// A Runtime is the machine side of one rank's run. It owns the per-rank
// state (the current virtual thread, the task-worker pool, the dispatch
// count, the call frames' pool), the run's prologue and epilogue, the
// range-exit probe, every memory op with its one bounds check, spawn/sync,
// the message-passing ops with their one send-buffer check, and thread
// teams (fork, parallel_for, workshare chunks). The engines keep only how
// they walk instructions: exec and codegen dispatch lowered ranges, the
// tree walker recurses over IR regions, cotape tapes its forward sweep. Each
// decodes an instruction's operands and calls the runtime, so every engine
// charges, mutates and fails identically by construction.
//
// Ops that exec keeps in its register-resident clock (load, store, the GC
// intrinsics) return their undilated charge instead of advancing a clock;
// the caller adds it (`clk += charge * dilation`, WorkerCtx::advance's
// expression). Every other op advances the current thread's clock itself.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/interp/interp.h"

namespace parad::interp {

/// One virtual thread of a rank.
struct ThreadState {
  psim::WorkerCtx w;
  int tid = 0;
  int nthreads = 1;
};

struct TaskRec {
  double endTime = 0;
};

using Frame = std::vector<RtVal>;
enum class Flow { Normal, Return };

class Runtime {
 public:
  /// Run prologue: the rank's main thread starts from `env.main`, and the
  /// task-worker pool has MachineConfig::taskWorkers workers (the rank's
  /// thread count when 0).
  Runtime(psim::Machine& machine, psim::RankEnv& env);
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Run epilogue: copies the main thread back into `env.main`, adds the
  /// dispatch count to RunStats::instsExecuted and returns the return value.
  /// A rank that throws never gets here: nothing reads a failing rank's
  /// clock or count.
  RtVal finish();

  psim::Machine& machine;
  psim::RankEnv& env;
  const psim::CostTable ct;  // the ops.def cost fields of this machine

  // Per-rank state.
  ThreadState main;               // the rank's main thread
  ThreadState* ts = &main;        // the current virtual thread
  std::vector<TaskRec> tasks;
  std::vector<double> taskWorkerFree;
  std::vector<Frame> framePool;   // recycled call frames (capacity reuse)
  RtVal retVal{};
  bool yield = false;
  int callDepth = 0;
  std::uint64_t insts = 0;  // dispatched instructions (flushed by finish())

  // ---- Range-exit probe ----------------------------------------------------
  /// Kill probe, then the dispatched-instruction watchdog, then the virtual
  /// time watchdog. The kill probe runs on the main thread only: team setup
  /// adjusts worker counts non-RAII, so unwinding a crash from inside a
  /// parallel region would leak them, and the main thread is always at a
  /// safe unwind point. It runs first so a scheduled crash beats a watchdog
  /// trip. The time bound comes from the machine (config plus checkpoint-
  /// recovery slack), not the raw config.
  void probe() {
    const double clock = ts->w.clock;
    if (ts == &main) machine.checkKill(env.rank, clock);
    std::uint64_t wd = machine.config().watchdogInsts;
    if (wd != 0 && insts > wd) machine.failWatchdog(env.rank, insts, clock);
    double tb = machine.watchdogTimeBound();
    if (tb > 0 && clock > tb) machine.failWatchdogTime(env.rank, clock);
  }

  // ---- Memory --------------------------------------------------------------
  /// load: element `idx` of the object `p` points into, into the member of
  /// `dst` the object's element type selects. Returns the 8-byte charge.
  double load(psim::RtPtr p, i64 idx, RtVal& dst) {
    psim::MemObject& o = mem_.get(p);
    double charge = machine.memCharge8(ts->w, o.homeSocket);
    std::size_t k = o.index(p.off + idx);
    switch (o.elem) {
      case ir::Type::F64: dst.u.f = o.f[k]; break;
      case ir::Type::I64: dst.u.i = o.i[k]; break;
      case ir::Type::PtrF64: dst.u.p = o.p[k]; break;
      default: PARAD_UNREACHABLE("bad load elem");
    }
    return charge;
  }
  /// store: the same element, from `v`. Returns the 8-byte charge.
  double store(psim::RtPtr p, i64 idx, const RtVal& v) {
    psim::MemObject& o = mem_.get(p);
    double charge = machine.memCharge8(ts->w, o.homeSocket);
    std::size_t k = o.index(p.off + idx);
    switch (o.elem) {
      case ir::Type::F64: o.f[k] = v.u.f; break;
      case ir::Type::I64: o.i[k] = v.u.i; break;
      case ir::Type::PtrF64: o.p[k] = v.u.p; break;
      default: PARAD_UNREACHABLE("bad store elem");
    }
    return charge;
  }
  /// gc.preserve.begin / gc.preserve.end: a GC-safepoint charge only.
  double gcPreserve() const { return ct.gcCost; }

  /// A `bytes`-byte access to memory homed on `homeSocket`, charged to the
  /// current thread.
  void chargeMem(int homeSocket, i64 bytes) {
    machine.chargeMem(ts->w, homeSocket, bytes);
  }

  /// alloc: `count` zeroed elements homed on the current thread's socket;
  /// `flags` are the instruction's ir::InstFlags (AD cache/shadow origin).
  psim::RtPtr alloc(ir::Type elem, i64 count, unsigned flags);
  void free(psim::RtPtr p);
  /// atomic.add on an f64 element, with the atomic-contention charge.
  void atomicAdd(psim::RtPtr p, i64 idx, double v);
  /// memset0 of `count` elements from `p`: the whole range is checked
  /// before anything is written, so a failing memset writes nothing.
  void memset0(psim::RtPtr p, i64 count);
  /// jl.alloc.array: a GC'd boxed array, a 1-slot descriptor object
  /// pointing at `count` f64 elements. Returns the descriptor.
  psim::RtPtr allocBoxedArray(i64 count);

  // ---- Message passing (on the current thread's worker) --------------------
  /// The host storage of a send buffer of `count` f64 elements at `p`,
  /// checked to lie inside its object; `op` names the op in the error
  /// ("<op> buffer out of bounds").
  const double* sendBuffer(psim::RtPtr p, i64 count, const char* op);
  /// mp.isend / mp.send of `count` f64 elements at `buf` (checked).
  psim::ReqId isend(psim::RtPtr buf, i64 count, i64 dest, i64 tag);
  void send(psim::RtPtr buf, i64 count, i64 dest, i64 tag);
  /// A blocking send from host storage the caller owns.
  void send(const double* data, i64 count, i64 dest, i64 tag);
  psim::ReqId irecv(psim::RtPtr buf, i64 count, i64 src, i64 tag);
  void recv(psim::RtPtr buf, i64 count, i64 src, i64 tag);
  void wait(psim::ReqId id);
  /// mp.allreduce of `count` f64 elements at `sendBuf` (checked) into
  /// `recvBuf`. For min and max, `winnersBuf` (the op's optional i64
  /// operand), when non-null, receives each element's winning rank.
  void allreduce(psim::RtPtr sendBuf, psim::RtPtr recvBuf, i64 count,
                 ir::ReduceKind kind, const psim::RtPtr* winnersBuf);
  /// The same from host storage (checked by sendBuffer, or the caller's
  /// own); the winning ranks go to `winners`, when non-null.
  void allreduce(const double* data, psim::RtPtr recvBuf, i64 count,
                 ir::ReduceKind kind, std::vector<i64>* winners);
  void barrier();

  // ---- Tasks ---------------------------------------------------------------
  /// spawn: runs `body()` eagerly (serial elision, valid for race-free
  /// programs) as a task list-scheduled onto the earliest-free virtual task
  /// worker. Returns the task id sync() takes.
  template <class Body>
  std::int32_t spawn(Body&& body) {
    ts->w.advance(ct.spawnCost);
    std::size_t best = 0;
    for (std::size_t k = 1; k < taskWorkerFree.size(); ++k)
      if (taskWorkerFree[k] < taskWorkerFree[best]) best = k;
    ThreadState task;
    task.w.clock = std::max(ts->w.clock, taskWorkerFree[best]);
    task.w.core = machine.coreOfRankThread(env.rank, static_cast<int>(best));
    task.w.socket = machine.socketOfCore(task.w.core);
    task.w.dilation = ts->w.dilation;
    task.tid = static_cast<int>(best);
    task.nthreads = static_cast<int>(taskWorkerFree.size());
    ThreadState* parent = ts;
    ts = &task;
    body();
    ts = parent;
    taskWorkerFree[best] = task.w.clock;
    tasks.push_back(TaskRec{task.w.clock});
    return static_cast<std::int32_t>(tasks.size() - 1);
  }
  void sync(std::int32_t task);

  // ---- Calls ---------------------------------------------------------------
  /// A call's machine side, around the engine running the callee.
  /// enterCall checks the depth limit, charges the call and clears the
  /// return value, returning the caller's; leaveCall puts the caller's back
  /// and returns the callee's.
  RtVal enterCall() {
    PARAD_CHECK(++callDepth < machine.config().maxCallDepth,
                "call depth limit exceeded (recursion?)");
    ts->w.advance(ct.callCost);
    RtVal callerRet = retVal;
    retVal = RtVal{};
    return callerRet;
  }
  RtVal leaveCall(const RtVal& callerRet) {
    RtVal out = retVal;
    retVal = callerRet;
    --callDepth;
    return out;
  }

  // ---- Thread teams --------------------------------------------------------
  /// num.threads: the team size inside a team, the default team size
  /// outside (used e.g. to size thread-indexed AD caches before a fork).
  int numThreadsDefault() const {
    return ts->nthreads > 1 ? ts->nthreads : env.threadsPerRank;
  }
  /// A fork's team size: the requested count, or the default when <= 0.
  int teamSize(i64 requested) const {
    return requested > 0 ? static_cast<int>(requested) : env.threadsPerRank;
  }
  /// fork: a team of `n` threads runs `segments` barrier-delimited segments,
  /// thread by thread within a segment; `runSegment(si, t)` runs segment si
  /// as thread t (the current thread). Between segments a barrier aligns
  /// the team's clocks; then the team joins the forking thread.
  template <class RunSegment>
  void fork(int n, int segments, RunSegment&& runSegment) {
    Team team = openTeam(n);
    std::vector<ThreadState> threads(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t)
      threads[static_cast<std::size_t>(t)] = teamThread(team, t);
    const psim::CostModel& c = machine.config().cost;
    for (int si = 0; si < segments; ++si) {
      for (int t = 0; t < n; ++t) {
        ts = &threads[static_cast<std::size_t>(t)];
        runSegment(si, t);
      }
      if (si + 1 == segments) break;
      double latest = 0;
      for (const ThreadState& th : threads)
        latest = std::max(latest, th.w.clock);
      latest += c.barrierBase + c.barrierPerThread * n;
      for (ThreadState& th : threads) th.w.clock = latest;
    }
    for (const ThreadState& th : threads) leaveTeam(team, th);
    closeTeam(team);
  }

  /// parallel_for over [lo, hi): statically chunked over a team of the
  /// rank's threads, or serially on the current thread when nested inside
  /// a team or when the rank has one thread. `runIter(i)` runs iteration i
  /// (its loop charge already made).
  template <class RunIter>
  void parallelFor(i64 lo, i64 hi, RunIter&& runIter) {
    if (hi <= lo) return;
    if (ts->nthreads > 1 || env.threadsPerRank == 1) {
      for (i64 i = lo; i < hi; ++i) {
        ts->w.advance(ct.loopIter);
        runIter(i);
      }
      return;
    }
    const int n = env.threadsPerRank;
    Team team = openTeam(n);
    for (int t = 0; t < n; ++t) {
      ThreadState th = teamThread(team, t);
      ts = &th;
      Chunk ch = chunk(lo, hi, t, n);
      for (i64 i = ch.begin; i < ch.end; ++i) {
        th.w.advance(ct.loopIter);
        runIter(i);
      }
      leaveTeam(team, th);
    }
    closeTeam(team);
  }

  /// workshare over [lo, hi) inside a team: the current thread's static
  /// chunk, in reverse order when `reversed`.
  template <class RunIter>
  void workshare(i64 lo, i64 hi, bool reversed, RunIter&& runIter) {
    ts->w.advance(ct.workshareInit);
    if (hi <= lo) return;
    Chunk ch = chunk(lo, hi, ts->tid, ts->nthreads);
    for (i64 k = ch.begin; k < ch.end; ++k) {
      ts->w.advance(ct.loopIter);
      runIter(reversed ? ch.end - 1 - (k - ch.begin) : k);
    }
  }

 private:
  /// Static chunk `t` of `n` of the non-empty range [lo, hi).
  struct Chunk {
    i64 begin, end;
  };
  static Chunk chunk(i64 lo, i64 hi, int t, int n) {
    i64 len = hi - lo;
    i64 size = (len + n - 1) / n;
    i64 begin = lo + t * size;
    return {begin, std::min(hi, begin + size)};
  }

  // A team forked from `parent`: openTeam charges the fork and takes the
  // parent off its socket; teamThread pins thread t to its core and adds it
  // as a worker; leaveTeam removes it and raises the join clock; closeTeam
  // puts the parent back at the join clock, charges the join and makes the
  // parent current again.
  struct Team {
    ThreadState* parent;
    int n;
    double dilation;
    double latest;
  };
  Team openTeam(int n);
  ThreadState teamThread(const Team& team, int t);
  void leaveTeam(Team& team, const ThreadState& th);
  void closeTeam(const Team& team);

  psim::MemoryManager& mem_;
};

}  // namespace parad::interp
