#include "src/interp/runtime.h"

namespace parad::interp {

using psim::RtPtr;

Runtime::Runtime(psim::Machine& m, psim::RankEnv& e)
    : machine(m), env(e), ct(m.config().cost), mem_(m.mem()) {
  main.w = env.main;  // copied back by finish()
  int taskWorkers = machine.config().taskWorkers;
  taskWorkerFree.assign(
      static_cast<std::size_t>(taskWorkers > 0 ? taskWorkers
                                               : env.threadsPerRank),
      0.0);
}

RtVal Runtime::finish() {
  env.main = main.w;
  machine.stats().instsExecuted += insts;
  return retVal;
}

// ---- Memory ----------------------------------------------------------------

RtPtr Runtime::alloc(ir::Type elem, i64 count, unsigned flags) {
  machine.chargeAlloc(ts->w, count * 8);
  return mem_.alloc(elem, count, ts->w.socket,
                    (flags & ir::kFlagCacheAlloc) != 0,
                    (flags & ir::kFlagShadowAlloc) != 0);
}

void Runtime::free(RtPtr p) {
  ts->w.advance(ct.freeCost);
  mem_.free(p);
}

void Runtime::atomicAdd(RtPtr p, i64 idx, double v) {
  psim::MemObject& o = mem_.get(p);
  i64 k = p.off + idx;
  PARAD_CHECK(o.elem == ir::Type::F64, "atomic.add on a non-f64 object");
  std::size_t at = o.index(k);
  machine.chargeAtomic(ts->w, o, k);
  o.f[at] += v;
}

void Runtime::memset0(RtPtr p, i64 count) {
  psim::MemObject& o = mem_.get(p);
  std::size_t b = 0, e = 0;
  if (count > 0) {
    b = o.index(p.off);
    e = o.index(p.off + count - 1) + 1;
  }
  machine.chargeMem(ts->w, o.homeSocket, count * 8);
  switch (o.elem) {
    case ir::Type::F64: std::fill(o.f.begin() + b, o.f.begin() + e, 0.0); break;
    case ir::Type::I64:
      std::fill(o.i.begin() + b, o.i.begin() + e, i64{0});
      break;
    case ir::Type::PtrF64:
      std::fill(o.p.begin() + b, o.p.begin() + e, RtPtr{});
      break;
    default: PARAD_UNREACHABLE("bad memset elem");
  }
}

RtPtr Runtime::allocBoxedArray(i64 count) {
  machine.chargeAlloc(ts->w, count * 8 + 8);
  ts->w.advance(ct.gcCost);
  RtPtr data = mem_.alloc(ir::Type::F64, count, ts->w.socket);
  RtPtr desc = mem_.alloc(ir::Type::PtrF64, 1, ts->w.socket);
  mem_.atP(desc, 0) = data;
  return desc;
}

// ---- Message passing -------------------------------------------------------

const double* Runtime::sendBuffer(RtPtr p, i64 count, const char* op) {
  psim::MemObject& o = mem_.get(p);
  PARAD_CHECK(o.elem == ir::Type::F64 && p.off >= 0 && count >= 0 &&
                  p.off + count <= o.count,
              op, " buffer out of bounds");
  return o.f.data() + p.off;
}

psim::ReqId Runtime::isend(RtPtr buf, i64 count, i64 dest, i64 tag) {
  return machine.fabric()->isend(env.rank, ts->w,
                                 sendBuffer(buf, count, "isend"), count,
                                 static_cast<int>(dest),
                                 static_cast<int>(tag));
}

void Runtime::send(RtPtr buf, i64 count, i64 dest, i64 tag) {
  send(sendBuffer(buf, count, "send"), count, dest, tag);
}

void Runtime::send(const double* data, i64 count, i64 dest, i64 tag) {
  machine.fabric()->send(env.rank, ts->w, data, count, static_cast<int>(dest),
                         static_cast<int>(tag));
}

psim::ReqId Runtime::irecv(RtPtr buf, i64 count, i64 src, i64 tag) {
  return machine.fabric()->irecv(env.rank, ts->w, buf, count,
                                 static_cast<int>(src),
                                 static_cast<int>(tag));
}

void Runtime::recv(RtPtr buf, i64 count, i64 src, i64 tag) {
  machine.fabric()->recv(env.rank, ts->w, buf, count, static_cast<int>(src),
                         static_cast<int>(tag));
}

void Runtime::wait(psim::ReqId id) {
  machine.fabric()->wait(env.rank, ts->w, id);
}

void Runtime::allreduce(RtPtr sendBuf, RtPtr recvBuf, i64 count,
                        ir::ReduceKind kind, const RtPtr* winnersBuf) {
  std::vector<i64> winners;
  allreduce(sendBuffer(sendBuf, count, "allreduce send"), recvBuf, count,
            kind, winnersBuf != nullptr ? &winners : nullptr);
  if (winnersBuf != nullptr)
    for (i64 k = 0; k < count; ++k)
      mem_.atI(*winnersBuf, k) = winners[static_cast<std::size_t>(k)];
}

void Runtime::allreduce(const double* data, RtPtr recvBuf, i64 count,
                        ir::ReduceKind kind, std::vector<i64>* winners) {
  machine.fabric()->allreduce(env.rank, ts->w, kind, data, recvBuf, count,
                              winners);
}

void Runtime::barrier() { machine.fabric()->barrier(env.rank, ts->w); }

// ---- Tasks -----------------------------------------------------------------

void Runtime::sync(std::int32_t task) {
  PARAD_CHECK(task >= 0 && static_cast<std::size_t>(task) < tasks.size(),
              "sync on invalid task");
  ts->w.clock =
      std::max(ts->w.clock, tasks[static_cast<std::size_t>(task)].endTime);
  ts->w.advance(ct.syncCost);
}

// ---- Thread teams ----------------------------------------------------------

Runtime::Team Runtime::openTeam(int n) {
  const psim::CostModel& c = machine.config().cost;
  ThreadState* parent = ts;
  parent->w.advance(c.forkBase + c.forkPerThread * n);
  // Oversubscribed cores dilate every team thread's clock.
  double dil = std::max(1.0, static_cast<double>(n) * env.ranks /
                                 machine.config().totalCores()) *
               machine.rankSlowdown(env.rank);
  machine.removeWorkers(parent->w.socket, 1);
  return Team{parent, n, dil, parent->w.clock};
}

ThreadState Runtime::teamThread(const Team& team, int t) {
  ThreadState th;
  th.w.clock = team.parent->w.clock;
  th.w.core = machine.coreOfRankThread(env.rank, t);
  th.w.socket = machine.socketOfCore(th.w.core);
  th.w.dilation = team.dilation;
  th.tid = t;
  th.nthreads = team.n;
  machine.addWorkers(th.w.socket, 1);
  return th;
}

void Runtime::leaveTeam(Team& team, const ThreadState& th) {
  team.latest = std::max(team.latest, th.w.clock);
  machine.removeWorkers(th.w.socket, 1);
}

void Runtime::closeTeam(const Team& team) {
  const psim::CostModel& c = machine.config().cost;
  machine.addWorkers(team.parent->w.socket, 1);
  team.parent->w.clock = team.latest;
  team.parent->w.advance(c.joinBase + c.joinPerThread * team.n);
  ts = team.parent;
}

}  // namespace parad::interp
