#include "src/psim/fabric.h"

#include <algorithm>
#include <sstream>

namespace parad::psim {

namespace {
const char* reduceName(ir::ReduceKind k) {
  switch (k) {
    case ir::ReduceKind::Sum: return "sum";
    case ir::ReduceKind::Min: return "min";
    case ir::ReduceKind::Max: return "max";
  }
  return "?";
}

// Renders a member list for a mismatch report, capped so a 4096-rank report
// stays readable.
std::string listRanks(std::vector<int> members) {
  std::sort(members.begin(), members.end());
  constexpr std::size_t kMax = 8;
  std::ostringstream os;
  for (std::size_t i = 0; i < members.size() && i < kMax; ++i)
    os << " " << members[i];
  if (members.size() > kMax)
    os << " … and " << (members.size() - kMax) << " more";
  return os.str();
}

// Integers in [0, x) whose bit `bit` is clear.
i64 countBitClear(i64 x, i64 bit) {
  return (x / (2 * bit)) * bit + std::min(x % (2 * bit), bit);
}

// Ranks holding an in-range partner (r ^ bit < n) in one binomial stage:
// every rank pairs with the rank differing in that bit; ranks whose partner
// falls past the end sit the stage out (non-power-of-two counts).
i64 activeInStage(i64 n, i64 bit) {
  i64 lo = std::max<i64>(0, n - bit);
  return n - (countBitClear(n, bit) - countBitClear(lo, bit));
}
}  // namespace

ReqId Fabric::isend(int rank, WorkerCtx& w, const double* data, i64 count,
                    int dest, int tag) {
  PARAD_CHECK(dest >= 0 && dest < nranks_, "isend: bad destination rank ",
              dest);
  PARAD_CHECK(count >= 0, "isend: negative count");
  // Post overhead plus the local buffering copy.
  w.advance(cfg_.cost.mpWaitCost * 0.5 +
            static_cast<double>(count) * 8.0 / cfg_.cost.coreBandwidth);
  stats_.messages++;
  stats_.bytesSent += static_cast<std::uint64_t>(count) * 8u;

  // Fault injection: the surviving copy's availability time absorbs the
  // whole retransmit/backoff schedule plus any jitter, so delivery remains
  // exactly-once (values bit-exact) while timing degrades.
  double avail = w.clock;
  std::uint64_t seq = 0;
  bool dup = false;
  if (faultsOn()) {
    seq = sendSeq_[{FlowKey{dest, tag}, rank}]++;
    FaultPlan::SendFaults f = plan_->onSend(rank, dest, tag, seq);
    if (f.retransmits > 0) {
      stats_.retransmits += static_cast<std::uint64_t>(f.retransmits);
      stats_.droppedMsgs += static_cast<std::uint64_t>(f.retransmits);
      avail += plan_->config().rtoNs *
               static_cast<double>((1ull << f.retransmits) - 1);
    }
    avail += f.extraDelayNs;
    dup = f.duplicate;
    stats_.faultsInjected += static_cast<std::uint64_t>(f.injected());
  }

  Message msg{rank, tag, std::vector<double>(data, data + count), avail, seq,
              false};
  Message ghost;  // duplicate copy, suppressed at the receiver by its seqno
  if (dup) {
    ghost = msg;
    ghost.dup = true;
  }

  // If the destination already posted a matching receive, deliver into it.
  auto pendIt = pendingRecvs_.find(dest);
  if (pendIt != pendingRecvs_.end()) {
    auto& pend = pendIt->second;
    for (std::size_t k = 0; k < pend.size(); ++k) {
      Request& r = reqs_[static_cast<std::size_t>(pend[k])];
      if (!r.complete && (r.src == rank || r.src == -1) &&
          (r.tag == tag || r.tag == -1)) {
        deliver(r, std::move(msg));
        pend.erase(pend.begin() + static_cast<std::ptrdiff_t>(k));
        --postedRecvs_;
        if (pend.empty()) pendingRecvs_.erase(pendIt);
        if (dup) pushInbox(dest, std::move(ghost));
        Request sreq{Request::Kind::Send};
        sreq.complete = true;
        sreq.completeTime = w.clock;
        reqs_.push_back(sreq);
        ++unconsumedReqs_;
        return static_cast<ReqId>(reqs_.size() - 1);
      }
    }
  }
  pushInbox(dest, std::move(msg));
  if (dup) pushInbox(dest, std::move(ghost));

  Request sreq{Request::Kind::Send};
  sreq.complete = true;  // buffered send completes locally at post time
  sreq.completeTime = w.clock;
  reqs_.push_back(sreq);
  ++unconsumedReqs_;
  return static_cast<ReqId>(reqs_.size() - 1);
}

void Fabric::pushInbox(int dest, Message&& msg) {
  inbox_[dest].push_back(std::move(msg));
  ++inboxMsgs_;
}

void Fabric::deliver(Request& r, Message&& msg) {
  PARAD_CHECK(static_cast<i64>(msg.data.size()) == r.count,
              "message length mismatch: sent ", msg.data.size(), ", expected ",
              r.count);
  for (i64 k = 0; k < r.count; ++k)
    mem_.atF(r.dest, k) = msg.data[static_cast<std::size_t>(k)];
  r.complete = true;
  r.completeTime = std::max(r.postTime, msg.availTime) +
                   transferCost(msg.src, r.rank, r.count * 8);
  if (faultsOn())
    recvSeq_[std::make_tuple(r.rank, msg.src, msg.tag)] = msg.seq + 1;
  // Event-keyed wake: if the receiving rank is parked in wait() on this
  // request, exactly it is made runnable — no other rank is touched.
  if (r.waiter >= 0) sched_.wake(r.waiter);
}

ReqId Fabric::irecv(int rank, WorkerCtx& w, RtPtr dest, i64 count, int src,
                    int tag) {
  PARAD_CHECK(src >= -1 && src < nranks_, "irecv: bad source rank ", src);
  PARAD_CHECK(count >= 0, "irecv: negative count");
  // Validate the destination buffer before any message is written into it,
  // so a too-small receive fails at the post site with a useful message
  // instead of mid-delivery.
  {
    const MemObject& o = mem_.get(dest);
    PARAD_CHECK(o.elem == ir::Type::F64,
                "irecv: destination must be an f64 buffer");
    PARAD_CHECK(dest.off >= 0 && dest.off + count <= o.count,
                "irecv: destination buffer too small: receiving ", count,
                " elements at offset ", dest.off, " of an object with ",
                o.count, " elements");
  }
  w.advance(cfg_.cost.mpWaitCost * 0.5);
  Request r{Request::Kind::Recv};
  r.rank = rank;
  r.src = src;
  r.tag = tag;
  r.dest = dest;
  r.count = count;
  r.postTime = w.clock;

  auto boxIt = inbox_.find(rank);
  if (boxIt != inbox_.end()) {
    auto& box = boxIt->second;
    for (auto it = box.begin(); it != box.end();) {
      if ((it->src == src || src == -1) && (it->tag == tag || tag == -1)) {
        if (it->dup) {
          // Duplicate suppression: the original of this flow was already
          // delivered (its seqno is below the flow's expected seqno), so the
          // ghost copy is dropped without touching user memory.
          auto ex = recvSeq_.find(std::make_tuple(rank, it->src, it->tag));
          PARAD_CHECK(ex != recvSeq_.end() && it->seq < ex->second,
                      "duplicate message ahead of its original in flow (",
                      it->src, " -> ", rank, ", tag ", it->tag, ")");
          stats_.dupDeliveries++;
          it = box.erase(it);
          --inboxMsgs_;
          continue;
        }
        deliver(r, std::move(*it));
        box.erase(it);
        --inboxMsgs_;
        if (box.empty()) inbox_.erase(boxIt);
        reqs_.push_back(std::move(r));
        ++unconsumedReqs_;
        return static_cast<ReqId>(reqs_.size() - 1);
      }
      ++it;
    }
    if (box.empty()) inbox_.erase(boxIt);  // dup suppression drained it
  }
  reqs_.push_back(std::move(r));
  ++unconsumedReqs_;
  ReqId id = static_cast<ReqId>(reqs_.size() - 1);
  pendingRecvs_[rank].push_back(id);
  ++postedRecvs_;
  return id;
}

void Fabric::wait(int rank, WorkerCtx& w, ReqId id) {
  PARAD_CHECK(id >= 0 && static_cast<std::size_t>(id) < reqs_.size(),
              "wait on invalid request");
  if (reqs_[static_cast<std::size_t>(id)].consumed)
    fail("wait: request ", id,
         " has already been waited on; each request handle completes exactly "
         "once (was a stale ReqId reused?)");
  if (!reqs_[static_cast<std::size_t>(id)].complete) {
    {
      const Request& r0 = reqs_[static_cast<std::size_t>(id)];
      BlockInfo& b = blocked_[rank];
      b.op = BlockInfo::Op::Wait;
      b.clock = w.clock;
      b.peer = r0.kind == Request::Kind::Recv ? r0.src : -2;
      b.tag = r0.tag;
      b.req = id;
      b.count = r0.count;
    }
    // Register on the request's wake list, then park. The matching isend
    // wakes exactly this rank from deliver(). (Re-index after the block:
    // reqs_ may have grown/reallocated while this rank slept.)
    reqs_[static_cast<std::size_t>(id)].waiter = rank;
    sched_.block(rank);
    reqs_[static_cast<std::size_t>(id)].waiter = -1;
    blocked_.erase(rank);
    PARAD_CHECK(reqs_[static_cast<std::size_t>(id)].complete,
                "wait: woken before request ", id, " completed");
  }
  Request& r = reqs_[static_cast<std::size_t>(id)];
  r.consumed = true;
  --unconsumedReqs_;
  w.clock = std::max(w.clock, r.completeTime);
  w.advance(cfg_.cost.mpWaitCost);
}

double Fabric::treeRelease(double latest, int nstages, double baseStage,
                           i64 bytesPerActiveRank) {
  stats_.collectiveStages += static_cast<std::uint64_t>(nstages);
  i64 n = nranks_;
  for (int s = 0; s < nstages; ++s) {
    i64 bit = i64{1} << s;
    stats_.collectiveBytesOnWire +=
        static_cast<std::uint64_t>(activeInStage(n, bit)) *
        static_cast<std::uint64_t>(bytesPerActiveRank);
  }
  double gamma = cfg_.cost.collectiveLinkGamma;
  // Homogeneous stages (the default calibration): one multiply, exactly the
  // historical flat-rendezvous release expression.
  if (gamma <= 0 || nstages == 0) return latest + baseStage * nstages;
  // Per-stage link contention: flows of a stage that cross the socket
  // interconnect share it; each extra concurrent cross-socket flow stretches
  // the stage.
  double total = 0;
  for (int s = 0; s < nstages; ++s) {
    i64 bit = i64{1} << s;
    i64 cross = 0;
    for (i64 r = 0; r < n; ++r) {
      i64 p = r ^ bit;
      if (p < n && socketOfRank_(static_cast<int>(r)) !=
                       socketOfRank_(static_cast<int>(p)))
        ++cross;
    }
    total +=
        baseStage + gamma * static_cast<double>(std::max<i64>(0, cross - 1));
  }
  return latest + total;
}

double Fabric::ringRelease(double latest, i64 count) {
  // Bandwidth-optimal ring: reduce-scatter then allgather, 2(n-1) stages of
  // one count/n-element chunk per rank per stage.
  int nstages = 2 * (nranks_ - 1);
  i64 chunk = (count + nranks_ - 1) / nranks_;
  stats_.collectiveStages += static_cast<std::uint64_t>(nstages);
  stats_.collectiveBytesOnWire += static_cast<std::uint64_t>(nstages) *
                                  static_cast<std::uint64_t>(nranks_) *
                                  static_cast<std::uint64_t>(chunk) * 8u;
  double base = cfg_.cost.allreducePerStage +
                cfg_.cost.mpBetaPerByte * static_cast<double>(chunk) * 8.0;
  double gamma = cfg_.cost.collectiveLinkGamma;
  if (gamma > 0) {
    i64 cross = 0;  // neighbor links crossing sockets, fixed across stages
    for (int r = 0; r < nranks_; ++r)
      if (socketOfRank_(r) != socketOfRank_((r + 1) % nranks_)) ++cross;
    base += gamma * static_cast<double>(std::max<i64>(0, cross - 1));
  }
  return latest + base * nstages;
}

void Fabric::barrier(int rank, WorkerCtx& w) {
  if (allred_.count > 0) {
    std::ostringstream os;
    os << "rank " << rank << " entered barrier while rank(s)"
       << listRanks(allred_.members) << " are inside allreduce("
       << reduceName(allred_.kind) << ", count " << allred_.elems << ")";
    failCollective(os.str(), rank, w.clock);
  }
  barrier_.members.push_back(rank);
  barrier_.latest = std::max(barrier_.latest, w.clock);
  barrier_.count++;
  if (barrier_.count == nranks_) {
    int stages = 1;
    while ((1 << stages) < nranks_) ++stages;
    barrier_.releaseTime =
        treeRelease(barrier_.latest, nranks_ > 1 ? stages : 0,
                    cfg_.cost.allreducePerStage, /*bytesPerActiveRank=*/0);
    std::vector<int> members = std::move(barrier_.members);
    barrier_.members.clear();
    barrier_.latest = 0;
    barrier_.count = 0;
    barrier_.generation++;
    if (boundaryHook_) boundaryHook_(barrier_.releaseTime);
    // Collective-generation wake: the last arrival releases exactly the
    // parked members.
    for (int r : members)
      if (r != rank) sched_.wake(r);
  } else {
    BlockInfo& b = blocked_[rank];
    b.op = BlockInfo::Op::Barrier;
    b.clock = w.clock;
    sched_.block(rank);
    blocked_.erase(rank);
  }
  w.clock = std::max(w.clock, barrier_.releaseTime);
}

void Fabric::allreduce(int rank, WorkerCtx& w, ir::ReduceKind kind,
                       const double* sendbuf, RtPtr recvbuf, i64 count,
                       std::vector<i64>* winners) {
  if (barrier_.count > 0) {
    std::ostringstream os;
    os << "rank " << rank << " entered allreduce(" << reduceName(kind)
       << ", count " << count << ") while rank(s)"
       << listRanks(barrier_.members) << " are inside barrier";
    failCollective(os.str(), rank, w.clock);
  }
  if (allred_.count == 0) {
    allred_.kind = kind;
    allred_.elems = count;
  } else if (allred_.kind != kind || allred_.elems != count) {
    std::ostringstream os;
    os << "rank " << rank << " called allreduce(" << reduceName(kind)
       << ", count " << count << ") but rank(s)" << listRanks(allred_.members)
       << " are inside allreduce(" << reduceName(allred_.kind) << ", count "
       << allred_.elems << ")";
    failCollective(os.str(), rank, w.clock);
  }
  allred_.contrib[static_cast<std::size_t>(rank)].assign(sendbuf,
                                                         sendbuf + count);
  allred_.members.push_back(rank);
  allred_.latest = std::max(allred_.latest, w.clock);
  allred_.count++;
  stats_.messages++;
  stats_.bytesSent += static_cast<std::uint64_t>(count) * 8u;

  if (allred_.count == nranks_) {
    if (cfg_.cost.allreduceRingMinBytes > 0 && nranks_ > 1 &&
        static_cast<double>(count) * 8.0 >= cfg_.cost.allreduceRingMinBytes) {
      allred_.releaseTime = ringRelease(allred_.latest, count);
    } else {
      int stages = 0;
      while ((1 << stages) < nranks_) ++stages;
      allred_.releaseTime = treeRelease(
          allred_.latest, std::max(stages, 1),
          cfg_.cost.allreducePerStage +
              cfg_.cost.mpBetaPerByte * static_cast<double>(count) * 8.0,
          /*bytesPerActiveRank=*/count * 8);
    }
    std::vector<int> members = std::move(allred_.members);
    allred_.members.clear();
    allred_.latest = 0;
    allred_.count = 0;
    allred_.generation++;
    // Reduce the buffered contributions. The staged schedule above models
    // *time* only; the values are reduced sequentially — under an active
    // fault plan in canonical rank order (a pure function of the contributed
    // values, independent of the fault-perturbed arrival times, with Min/Max
    // ties to the lowest rank), otherwise in arrival order (first arrival
    // wins ties), matching the pre-fault-layer machine bit for bit.
    std::vector<int> order;
    if (faultsOn()) {
      order.resize(static_cast<std::size_t>(nranks_));
      for (int r = 0; r < nranks_; ++r) order[static_cast<std::size_t>(r)] = r;
    } else {
      order = members;
    }
    int r0 = order[0];
    allred_.result = allred_.contrib[static_cast<std::size_t>(r0)];
    allred_.resultWinner.assign(static_cast<std::size_t>(count),
                                static_cast<i64>(r0));
    for (std::size_t i = 1; i < order.size(); ++i) {
      int r = order[i];
      const std::vector<double>& c =
          allred_.contrib[static_cast<std::size_t>(r)];
      for (i64 k = 0; k < count; ++k) {
        double v = c[static_cast<std::size_t>(k)];
        double& a = allred_.result[static_cast<std::size_t>(k)];
        switch (kind) {
          case ir::ReduceKind::Sum: a += v; break;
          case ir::ReduceKind::Min:
            if (v < a) {
              a = v;
              allred_.resultWinner[static_cast<std::size_t>(k)] = r;
            }
            break;
          case ir::ReduceKind::Max:
            if (v > a) {
              a = v;
              allred_.resultWinner[static_cast<std::size_t>(k)] = r;
            }
            break;
        }
      }
    }
    if (boundaryHook_) boundaryHook_(allred_.releaseTime);
    for (int r : members)
      if (r != rank) sched_.wake(r);
  } else {
    BlockInfo& b = blocked_[rank];
    b.op = BlockInfo::Op::Allreduce;
    b.clock = w.clock;
    b.count = count;
    b.reduce = kind;
    sched_.block(rank);
    blocked_.erase(rank);
  }
  for (i64 k = 0; k < count; ++k)
    mem_.atF(recvbuf, k) = allred_.result[static_cast<std::size_t>(k)];
  if (winners) *winners = allred_.resultWinner;
  w.clock = std::max(w.clock, allred_.releaseTime);
  w.advance(cfg_.cost.mpWaitCost);
}

void Fabric::describeRank(int rank, RankSnapshot& snap) const {
  auto boxIt = inbox_.find(rank);
  snap.inboxDepth = boxIt == inbox_.end() ? 0 : boxIt->second.size();
  auto bIt = blocked_.find(rank);
  if (bIt == blocked_.end()) {
    snap.op = "running";
    return;
  }
  const BlockInfo& b = bIt->second;
  snap.clock = b.clock;
  switch (b.op) {
    case BlockInfo::Op::None:
      snap.op = "running";
      break;
    case BlockInfo::Op::Wait: {
      snap.op = "wait";
      std::ostringstream os;
      os << "recv from "
         << (b.peer == -1 ? std::string("any") : std::to_string(b.peer))
         << " tag " << (b.tag == -1 ? std::string("any") : std::to_string(b.tag))
         << " count " << b.count;
      snap.detail = os.str();
      snap.peer = b.peer;
      snap.tag = b.tag;
      snap.requestId = b.req;
      break;
    }
    case BlockInfo::Op::Barrier:
      snap.op = "barrier";
      break;
    case BlockInfo::Op::Allreduce: {
      snap.op = "allreduce";
      std::ostringstream os;
      os << reduceName(b.reduce) << " count " << b.count;
      snap.detail = os.str();
      break;
    }
  }
}

void Fabric::failCollective(std::string detail, int rank, double clock) {
  if (failureBuilder_)
    throw VmError(failureBuilder_(FailureReport::Kind::CollectiveMismatch,
                                  std::move(detail), rank, clock));
  FailureReport rep;
  rep.kind = FailureReport::Kind::CollectiveMismatch;
  rep.detail = std::move(detail);
  for (int r = 0; r < nranks_; ++r) {
    RankSnapshot s;
    s.rank = r;
    describeRank(r, s);
    if (r == rank) s.clock = clock;
    rep.ranks.push_back(std::move(s));
  }
  throw VmError(std::move(rep));
}

}  // namespace parad::psim
