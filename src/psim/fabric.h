// Message-passing fabric of the virtual machine (the "simMP" substrate).
//
// Implements the MPI-style primitives the paper differentiates: nonblocking
// Isend/Irecv with request handles completed by Wait, blocking Send/Recv,
// Allreduce (sum/min/max, with per-element winning-rank capture for min/max
// so the AD engine can route adjoints, cf. DESIGN.md), and Barrier.
// Matching is FIFO per (destination, source, tag). Transfer times follow a
// Hockney alpha-beta model with a larger alpha across the socket boundary.
//
// Collectives are *staged*: release times follow a binomial-tree schedule
// (ceil(log2 n) stages) or, for large allreduce payloads, a ring schedule
// (2(n-1) chunked stages), with optional per-stage link contention — while
// the reduced *values* stay in rank/arrival order exactly as before, so
// results are bit-identical to the flat-rendezvous model (DESIGN.md §12).
// All per-rank bookkeeping is sparse (maps keyed by live flows / blocked
// ranks) and blocking is event-keyed: a rank parks on the scheduler and is
// woken precisely by the message delivery or collective release it waits
// for, so idle ranks cost nothing per scheduling step.
//
// Under an active FaultPlan the fabric is self-healing: lost copies are
// retransmitted with exponential backoff (modeled analytically — the
// surviving copy's availability time absorbs the whole retry schedule, so
// delivery stays exactly-once and values bit-exact), duplicates carry
// per-flow sequence numbers and are suppressed at match time, and jitter
// only shifts availability times. See DESIGN.md §10.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/ir/inst.h"
#include "src/psim/failure.h"
#include "src/psim/faults.h"
#include "src/psim/machine.h"
#include "src/psim/memory.h"
#include "src/psim/sched.h"

namespace parad::psim {

using ReqId = std::int32_t;

class Fabric {
 public:
  Fabric(int nranks, const MachineConfig& cfg, MemoryManager& mem,
         RunStats& stats, CoopScheduler& sched,
         std::function<int(int)> socketOfRank)
      : nranks_(nranks), cfg_(cfg), mem_(mem), stats_(stats), sched_(sched),
        socketOfRank_(std::move(socketOfRank)), barrier_{}, allred_{} {
    allred_.contrib.resize(static_cast<std::size_t>(nranks));
  }

  int ranks() const { return nranks_; }

  /// Installs the fault oracle (nullptr disables injection).
  void setFaultPlan(const FaultPlan* plan) { plan_ = plan; }
  /// Report factory for collective-mismatch failures, so thrown VmErrors
  /// carry machine-wide per-rank snapshots. `rank` is the rank that detected
  /// the mismatch and `clock` its current virtual clock.
  using FailureBuilder = std::function<FailureReport(
      FailureReport::Kind, std::string detail, int rank, double clock)>;
  void setFailureBuilder(FailureBuilder b) { failureBuilder_ = std::move(b); }
  /// Installs the collective-boundary hook (checkpoint/restart). Invoked by
  /// the last-arriving rank of every barrier/allreduce, after the release
  /// time is computed but before any rank observes it; the hook may push the
  /// release time later (checkpoint write cost) through the reference.
  void setBoundaryHook(std::function<void(double&)> h) {
    boundaryHook_ = std::move(h);
  }

  /// True when the fabric holds no in-flight point-to-point state: every
  /// request waited on, no buffered or unmatched messages. Checkpoints are
  /// only taken at collective boundaries where this holds, so a snapshot
  /// never needs to serialize message payloads (DESIGN.md §11). O(1): the
  /// fabric counts outstanding requests and buffered messages as they come
  /// and go instead of scanning them.
  bool quiescent() const {
    return unconsumedReqs_ == 0 && inboxMsgs_ == 0 && postedRecvs_ == 0;
  }

  // Checkpoint surface: the per-flow sequence counters are the only fabric
  // state that survives a quiesce point, so they are what a snapshot carries.
  using SendSeqMap =
      std::map<std::pair<std::pair<int, int>, int>, std::uint64_t>;
  // Receive-side expected seqnos keyed by (dst, src, tag) — one sparse map
  // over live flows, not a dense per-rank array.
  using RecvSeqMap = std::map<std::tuple<int, int, int>, std::uint64_t>;
  const SendSeqMap& sendSeqState() const { return sendSeq_; }
  const RecvSeqMap& recvSeqState() const { return recvSeq_; }
  void restoreSeqState(SendSeqMap send, RecvSeqMap recv) {
    sendSeq_ = std::move(send);
    recvSeq_ = std::move(recv);
  }

  /// Nonblocking send: the payload is captured immediately (buffered send).
  ReqId isend(int rank, WorkerCtx& w, const double* data, i64 count, int dest,
              int tag);
  /// Nonblocking receive into interpreter memory `dest` (count elements).
  ReqId irecv(int rank, WorkerCtx& w, RtPtr dest, i64 count, int src, int tag);
  /// Completes a request, advancing the worker clock to the completion time.
  /// Each request handle may be waited on exactly once.
  void wait(int rank, WorkerCtx& w, ReqId id);

  void send(int rank, WorkerCtx& w, const double* data, i64 count, int dest,
            int tag) {
    wait(rank, w, isend(rank, w, data, count, dest, tag));
  }
  void recv(int rank, WorkerCtx& w, RtPtr dest, i64 count, int src, int tag) {
    wait(rank, w, irecv(rank, w, dest, count, src, tag));
  }

  void barrier(int rank, WorkerCtx& w);

  /// Allreduce over `count` elements. Contributions are buffered per rank
  /// and reduced once the last rank arrives, so the result is independent of
  /// the (fault-perturbed) arrival order and ties in Min/Max genuinely go to
  /// the lowest rank. If `winners` is non-null and the kind is Min/Max, it
  /// receives the winning rank per element, which the AD engine caches to
  /// route min/max adjoints.
  void allreduce(int rank, WorkerCtx& w, ir::ReduceKind kind,
                 const double* sendbuf, RtPtr recvbuf, i64 count,
                 std::vector<i64>* winners = nullptr);

  /// Fills the message-passing fields of a failure snapshot for `rank`
  /// (blocked op kind, peer, tag, request id, inbox depth) and, for a parked
  /// rank, the virtual clock it parked with.
  void describeRank(int rank, RankSnapshot& snap) const;

 private:
  struct Message {
    int src, tag;
    std::vector<double> data;
    double availTime;  // post time at the sender (plus modeled fault delays)
    std::uint64_t seq = 0;  // per-(src,dst,tag) flow sequence number
    bool dup = false;       // ghost duplicate injected by the fault plan
  };
  struct Request {
    enum class Kind { Send, Recv };
    explicit Request(Kind k) : kind(k) {}
    Kind kind;
    bool complete = false;
    bool consumed = false;  // a wait() already returned this request
    double completeTime = 0;
    int waiter = -1;  // rank parked in wait() on this request, or -1
    // For pending receives:
    int rank = 0, src = 0, tag = 0;
    RtPtr dest;
    i64 count = 0;
    double postTime = 0;
  };

  /// What a rank is blocked on, for failure snapshots.
  struct BlockInfo {
    enum class Op { None, Wait, Barrier, Allreduce } op = Op::None;
    // Virtual clock the rank parked with. The engines keep a running rank's
    // clock in a local copy of RankEnv::main, so this is the only current
    // clock the machine can see for a parked rank.
    double clock = 0;
    int peer = -2, tag = -2;
    ReqId req = -1;
    i64 count = 0;
    ir::ReduceKind reduce = ir::ReduceKind::Sum;
  };

  double transferCost(int src, int dst, i64 bytes) const {
    double alpha = socketOfRank_(src) == socketOfRank_(dst)
                       ? cfg_.cost.mpAlphaLocal
                       : cfg_.cost.mpAlphaRemote;
    return alpha + cfg_.cost.mpBetaPerByte * static_cast<double>(bytes);
  }

  bool faultsOn() const { return plan_ && plan_->enabled(); }

  void deliver(Request& r, Message&& msg);
  void pushInbox(int dest, Message&& msg);
  [[noreturn]] void failCollective(std::string detail, int rank,
                                   double clock);

  // Staged collective timing (values are reduced separately; see the
  // allreduce implementation). Both return the release time and account the
  // collectiveStages/collectiveBytesOnWire statistics.
  double treeRelease(double latest, int nstages, double baseStage,
                     i64 bytesPerActiveRank);
  double ringRelease(double latest, i64 count);

  int nranks_;
  const MachineConfig& cfg_;
  MemoryManager& mem_;
  RunStats& stats_;
  CoopScheduler& sched_;
  std::function<int(int)> socketOfRank_;
  const FaultPlan* plan_ = nullptr;
  FailureBuilder failureBuilder_;
  std::function<void(double&)> boundaryHook_;

  // Sparse per-rank flow state: entries exist only for ranks that currently
  // hold buffered messages / posted receives / are blocked. An idle rank
  // costs no storage and no scan time.
  std::map<int, std::deque<Message>> inbox_;       // keyed by destination rank
  std::map<int, std::vector<ReqId>> pendingRecvs_; // keyed by destination rank
  std::vector<Request> reqs_;
  std::map<int, BlockInfo> blocked_;  // ranks parked inside the fabric

  // O(1) quiescence accounting (see quiescent()).
  std::uint64_t unconsumedReqs_ = 0;
  std::uint64_t inboxMsgs_ = 0;
  std::uint64_t postedRecvs_ = 0;

  // Per-flow sequence bookkeeping (touched only when a fault plan is on).
  using FlowKey = std::pair<int, int>;  // (peer rank, tag)
  std::map<std::pair<FlowKey, int>, std::uint64_t> sendSeq_;  // +dest rank
  RecvSeqMap recvSeq_;  // (dst, src, tag) -> next expected seqno

  struct Rendezvous {
    std::vector<int> members;  // ranks inside, in arrival order
    double latest = 0;         // running max of member arrival clocks
    int count = 0;
    std::uint64_t generation = 0;
    double releaseTime = 0;
  };
  Rendezvous barrier_;

  struct AllredState : Rendezvous {
    ir::ReduceKind kind = ir::ReduceKind::Sum;
    i64 elems = 0;
    // Per-rank contributions, reduced when the last one arrives — in arrival
    // order normally (FP order and Min/Max tie-breaks match the machine
    // without a fault layer), in canonical rank order under an active fault
    // plan (the order must not depend on fault-perturbed arrival times).
    std::vector<std::vector<double>> contrib;
    // Snapshot written when the last rank arrives. Stable until every rank
    // has consumed it (the next allreduce cannot complete before then).
    std::vector<double> result;
    std::vector<i64> resultWinner;
  };
  AllredState allred_;
};

}  // namespace parad::psim
