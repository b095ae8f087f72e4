// Structured failure diagnostics for the virtual machine.
//
// When a run cannot make progress — a message-passing deadlock, a watchdog
// trip, or mismatched collectives — the machine captures a per-rank snapshot
// (blocked operation, peer, tag, request id, inbox depth, virtual clock) and
// throws a VmError carrying the full FailureReport. The rendered message is
// the human-readable form; callers that want to inspect the failure
// programmatically catch VmError and read report().
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "src/support/common.h"

namespace parad::psim {

/// What one rank was doing when the run failed.
struct RankSnapshot {
  int rank = 0;
  double clock = 0;        // virtual ns at capture
  std::string op;          // "running", "wait", "barrier", "allreduce", "done"
  std::string detail;      // e.g. "recv from 1 tag 7" (empty when not blocked)
  int peer = -2;           // blocked-on peer rank; -1 = wildcard, -2 = n/a
  int tag = -2;            // blocked-on tag; -1 = wildcard, -2 = n/a
  int requestId = -1;      // blocked-on request handle, or -1
  std::size_t inboxDepth = 0;  // unmatched messages queued at this rank
};

/// One rollback performed by the checkpoint/restart machinery, recorded so a
/// failure report (and tests) can show the full recovery history of a run.
struct RestoreEvent {
  int killedRank = -1;   // rank whose crash triggered the rollback
  int epoch = -1;        // checkpoint epoch restored to
  double killClock = 0;  // virtual ns at which the crash fired
  double resumeClock = 0;  // virtual ns the replay resumed from
  bool elastic = false;  // shard migration (continue on n-1) vs full restore
};

struct FailureReport {
  enum class Kind {
    Deadlock,
    Watchdog,
    CollectiveMismatch,
    RankKilled,
    Deadline,  // the host cancelled the run through MachineConfig::cancel
  };
  Kind kind = Kind::Deadlock;
  std::string detail;  // headline, e.g. "all 4 ranks blocked"
  std::vector<RankSnapshot> ranks;
  // Checkpoint/restart context (meaningful when a checkpoint manager was
  // active; killedRank/lastEpoch stay -1 otherwise).
  int killedRank = -1;  // dead rank for Kind::RankKilled
  int lastEpoch = -1;   // most recent checkpoint epoch (-1: none captured)
  std::vector<RestoreEvent> restoreTrail;  // successful rollbacks before this

  const char* kindName() const {
    switch (kind) {
      case Kind::Deadlock: return "deadlock";
      case Kind::Watchdog: return "watchdog";
      case Kind::CollectiveMismatch: return "collective mismatch";
      case Kind::RankKilled: return "rank killed";
      case Kind::Deadline: return "deadline";
    }
    return "?";
  }
  /// Multi-line human-readable rendering (becomes the VmError message).
  std::string render() const;
};

/// Error thrown for machine-level failures; carries the structured report in
/// addition to the rendered message, and derives from parad::Error so
/// existing catch sites keep working.
class VmError : public Error {
 public:
  explicit VmError(FailureReport r) : Error(r.render()), report_(std::move(r)) {}
  const FailureReport& report() const { return report_; }

 private:
  FailureReport report_;
};

}  // namespace parad::psim
