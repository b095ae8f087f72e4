// Cooperative rank scheduler.
//
// Message-passing ranks execute as user-space fibers (ucontext) on one
// carrier thread per run, so exactly one runs at any instant; a rank yields
// only when it blocks on a communication condition, which is a plain
// swapcontext back to the scheduling loop. The loop always resumes the
// runnable rank with the smallest clockOf(rank), ties to the lower rank.
// The Machine's clockOf reads RankEnv::main, which the engines write back
// only when a rank's engine call returns, so in practice the order is the
// clock the rank started its current call with, then the rank. Simulated
// executions are deterministic either way, and message completion times are
// exact because they come from the fabric's own timestamps (a receive can
// only complete once the matching send has been posted). A 1-rank run calls
// its body directly on the carrier, with no fiber.
//
// Blocking is event-driven: a rank that cannot make progress registers
// itself on a wake list owned by the subsystem it waits on (the fabric keys
// wake lists by flow request and by collective generation) and parks via
// block(); the rank that produces the event calls wake(). The scheduler
// never re-evaluates predicates, so one scheduling step costs O(log n) for
// the ready-heap pop plus O(woken) for the event — independent of how many
// ranks sit idle. Deadlocks (all ranks blocked) and virtual-time watchdog
// trips are detected and reported as structured VmErrors (see failure.h)
// rather than hanging; when a run fails, the loop resumes every parked
// fiber once so it rethrows from block() and unwinds on its own stack.
//
// Each fiber stack is an mmap'd region the size of a default thread stack
// (RLIMIT_STACK, 8 MiB when unlimited) whose lowest page is a PROT_NONE
// guard, so an overflow faults as it would on an OS thread. Ranks must not
// block() inside a catch handler: the caught-exception stack is per thread,
// and fibers share one. The carrier is a fresh thread rather than the
// caller's so each run's allocations stay out of the caller's malloc arena
// (DESIGN.md §12 has the measurement).
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <vector>

#include "src/psim/failure.h"

namespace parad::psim {

class CoopScheduler {
 public:
  /// Builds the exception a failing rank should observe; installed by the
  /// Machine so reports carry per-rank fabric snapshots. `rank` is the rank
  /// the exception is delivered to.
  using FailureBuilder =
      std::function<std::exception_ptr(FailureReport::Kind kind, int rank)>;

  /// Per-run scheduling telemetry, used by scale regression tests to assert
  /// that idle ranks are never touched by a scheduling step.
  struct Telemetry {
    std::vector<std::uint64_t> wakes;  // wake() deliveries per rank
    std::uint64_t steps = 0;           // ready-heap pops (context switches)
  };

  /// Installs the failure builder and the virtual-time watchdog bound
  /// (0 disables the bound) for subsequent run() calls.
  void setFailureHandler(FailureBuilder builder, double virtualNsBound) {
    failureBuilder_ = std::move(builder);
    virtualNsBound_ = virtualNsBound;
  }

  /// Runs fn(rank) for ranks 0..nranks-1 cooperatively to completion.
  /// `clockOf(rank)` must return the rank's current virtual clock; it is only
  /// called while that rank is quiescent.
  void run(int nranks, const std::function<void(int)>& fn,
           const std::function<double(int)>& clockOf);

  /// Called from inside the running rank: parks it until another rank calls
  /// wake(rank) (or the run aborts, in which case the pending error is
  /// rethrown here). The caller must have registered itself on the wake list
  /// of the event it waits for *before* blocking — the scheduler polls
  /// nothing on its behalf. Must not be called inside a catch handler.
  void block(int rank);

  /// Called from inside the running rank: moves a Blocked `rank` back to
  /// Ready, keyed by clockOf(rank). The woken rank resumes when the
  /// (clock, rank) pick reaches it; the caller keeps running.
  void wake(int rank);

  /// Called from inside a running rank: coordinately aborts the run. Every
  /// other live rank observes `e` (blocked ranks rethrow it from block();
  /// not-yet-started ranks never run); the caller is expected to throw `e`'s
  /// exception itself right after. Used by the checkpoint/restart machinery
  /// to unwind every rank's fiber to a clean state before a rollback.
  void abortAll(std::exception_ptr e);

  /// Telemetry of the most recent run() (valid after run returns or throws).
  const Telemetry& lastRunTelemetry() const { return telemetry_; }

 private:
  struct Impl;
  Impl* impl_ = nullptr;
  FailureBuilder failureBuilder_;
  double virtualNsBound_ = 0;
  Telemetry telemetry_;
};

}  // namespace parad::psim
