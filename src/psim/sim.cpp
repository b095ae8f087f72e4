#include "src/psim/sim.h"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <utility>

#include "src/support/knobs.h"

namespace parad::psim {

double Machine::run(const Launch& launch,
                    const std::function<void(RankEnv&)>& fn) {
  PARAD_CHECK(launch.ranks >= 1 && launch.threadsPerRank >= 1,
              "bad launch configuration");
  launch_ = launch;
  resetMemCharges();  // pick up config edits made since the last run
  static std::atomic<std::uint64_t> lastRunId{0};
  runId_ = lastRunId.fetch_add(1, std::memory_order_relaxed) + 1;
  struct EndRun {
    std::uint64_t& id;
    ~EndRun() { id = 0; }
  } endRun{runId_};

  // Resolve the fault plan for this run: an explicitly enabled config wins;
  // otherwise the PARAD_FAULTS spec (if any) applies.
  FaultConfig fc = cfg_.faults;
  if (!fc.enabled) {
    if (std::string env = envText("PARAD_FAULTS"); !env.empty())
      fc = parseFaultSpec(env);
  }
  faultPlan_ = FaultPlan(fc);
  watchdogSlackNs_ = 0;
  killCursor_.assign(static_cast<std::size_t>(launch.ranks), 0);
  hostOf_.resize(static_cast<std::size_t>(launch.ranks));
  for (int r = 0; r < launch.ranks; ++r)
    hostOf_[static_cast<std::size_t>(r)] = r;
  hostAlive_.assign(static_cast<std::size_t>(launch.ranks), 1);
  hostLoad_.assign(static_cast<std::size_t>(launch.ranks), 1);
  ckpt_.reset();
  if (!cfg_.ckptDir.empty()) fc.ckptDir = cfg_.ckptDir;
  if (fc.enabled && fc.ckptInterval > 0) {
    ckpt_ = std::make_unique<CheckpointManager>(fc, cfg_.cost, mem_, stats_);
    // Run-start image: replay-from-zero restores this so a recovery attempt
    // re-executes against exactly the memory the original attempt saw.
    ckpt_->captureBaseImage(/*allocSeq=*/0);
    if (!fc.ckptDir.empty()) {
      // Durable mode: publish every capture, and seed recovery state from
      // the newest valid on-disk epoch — a fresh Machine over the same
      // directory resumes the interrupted run through the ordinary
      // replay-and-seek path, bit-identically (DESIGN.md §16). The resume
      // shift is excused from the virtual-time watchdog like any restore.
      double resume = ckpt_->openDurable(launch.ranks);
      if (resume >= 0)
        watchdogSlackNs_ += resume - ckpt_->latest().releaseClock;
    }
  }

  // Each loop iteration is one execution attempt; a recovered rank crash
  // rolls back and retries, anything else exits the loop (normally or by
  // propagating the error).
  for (;;) {
    allocSeq_ = 0;
    // Arm this attempt's kill schedule: each rank's next unconsumed crash.
    killAt_.assign(static_cast<std::size_t>(launch.ranks), -1.0);
    killArmed_ = false;
    if (faultPlan_.enabled() && fc.killRate > 0) {
      for (int r = 0; r < launch.ranks; ++r) {
        double t = faultPlan_.killTime(r, killCursor_[static_cast<std::size_t>(r)]);
        killAt_[static_cast<std::size_t>(r)] = t;
        if (t >= 0) killArmed_ = true;
      }
    }

    std::vector<RankEnv> envs(static_cast<std::size_t>(launch.ranks));
    envs_ = &envs;
    rankDone_.assign(static_cast<std::size_t>(launch.ranks), 0);
    for (int r = 0; r < launch.ranks; ++r) {
      RankEnv& e = envs[static_cast<std::size_t>(r)];
      e.machine = this;
      e.rank = r;
      e.ranks = launch.ranks;
      e.threadsPerRank = launch.threadsPerRank;
      e.main.clock = 0;
      e.main.core = coreOfRankThread(r, 0);
      e.main.socket = socketOfCore(e.main.core);
      e.main.dilation = dilation();
      if (faultPlan_.enabled()) {
        double s = faultPlan_.slowdown(r);
        if (s > 1.0) {
          e.main.dilation *= s;
          stats_.faultsInjected++;  // one straggler event per dilated rank
        }
      }
      // A survivor hosting adopted personas time-shares its cores among them.
      int load = hostLoad(r);
      if (load > 1) e.main.dilation *= static_cast<double>(load);
      addWorkers(e.main.socket, 1);
    }
    fabric_ = std::make_unique<Fabric>(
        launch.ranks, cfg_, mem_, stats_, sched_,
        [this](int r) { return socketOfRank(r); });
    fabric_->setFaultPlan(&faultPlan_);
    fabric_->setFailureBuilder(
        [this](FailureReport::Kind kind, std::string detail, int rank,
               double clock) {
          return buildFailureReport(kind, std::move(detail), rank, clock);
        });
    if (ckpt_) {
      ckpt_->beginAttempt(fabric_.get(), &allocSeq_);
      fabric_->setBoundaryHook(
          [this](double& releaseTime) { ckpt_->onBoundary(releaseTime); });
    }
    sched_.setFailureHandler(
        [this](FailureReport::Kind kind, int rank) {
          std::ostringstream os;
          if (kind == FailureReport::Kind::Watchdog)
            os << "virtual-time bound of " << watchdogTimeBound()
               << "ns exceeded (observed from rank " << rank << ")";
          else
            os << "message-passing deadlock: no rank can make progress";
          return std::make_exception_ptr(
              VmError(buildFailureReport(kind, os.str())));
        },
        watchdogTimeBound());

    // Tear down run-scoped state even when a rank throws, so a failed run
    // leaves the machine reusable (worker counts balanced, no dangling
    // envs). Runs per attempt.
    struct Cleanup {
      Machine* m;
      std::vector<RankEnv>* envs;
      ~Cleanup() {
        for (const RankEnv& e : *envs) m->removeWorkers(e.main.socket, 1);
        if (m->ckpt_) m->ckpt_->endAttempt();
        m->fabric_.reset();
        m->envs_ = nullptr;
      }
    } cleanup{this, &envs};

    try {
      sched_.run(
          launch.ranks,
          [&](int r) {
            fn(envs[static_cast<std::size_t>(r)]);
            rankDone_[static_cast<std::size_t>(r)] = 1;
          },
          [&](int r) { return envs[static_cast<std::size_t>(r)].main.clock; });
    } catch (const RankKillSignal& k) {
      recoverFromKill(k);  // throws VmError when the crash is unrecoverable
      continue;            // recovered: replay with the rolled-back state
    }

    double makespan = 0;
    for (const RankEnv& e : envs) makespan = std::max(makespan, e.main.clock);
    return makespan;
  }
}

void Machine::fireKill(int rank, double clock) {
  killAt_[static_cast<std::size_t>(rank)] = -1;  // fires once per attempt
  stats_.ranksKilled++;
  stats_.faultsInjected++;
  RankKillSignal sig{rank, clock,
                     killCursor_[static_cast<std::size_t>(rank)]};
  // Coordinated abort: every rank's fiber unwinds with the same signal so
  // the whole machine reaches a clean state before the rollback.
  sched_.abortAll(std::make_exception_ptr(sig));
  throw sig;
}

void Machine::recoverFromKill(const RankKillSignal& k) {
  std::ostringstream os;
  os << "rank " << k.rank << " killed at virtual time " << k.clock << "ns";
  if (!ckpt_) {
    os << "; checkpointing is disabled (set ckpt_interval to recover)";
    failKilled(k, os.str());
  }
  if (!ckpt_->hasCheckpoint()) {
    os << " before the first checkpoint (no collective boundary reached)";
    failKilled(k, os.str());
  }
  if (ckpt_->restores() >= faultPlan_.config().retryBudget) {
    os << " after exhausting the retry budget of "
       << faultPlan_.config().retryBudget << " restore(s); last checkpoint"
       << " epoch " << ckpt_->latest().epoch;
    failKilled(k, os.str());
  }
  bool elastic = faultPlan_.config().elastic;
  if (elastic) {
    // Node-failure model: the crashed persona's *host* dies for good. Every
    // persona it hosted (its own, plus any adopted earlier) is re-homed onto
    // the next surviving rank; the machine continues on n-1 hosts. The
    // deterministic replay-and-seek below keeps values bit-exact — the
    // adopted personas re-execute on the survivor's cores, merely dilated.
    int victim = hostOf_[static_cast<std::size_t>(k.rank)];
    hostAlive_[static_cast<std::size_t>(victim)] = 0;
    int survivor = -1;
    for (int step = 1; step <= launch_.ranks; ++step) {
      int c = (victim + step) % launch_.ranks;
      if (hostAlive_[static_cast<std::size_t>(c)]) {
        survivor = c;
        break;
      }
    }
    if (survivor < 0) {
      os << "; no surviving rank can adopt its shard";
      failKilled(k, os.str());
    }
    for (int p = 0; p < launch_.ranks; ++p)
      if (hostOf_[static_cast<std::size_t>(p)] == victim)
        hostOf_[static_cast<std::size_t>(p)] = survivor;
    hostLoad_.assign(static_cast<std::size_t>(launch_.ranks), 0);
    for (int p = 0; p < launch_.ranks; ++p)
      hostLoad_[static_cast<std::size_t>(hostOf_[static_cast<std::size_t>(p)])]++;
  }
  // Consume the crash: the replay has survived it, so the next kill drawn
  // for this rank (if any) is the following index of the schedule.
  killCursor_[static_cast<std::size_t>(k.rank)]++;
  double resume = ckpt_->planRecovery(k, elastic, launch_.ranks);
  // Excuse the recovery penalty (rollback + replay shift) from the
  // virtual-time watchdog: the replayed suffix runs `resume - releaseClock`
  // later than the original attempt did.
  watchdogSlackNs_ += resume - ckpt_->latest().releaseClock;
}

void Machine::failKilled(const RankKillSignal& k, std::string detail) {
  FailureReport rep =
      buildFailureReport(FailureReport::Kind::RankKilled, std::move(detail));
  rep.killedRank = k.rank;
  if (static_cast<std::size_t>(k.rank) < rep.ranks.size()) {
    rep.ranks[static_cast<std::size_t>(k.rank)].op = "killed";
    rep.ranks[static_cast<std::size_t>(k.rank)].clock = k.clock;
  }
  throw VmError(std::move(rep));
}

FailureReport Machine::buildFailureReport(FailureReport::Kind kind,
                                          std::string detail, int rank,
                                          double clock) {
  FailureReport rep;
  rep.kind = kind;
  rep.detail = std::move(detail);
  if (ckpt_) {
    if (ckpt_->hasCheckpoint()) rep.lastEpoch = ckpt_->latest().epoch;
    rep.restoreTrail = ckpt_->trail();
  }
  if (!envs_) return rep;
  for (const RankEnv& e : *envs_) {
    RankSnapshot s;
    s.rank = e.rank;
    // RankEnv::main is copied back only when a rank returns: exact for a
    // finished or never-started rank. The fabric overrides it for a parked
    // rank, and the caller knows its own.
    s.clock = e.main.clock;
    if (fabric_) fabric_->describeRank(e.rank, s);
    if (e.rank == rank) s.clock = clock;
    if (rankDone_[static_cast<std::size_t>(e.rank)])
      s.op = "done";  // keep the inbox depth: unclaimed messages are a clue
    else if (!fabric_)
      s.op = "running";
    rep.ranks.push_back(std::move(s));
  }
  return rep;
}

void Machine::failWatchdog(int rank, std::uint64_t insts, double clock) {
  std::ostringstream os;
  os << "rank " << rank << " dispatched " << insts
     << " IR instructions, exceeding the watchdogInsts bound of "
     << cfg_.watchdogInsts;
  throw VmError(buildFailureReport(FailureReport::Kind::Watchdog, os.str(),
                                   rank, clock));
}

void Machine::failCancelled(int rank, double clock) {
  std::ostringstream os;
  os << "run cancelled by host at rank " << rank << ", virtual time " << clock
     << "ns (deadline exceeded)";
  throw VmError(buildFailureReport(FailureReport::Kind::Deadline, os.str(),
                                   rank, clock));
}

void Machine::failWatchdogTime(int rank, double clock) {
  std::ostringstream os;
  os << "rank " << rank << " reached virtual time " << clock
     << "ns, exceeding the virtual-time bound of " << watchdogTimeBound()
     << "ns";
  throw VmError(buildFailureReport(FailureReport::Kind::Watchdog, os.str(),
                                   rank, clock));
}

}  // namespace parad::psim
