// Gradient-as-a-service: a batched multi-tenant serving layer over the three
// bit-exact execution engines (DESIGN.md §14).
//
// The pipeline is queue -> admission -> batcher -> worker pool:
//   * submit() pushes (program, inputs, seed, engine) jobs onto a bounded
//     MPMC request queue (backpressure when full);
//   * the batcher thread admits each request — resolves its tenant program,
//     validates the engine spec against the backend registry, fingerprints
//     the program against the process-wide ProgramCache — and
//     coalesces same-fingerprint requests into pending batches, flushing a
//     batch to the worker pool when it reaches max_batch or its oldest
//     request has waited max_delay;
//   * workers execute each batch as ONE virtual-machine run through the
//     batched gradient wrapper (src/core/batch.h): inputs packed behind a
//     leading batch dimension, per-request gradients and primals scattered
//     back to the waiting futures.
//
// Isolation guarantees: every batch runs on its own psim::Machine (per-job
// VM state never outlives its batch), requests carrying a fault spec are
// peeled off and executed on their own Machine under their own FaultPlan, and
// a batched run that fails (e.g. an input-dependent trap) degrades to
// per-request isolated re-execution — so a poisoned job fails alone, with its
// structured psim::FailureReport, while its batch-mates and the process-wide
// caches are unaffected. Per-request gradient values are bit-identical to
// single-shot gradient() calls on every engine (requests operate on disjoint
// memory slices and IR execution is exact); tests/test_serve.cpp enforces
// this differentially.
//
// Robustness (DESIGN.md §15): jobs carry deadlines (expired-in-queue jobs
// are refused at admission without touching a worker; a batch whose
// earliest deadline passes mid-run is cancelled through the VM's host-cancel
// probe and answered with the VM's Deadline report), transient rank-kill
// failures are retried per job with deterministic exponential backoff and a
// per-attempt fault-seed offset (the "fresh hardware" model — a retried
// gradient is bit-identical to a single-shot run), tenants are admission-
// controlled by token-bucket rate limits and inflight caps, a full request
// queue sheds load with Overload refusals instead of blocking
// producers, programs failing repeatedly are quarantined by a per-program
// circuit breaker with half-open probes, and the prepared-program registry
// is LRU-bounded by bytes (evicted tenants transparently recompile).
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "src/ir/inst.h"
#include "src/psim/failure.h"
#include "src/psim/machine.h"
#include "src/support/common.h"

namespace parad::serve {

/// Serving knobs. Defaults come from these env knobs:
///   PARAD_SERVE_THREADS       worker pool size
///   PARAD_SERVE_BATCH         max requests coalesced into one batch
///   PARAD_SERVE_MAX_DELAY_US  max host-time a request waits for batch-mates
///   PARAD_SERVE_QUEUE         request-queue capacity (shed bound)
///   PARAD_SERVE_ENGINE        default engine for requests that name none
///                             (falls back to PARAD_ENGINE)
///   PARAD_SERVE_DEADLINE_MS   default per-job deadline (0 = none)
///   PARAD_SERVE_RETRY         transient-failure retry budget per job
///   PARAD_SERVE_RETRY_BACKOFF_US  base retry backoff (doubles per attempt)
///   PARAD_SERVE_RATE          per-tenant admitted requests/second (0 = off)
///   PARAD_SERVE_BURST         token-bucket burst (0 = max(1, rate))
///   PARAD_SERVE_INFLIGHT      per-tenant unanswered-request cap (0 = off)
///   PARAD_SERVE_BREAKER       consecutive failures that open the breaker
///   PARAD_SERVE_BREAKER_COOLDOWN_MS  open -> half-open probe delay
///   PARAD_SERVE_CACHE_BYTES   prepared-program registry byte cap (0 = off)
///   PARAD_SERVE_CKPT_DIR      durable-checkpoint directory for warm
///                             retries ("" = off): fault-injected jobs that
///                             checkpoint get a per-job subdirectory, and a
///                             transient-failure retry re-seats from the
///                             job's last durable epoch instead of
///                             replaying from zero (DESIGN.md §16)
/// fromEnv() validates strictly: malformed, non-finite, negative or
/// out-of-range values (integer knobs at most 2^31-1, host times at most
/// 10^18 ns) and unknown PARAD_SERVE_* names raise parad::Error (unknown
/// names with a did-you-mean suggestion), so a typo cannot silently run with
/// defaults. PARAD_SERVE_CACHE_BYTES is a byte size (digits, optional K/M/G).
struct ServeConfig {
  int workers = 4;
  int maxBatch = 16;
  double maxDelayUs = 200.0;       // host microseconds
  std::size_t queueCapacity = 1024;
  std::string engine;              // "" = process default engine
  int threadsPerRank = 1;          // virtual threads modeled per job VM
  // Per-job VM watchdogs (0 = off): a pathological job trips a structured
  // VmError on its own Machine instead of wedging a worker forever.
  double watchdogVirtualNs = 0;
  std::uint64_t watchdogInsts = 0;
  // Robustness knobs (DESIGN.md §15). All host-time values; 0 disables.
  double deadlineMs = 0;           // default per-job deadline
  int retryMax = 0;                // transient-failure retries per job
  double retryBackoffUs = 50.0;    // base backoff; attempt k sleeps 2^k * base
  double ratePerSec = 0;           // per-tenant token-bucket refill rate
  double rateBurst = 0;            // bucket capacity; 0 = max(1, ratePerSec)
  int maxInflight = 0;             // per-tenant admitted-but-unanswered cap
  int breakerThreshold = 0;        // consecutive failures that open the breaker
  double breakerCooldownMs = 100;  // open -> half-open probe delay
  std::size_t registryCapacityBytes = 0;  // prepared tenant-program byte cap
  // Durable warm retries (DESIGN.md §16): with a directory set, every
  // checkpointing fault-injected job publishes its epochs under a per-job
  // subdirectory, and each retry Machine re-seats from the newest valid
  // epoch — bounded lost work instead of replay-from-zero, counted in
  // ServiceStats::warmResumes. Gradients stay bit-identical either way.
  std::string ckptDir;             // "" = cold retries (replay from zero)

  /// Reads the PARAD_SERVE_* knobs over the built-in defaults.
  static ServeConfig fromEnv();
};

/// One gradient job.
struct Request {
  std::string program;          // registered tenant-program name
  std::vector<double> inputs;   // x, length = the program's n
  double seed = 1.0;            // reverse-mode seed
  std::string engine;           // "" = service default; else registry spec
  std::string faultSpec;        // "" = clean; else a PARAD_FAULTS-style spec
                                // injected into this job's isolated VM only
  std::string tenant;           // admission-control key; "" = program name
  std::uint64_t id = 0;         // request id for attribution; 0 = auto
  double deadlineMs = 0;        // 0 = service default; < 0 = no deadline;
                                // non-finite or > 10^12 is an error
  int retryMax = -1;            // transient-retry budget; -1 = service default
};

/// Why the service answered a job without running it on a VM.
enum class Refusal { None, Overload, CircuitOpen, Deadline };

/// One gradient result (or structured failure).
struct Response {
  bool ok = false;
  std::vector<double> gradient;  // dx, length n (empty on failure)
  double primal = 0;             // primal value at the request's inputs
  std::string error;             // rendered failure message when !ok
  /// Structured VM failure (rank kill, watchdog, deadlock, mid-run deadline)
  /// when the job died inside its virtual machine; null for refusals and
  /// admission/validation errors.
  std::shared_ptr<const psim::FailureReport> failure;
  /// Set when the service refused the job without a VM run: shed by
  /// admission control, short-circuited by an open breaker, or past its
  /// deadline before execution.
  Refusal refusal = Refusal::None;

  // Execution provenance.
  int batchSize = 0;       // requests coalesced into the executing batch
  bool isolated = false;   // ran on its own VM (fault spec, or batch fallback)
  bool coldCompile = false;  // this request triggered program preparation
  std::string engine;      // canonical backend that executed the job
  double virtualNs = 0;    // makespan of the executing VM run
  std::uint64_t requestId = 0;  // the job's (possibly auto-assigned) id
  std::string tenant;      // the admission-control key the job ran under
  int retries = 0;         // execution attempts consumed beyond the first
  /// Statistics of the executing VM run (shared by all requests of a
  /// batch). Cache counters live on the caches (ProgramCache::global(),
  /// CodegenCache::global().counters()).
  psim::RunStats stats;
  std::uint64_t doneAtNs = 0;  // host steady-clock stamp at completion
};

/// Monotonic host clock used for the latency stamps (steady_clock ns).
std::uint64_t nowNs();

/// Aggregate service counters (all monotone since construction).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;   // responses delivered, ok or not
  std::uint64_t failed = 0;      // responses delivered with ok == false
  std::uint64_t batches = 0;     // batched VM runs executed
  std::uint64_t batchedRequests = 0;  // requests served by batched runs
  std::uint64_t maxBatchObserved = 0;
  std::uint64_t isolatedRuns = 0;     // per-job VM executions
  std::uint64_t batchFallbacks = 0;   // batches degraded to isolated re-runs
  std::uint64_t coldCompiles = 0;     // tenant programs prepared on demand
  // Robustness counters (DESIGN.md §15).
  std::uint64_t shedOverload = 0;     // rejected: request queue full
  std::uint64_t shedRate = 0;         // rejected: tenant token bucket dry
  std::uint64_t shedInflight = 0;     // rejected: tenant inflight cap
  std::uint64_t deadlineExpired = 0;  // jobs that died on their deadline
  std::uint64_t retries = 0;          // transient re-execution attempts
  std::uint64_t warmResumes = 0;      // retries re-seated from durable epochs
  std::uint64_t breakerOpens = 0;     // circuit transitions closed -> open
  std::uint64_t breakerShortCircuits = 0;  // jobs rejected by an open circuit
  std::uint64_t breakerProbes = 0;    // half-open probe jobs admitted
  std::uint64_t programEvictions = 0; // prepared tenants evicted by byte cap
  std::uint64_t registryBytes = 0;    // prepared tenant-program bytes held
};

/// The multi-tenant gradient server. Thread-safe: any number of client
/// threads may register programs and submit requests concurrently.
class GradientService {
 public:
  explicit GradientService(ServeConfig cfg = ServeConfig::fromEnv());
  ~GradientService();  // drains the queues, fails leftovers, joins threads
  GradientService(const GradientService&) = delete;
  GradientService& operator=(const GradientService&) = delete;

  /// Registers a tenant program: `build` emits the primal function `primal`
  /// (canonical servable signature f(x: ptr<f64>, n: i64) -> f64, x active)
  /// into a fresh module; `n` is the fixed input length. Programs whose
  /// primal IR is structurally identical (same fingerprint) and same n/
  /// threads share one prepared gradient, its cache entries, and batches —
  /// the cross-tenant amortization the fingerprint admission enables.
  /// Gradient generation and lowering are deferred to first use (the cold
  /// path). Re-registering an existing name is an error.
  void registerProgram(const std::string& name,
                       const std::function<void(ir::Module&)>& build,
                       const std::string& primal, i64 n,
                       int threadsPerRank = 0);

  /// Enqueues a job; the future resolves when a worker scatters the result.
  std::future<Response> submit(Request req);

  /// submit() + wait.
  Response call(Request req);

  /// The naive one-job-per-call reference path: executes the request
  /// synchronously on the calling thread, on its own Machine, through the
  /// plain (unbatched) gradient function — exactly the per-request work the
  /// batched pipeline amortizes. Used as the throughput baseline by
  /// bench/serve_throughput.cpp and as a convenience oracle in tests.
  Response callDirect(const Request& req);

  /// Blocks until every submitted request has been answered.
  void drain();

  ServiceStats stats() const;
  const ServeConfig& config() const { return cfg_; }

 private:
  struct Impl;
  ServeConfig cfg_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace parad::serve
