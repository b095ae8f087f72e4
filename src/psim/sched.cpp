#include "src/psim/sched.h"

#include <sys/mman.h>
#include <sys/resource.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdint>
#include <exception>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/support/common.h"

// Sanitizers must be told about every stack switch: ASan to keep its shadow
// and fake stacks consistent across stacks, TSan so each fiber carries its
// own happens-before state.
#if defined(__SANITIZE_ADDRESS__)
#define PARAD_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PARAD_FIBER_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define PARAD_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PARAD_FIBER_TSAN 1
#endif
#endif
#ifdef PARAD_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef PARAD_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace parad::psim {

namespace {

std::size_t pageBytes() {
  static const std::size_t page =
      static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

// Usable bytes of one fiber stack: what glibc gives a default thread
// (RLIMIT_STACK, or 8 MiB when unlimited), so a rank recursing as deep as
// it could on its own OS thread still fits.
std::size_t fiberStackBytes() {
  static const std::size_t bytes = [] {
    std::size_t want = std::size_t{8} << 20;
    rlimit rl{};
    if (getrlimit(RLIMIT_STACK, &rl) == 0 && rl.rlim_cur != RLIM_INFINITY)
      want = static_cast<std::size_t>(rl.rlim_cur);
    std::size_t page = pageBytes();
    return (want + page - 1) / page * page;
  }();
  return bytes;
}

}  // namespace

struct CoopScheduler::Impl {
  enum class State { Ready, Running, Blocked, Done };

  // One started rank: its saved context and its stack mapping (a PROT_NONE
  // guard page, then fiberStackBytes() of stack).
  struct Fiber {
    ucontext_t ctx;
    char* map = nullptr;
#ifdef PARAD_FIBER_TSAN
    void* tsan = nullptr;
#endif
  };

  int current = -1;
  bool failed = false;
  std::vector<State> state;
  std::vector<std::exception_ptr> err;
  // Ready ranks keyed by (frozen virtual clock, rank). A rank's clock only
  // advances while it runs, so the key recorded at the Ready transition stays
  // valid until the rank is popped; the lexicographic min reproduces the
  // historical scan order (smallest clock, ties to the lowest rank index).
  using HeapEntry = std::pair<double, int>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      ready;
  const std::function<void(int)>& fn;
  const std::function<double(int)>& clockOf;
  FailureBuilder failureBuilder;
  double virtualNsBound = 0;
  Telemetry telemetry;

  // Fibers exist only in multi-rank runs. Sized once: a ucontext_t points
  // into itself, so the vector must never reallocate.
  std::vector<Fiber> fibers;
  // The scheduling loop's context on the carrier thread. Zeroed so its
  // uc_stack reads as "no stack" (ASan's swapcontext hook inspects it).
  ucontext_t loop{};
#ifdef PARAD_FIBER_ASAN
  const void* loopStack = nullptr;
  std::size_t loopStackBytes = 0;
#endif
#ifdef PARAD_FIBER_TSAN
  void* tsanLoop = nullptr;
#endif

  Impl(int nranks, const std::function<void(int)>& f,
       const std::function<double(int)>& clock, FailureBuilder builder,
       double bound)
      : state(static_cast<std::size_t>(nranks), State::Ready),
        err(static_cast<std::size_t>(nranks)),
        fn(f),
        clockOf(clock),
        failureBuilder(std::move(builder)),
        virtualNsBound(bound),
        fibers(nranks > 1 ? static_cast<std::size_t>(nranks) : 0) {
    telemetry.wakes.assign(static_cast<std::size_t>(nranks), 0);
    for (int r = 0; r < nranks; ++r) ready.emplace(clockOf(r), r);
  }
  Impl(const Impl&) = delete;
  Impl& operator=(const Impl&) = delete;
  ~Impl() {
    for (std::size_t r = 0; r < fibers.size(); ++r) releaseStack(r);
  }

  // Never throws: the scheduling loop calls it with fibers parked, so a
  // failure to build the report becomes that rank's error instead.
  std::exception_ptr buildFailure(FailureReport::Kind kind,
                                  int rank) noexcept {
    try {
      if (failureBuilder) return failureBuilder(kind, rank);
      FailureReport rep;
      rep.kind = kind;
      rep.detail = kind == FailureReport::Kind::Watchdog
                       ? "virtual-time bound exceeded"
                       : "all ranks blocked";
      return std::make_exception_ptr(VmError(std::move(rep)));
    } catch (...) {
      return std::current_exception();
    }
  }

  // Marks the run failed and hands every live rank a structured error; the
  // blocked ranks rethrow it from block() when the loop resumes them.
  void failAll(FailureReport::Kind kind) {
    failed = true;
    current = -1;
    for (std::size_t r = 0; r < err.size(); ++r)
      if (!err[r] && state[r] != State::Done)
        err[r] = buildFailure(kind, static_cast<int>(r));
  }

  // Picks the next rank to run while no rank runs; returns it, or -1 when
  // the run is over (all done, or failed).
  int pickNext() {
    current = -1;
    if (failed) return -1;
    while (!ready.empty()) {
      auto [c, r] = ready.top();
      if (state[static_cast<std::size_t>(r)] != State::Ready) {
        ready.pop();  // stale entry from an aborted run segment
        continue;
      }
      // Virtual-time watchdog: a livelock (e.g. runaway retransmits) keeps
      // ranks runnable forever while their clocks climb; bound the makespan.
      if (virtualNsBound > 0 && c > virtualNsBound) {
        failAll(FailureReport::Kind::Watchdog);
        return -1;
      }
      ready.pop();
      current = r;
      state[static_cast<std::size_t>(r)] = State::Running;
      ++telemetry.steps;
      return r;
    }
    // No runnable rank: either everyone is done, or we deadlocked.
    for (State s : state)
      if (s != State::Done) {
        failAll(FailureReport::Kind::Deadlock);
        break;
      }
    return -1;
  }

  void runRank(int r) noexcept {
    try {
      fn(r);
    } catch (...) {
      err[static_cast<std::size_t>(r)] = std::current_exception();
    }
    state[static_cast<std::size_t>(r)] = State::Done;
  }

  // The carrier thread's body: the scheduling loop, then (on failure) one
  // last resume of every parked fiber so it unwinds on its own stack.
  void schedule() noexcept {
    if (fibers.empty()) {
      if (pickNext() == 0) runRank(0);
      return;
    }
#ifdef PARAD_FIBER_TSAN
    tsanLoop = __tsan_get_current_fiber();
#endif
    for (int r; (r = pickNext()) >= 0;) resume(r);
    if (!failed) return;
    for (std::size_t r = 0; r < fibers.size(); ++r)
      if (fibers[r].map && state[r] != State::Done)
        resume(static_cast<int>(r));
  }

  static void fiberEntry(unsigned hi, unsigned lo, int r) {
    Impl* self = reinterpret_cast<Impl*>(
        static_cast<std::uintptr_t>((std::uint64_t{hi} << 32) | lo));
#ifdef PARAD_FIBER_ASAN
    __sanitizer_finish_switch_fiber(nullptr, &self->loopStack,
                                    &self->loopStackBytes);
#endif
    self->runRank(r);
    self->yield(r, /*exiting=*/true);  // never resumed
  }

  // Gives rank r a stack and a context entering fiberEntry. A rank whose
  // stack cannot be mapped fails as if its body had thrown.
  bool start(int r) {
    Fiber& f = fibers[static_cast<std::size_t>(r)];
    std::size_t page = pageBytes(), bytes = fiberStackBytes();
    void* m = mmap(nullptr, page + bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
    if (m == MAP_FAILED || mprotect(m, page, PROT_NONE) != 0) {
      if (m != MAP_FAILED) munmap(m, page + bytes);
      err[static_cast<std::size_t>(r)] = std::make_exception_ptr(
          Error("cannot map a " + std::to_string(bytes) +
                "-byte fiber stack for rank " + std::to_string(r)));
      state[static_cast<std::size_t>(r)] = State::Done;
      return false;
    }
    f.map = static_cast<char*>(m);
    getcontext(&f.ctx);
    f.ctx.uc_stack.ss_sp = f.map + page;
    f.ctx.uc_stack.ss_size = bytes;
    f.ctx.uc_link = nullptr;
    // makecontext passes int-sized arguments: split the pointer in two.
    std::uint64_t self = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&f.ctx, reinterpret_cast<void (*)()>(&Impl::fiberEntry), 3,
                static_cast<unsigned>(self >> 32),
                static_cast<unsigned>(self), r);
#ifdef PARAD_FIBER_TSAN
    f.tsan = __tsan_create_fiber(0);
#endif
    return true;
  }

  // Loop -> fiber r (starting it on first use); returns once r blocks or
  // finishes. A finished fiber's stack is released right away.
  void resume(int r) {
    Fiber& f = fibers[static_cast<std::size_t>(r)];
    if (!f.map && !start(r)) return;
#ifdef PARAD_FIBER_ASAN
    void* fake = nullptr;
    __sanitizer_start_switch_fiber(&fake, f.map + pageBytes(),
                                   fiberStackBytes());
#endif
#ifdef PARAD_FIBER_TSAN
    __tsan_switch_to_fiber(f.tsan, 0);
#endif
    swapcontext(&loop, &f.ctx);
#ifdef PARAD_FIBER_ASAN
    __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#endif
    if (state[static_cast<std::size_t>(r)] == State::Done)
      releaseStack(static_cast<std::size_t>(r));
  }

  // Fiber r -> loop. An exiting fiber never returns from this switch: like
  // any noreturn call it clears the poison of the frames it abandons (so the
  // unmapped range leaves no stale shadow behind), and it hands its fake
  // stack back to ASan.
  void yield(int r, bool exiting) {
    Fiber& f = fibers[static_cast<std::size_t>(r)];
#ifdef PARAD_FIBER_ASAN
    void* fake = nullptr;
    if (exiting) __asan_handle_no_return();
    __sanitizer_start_switch_fiber(exiting ? nullptr : &fake, loopStack,
                                   loopStackBytes);
#else
    (void)exiting;
#endif
#ifdef PARAD_FIBER_TSAN
    __tsan_switch_to_fiber(tsanLoop, 0);
#endif
    swapcontext(&f.ctx, &loop);
#ifdef PARAD_FIBER_ASAN
    __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#endif
  }

  void releaseStack(std::size_t r) {
    Fiber& f = fibers[r];
    if (!f.map) return;
#ifdef PARAD_FIBER_TSAN
    __tsan_destroy_fiber(f.tsan);
    f.tsan = nullptr;
#endif
    munmap(f.map, pageBytes() + fiberStackBytes());
    f.map = nullptr;
  }
};

void CoopScheduler::run(int nranks, const std::function<void(int)>& fn,
                        const std::function<double(int)>& clockOf) {
  PARAD_CHECK(nranks >= 1, "need at least one rank");
  Impl impl(nranks, fn, clockOf, failureBuilder_, virtualNsBound_);
  std::thread([this, &impl] {
    impl_ = &impl;
    impl.schedule();
    impl_ = nullptr;
  }).join();
  telemetry_ = std::move(impl.telemetry);
  // Rethrow the most informative error: a rank that failed for a concrete
  // reason (an app error, a watchdog trip, a collective mismatch) beats the
  // consequent deadlock reports of the ranks it stranded.
  std::exception_ptr first, preferred;
  for (const auto& e : impl.err) {
    if (!e) continue;
    if (!first) first = e;
    if (!preferred) {
      try {
        std::rethrow_exception(e);
      } catch (const VmError& v) {
        if (v.report().kind != FailureReport::Kind::Deadlock) preferred = e;
      } catch (...) {
        preferred = e;
      }
    }
  }
  if (preferred) std::rethrow_exception(preferred);
  if (first) std::rethrow_exception(first);
}

void CoopScheduler::abortAll(std::exception_ptr e) {
  PARAD_CHECK(impl_, "abortAll called outside a run");
  Impl& impl = *impl_;
  impl.failed = true;
  impl.current = -1;
  for (std::size_t r = 0; r < impl.err.size(); ++r)
    if (!impl.err[r] && impl.state[r] != Impl::State::Done) impl.err[r] = e;
}

void CoopScheduler::block(int rank) {
  PARAD_CHECK(impl_, "block called outside a run");
  // The caught-exception stack is per thread, not per fiber: a rank parked
  // inside a catch handler would interleave its handler with other ranks'.
  PARAD_CHECK(!std::current_exception(), "block called inside a catch handler");
  Impl& impl = *impl_;
  PARAD_CHECK(impl.current == rank, "block called by non-running rank");
  impl.state[static_cast<std::size_t>(rank)] = Impl::State::Blocked;
  if (impl.fibers.empty())
    impl.pickNext();  // a lone rank has nobody to wake it: a deadlock
  else
    impl.yield(rank, /*exiting=*/false);
  if (impl.failed) {
    impl.state[static_cast<std::size_t>(rank)] = Impl::State::Done;
    std::exception_ptr e = impl.err[static_cast<std::size_t>(rank)];
    if (!e) e = impl.buildFailure(FailureReport::Kind::Deadlock, rank);
    std::rethrow_exception(e);
  }
}

void CoopScheduler::wake(int rank) {
  PARAD_CHECK(impl_, "wake called outside a run");
  Impl& impl = *impl_;
  if (impl.failed) return;
  PARAD_CHECK(impl.state[static_cast<std::size_t>(rank)] ==
                  Impl::State::Blocked,
              "wake on a rank that is not blocked");
  impl.state[static_cast<std::size_t>(rank)] = Impl::State::Ready;
  impl.ready.emplace(impl.clockOf(rank), rank);
  ++impl.telemetry.wakes[static_cast<std::size_t>(rank)];
}

}  // namespace parad::psim
