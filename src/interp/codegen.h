// Native-codegen backend (DESIGN.md §13): lowered ExecPrograms emitted as
// C++ source, compiled by the host toolchain into a shared object, dlopen'd
// and dispatched natively.
//
// This is the CppADCodeGen/autogen architecture applied to our lower->exec
// pipeline: the flat ExecProgram (const folding, superinstructions,
// pre-resolved callees, barrier segmentation) is already the right input for
// code emission, so the emitter is a straight-line walk that prints each
// range — every block and every fork segment — as one C++ function with the
// exec engine's evaluation order and per-op clock charges inlined. Anything
// that touches machine state beyond the frame (memory objects, fabric,
// fork/task orchestration, kill probes, watchdogs) calls back into the host
// through the C ABI in codegen_abi.h; each callback is a call into the
// run's machine Runtime (runtime.h), through the exec engine's operand
// decoding (Executor::execComplexInst, callProgram) where there is any, so
// values, gradients, RunStats and virtual clocks are bit-identical to the
// exec and tree engines by construction. Generated code is compiled with
// -ffp-contract=off and no -march so its FP arithmetic rounds exactly like
// the host-compiled engines.
//
// Artifacts are content-addressed: the cache key is an FNV-1a fingerprint
// over the closure's per-program structural fingerprints (the same hashes
// ProgramCache revalidates against) plus the ABI and generator versions.
// Shared objects live under a per-user cache directory and are reused
// across processes; a fingerprint or ABI mismatch at dlopen time discards
// the stale artifact and recompiles. When no host compiler is available the
// backend falls back to the exec engine with a structured Backend remark —
// never an error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/remarks.h"
#include "src/interp/lower.h"
#include "src/io/store.h"

namespace parad::interp {

/// Process-wide configuration of the codegen backend. Tests override the
/// compiler (to force the no-compiler fallback) and the cache directory (to
/// exercise cross-process disk reuse deterministically).
struct CodegenConfig {
  std::string compiler;    // "": $PARAD_CXX, else the build-time compiler
  std::string cacheDir;    // "": $PARAD_CODEGEN_DIR, else per-user tmp dir
  std::string extraFlags;  // appended to the compile line ($PARAD_CODEGEN_FLAGS)
  // Byte capacity of the on-disk artifact store; 0 = unbounded (the default,
  // also settable via $PARAD_CODEGEN_DISK_BYTES). The store sweeps
  // oldest-modified artifacts (plus their source/log siblings) after each
  // install; a swept artifact recompiles on its next lookup. In memory an
  // artifact lives on the lowered closure it was built from (ExecModule::
  // codegen) and is dlclosed with it, e.g. when the ProgramCache evicts it.
  std::size_t diskCapacityBytes = 0;
  // Seeded disk-fault injection for the artifact install path (tests): an
  // injected failure or torn install is tolerated exactly like a real one —
  // remark + graceful exec fallback, recompile on the next lookup. The
  // write/validate/sweep machinery is shared with the durable checkpoint
  // store (src/io/store.h, DESIGN.md §16).
  io::IoFaultConfig ioFaults;
};

struct CodegenCounters {
  std::uint64_t compiles = 0;   // source emitted and host compiler invoked
  std::uint64_t diskHits = 0;   // artifact dlopen'd straight from disk
  std::uint64_t fallbacks = 0;  // lookups that fell back to the exec engine
  std::uint64_t diskEvictions = 0;  // .so files swept from the cache dir
};

/// Content-address of a lowered closure for artifact caching: FNV-1a over
/// the per-program structural fingerprints, names and shapes, plus the ABI
/// and generator versions.
std::uint64_t closureFingerprint(const ExecModule& xm);

/// Emits the closure as a self-contained C++ translation unit (exposed for
/// tests and offline inspection; the cache calls it internally).
std::string emitClosureSource(const ExecModule& xm);

/// A dlopen'd generated library plus its range-id table. Opaque to callers;
/// the destructor dlcloses.
class CodegenArtifact;

/// Process-wide artifact store: fingerprint -> compiled shared object on
/// disk, plus the sticky set of fingerprints that failed to build. It holds
/// no artifact in memory; the codegen backend keeps the one it looked up on
/// the closure (ExecModule::codegen).
class CodegenCache {
 public:
  static CodegenCache& global();

  /// Returns the artifact for this closure, from disk or a fresh compile —
  /// or nullptr when the backend must fall back to exec (no host compiler,
  /// compile failure). Never throws for toolchain problems.
  std::shared_ptr<const CodegenArtifact> lookup(const ExecModule& xm);

  /// Forgets sticky no-compiler / failed-compile state. Artifacts already
  /// attached to closures and on-disk shared objects survive; clearing this
  /// and the ProgramCache simulates a fresh process against a warm disk.
  void clear();

  CodegenCounters counters() const;
  CodegenConfig config() const;
  void setConfig(CodegenConfig cfg);

  /// Backend-kind remarks (compile / disk-reuse / fallback decisions), in
  /// emission order since process start or the last clearRemarks().
  std::string remarksDump() const;
  void clearRemarks();

  /// The directory artifacts are written to under the current config.
  std::string cacheDirInUse() const;

 private:
  CodegenCache() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace parad::interp
