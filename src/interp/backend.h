// Execution backends (DESIGN.md §13).
//
// The Interpreter facade dispatches to one of a fixed table of ExecBackend
// engines, resolved by name. `PARAD_ENGINE=<name>` selects the default;
// unknown names are rejected with the shared unknown-name error (knobs.h)
// listing the backends, with a did-you-mean suggestion.
//
// Backends:
//   exec     tight dispatch loop over lowered ExecPrograms (default;
//            alias: "lowered")
//   tree     recursive reference interpreter (alias: "treewalk")
//   codegen  lowered programs emitted as C++, compiled by the host compiler
//            into a dlopen'd shared object; falls back to exec with a
//            Backend remark when no host compiler is available
//
// Every backend honors the same contract: bit-identical values, memory,
// RunStats and virtual clocks for the same (module, function, machine, env).
// The differential suites in tests/ sweep all three to enforce it.
#pragma once

#include <string_view>
#include <vector>

#include "src/interp/interp.h"

namespace parad::interp {

/// One execution engine. Implementations must be stateless across runs (a
/// backend instance is shared by every Interpreter that names it, across
/// ranks and threads); per-run state lives in locals or in caches with their
/// own locking.
class ExecBackend {
 public:
  virtual ~ExecBackend() = default;

  /// Canonical name ("exec", "tree" or "codegen").
  virtual std::string_view name() const = 0;

  /// Runs `fn` as the given rank's program. Same contract as
  /// Interpreter::run.
  virtual RtVal run(const ir::Module& mod, const ir::Function& fn,
                    std::vector<RtVal> args, psim::Machine& machine,
                    psim::RankEnv& env) const = 0;
};

/// The fixed, immutable engine table.
class BackendRegistry {
 public:
  static const BackendRegistry& global();

  /// Resolves an engine name or alias ("lowered" -> exec, "treewalk" ->
  /// tree). Unknown names fail with the shared unknown-name error listing
  /// the canonical names, sorted, and a did-you-mean suggestion.
  const ExecBackend& resolve(std::string_view spec) const;

 private:
  BackendRegistry() = default;
};

/// The codegen engine (codegen.cpp).
const ExecBackend& codegenBackend();

}  // namespace parad::interp
