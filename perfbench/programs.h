// The paper's application variants as the benchmark drives them: compile
// (build -> prepareForAD -> plan/generate -> optimizeGradient -> lower), run
// on a psim::Machine the benchmark owns, and check against independent
// oracles. Every call into a library layer sits inside a trace span.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/lulesh/lulesh.h"
#include "src/apps/minibude/minibude.h"
#include "src/core/gradient.h"
#include "src/ir/inst.h"
#include "src/psim/machine.h"

namespace perfbench {

struct Variant {
  std::string name;
  bool bude = false;  // miniBUDE; LULESH otherwise
  parad::apps::lulesh::Config lulesh;
  parad::apps::minibude::Config minibude;
  int threads = 1;  // virtual threads per rank

  int ranks() const { return bude ? minibude.ranks() : lulesh.ranks(); }
  const char* primal() const { return bude ? "bude" : "lulesh"; }
};

/// Message-passing LULESH, 64 ranks (4^3), block 2^3, 10 steps.
Variant mpHaloVariant();
/// The ten paper variants at a tiny size, in a fixed canonical order.
std::vector<Variant> sweepVariants();

/// A compiled variant: the module holds the prepared primal and its
/// optimized gradient; the gradient closure is lowered (in ProgramCache).
struct Compiled {
  std::unique_ptr<parad::ir::Module> mod;  // heap: ProgramCache keys by address
  std::string primal;                      // the differentiated function
  parad::core::GradConfig cfg;             // what generateGradient was given
  parad::core::GradInfo gi;
  std::uint64_t instsPrimal = 0;  // IR insts after prepareForAD
  std::uint64_t instsGrad = 0;    // IR insts of the gradient after optimize
  std::size_t lowerBytes = 0;     // execModuleBytes of the lowered gradient
  ~Compiled();                    // drops the module's ProgramCache entries
  Compiled() = default;
  Compiled(Compiled&&) = default;
  Compiled& operator=(Compiled&&) = delete;
};

/// Compiles the function `primal` that `build` emits into a fresh module,
/// differentiating wrt the pointer arguments marked in `activeArg`.
Compiled compileModule(const std::function<void(parad::ir::Module&)>& build,
                       const char* primal, const std::vector<bool>& activeArg,
                       long op);
/// Median wall time (ms) of core::planGradient on `c`'s primal. Called off
/// the clock: an op plans only inside generateGradient.
double planMs(const Compiled& c);
/// Compiles `v` from a fresh module.
Compiled compile(const Variant& v, long op);

/// Seeded inputs of one variant: per-rank LULESH state, or a miniBUDE deck.
struct Inputs {
  std::vector<parad::apps::lulesh::State> ranks;
  parad::apps::minibude::Deck deck;
};
Inputs makeInputs(const Variant& v, std::uint64_t seed);
/// Inputs the exact-count fingerprint is taken on, whatever the run's seed.
constexpr std::uint64_t kFingerprintSeed = 0;

struct RunOut {
  double makespan = 0;   // virtual ns
  double objective = 0;  // final energy sum (LULESH) / pose-energy sum
  /// Every shadow the gradient writes, rank-concatenated (LULESH: de, dv, du
  /// per rank; miniBUDE: dposes, dlig per rank).
  std::vector<double> grad;
  parad::psim::RunStats stats;
  std::uint64_t contextSwitches = 0;
};

/// Runs the primal or the gradient of `c` on a fresh Machine with `engine`.
RunOut run(const Variant& v, const Compiled& c, const Inputs& in,
           bool gradient, const char* engine, long op);

/// Independent reference for one variant's outputs, built once per run.
struct Reference {
  double objective = 0;           // oracle objective
  double objectiveRelTol = 0;     // tolerance of the objective check
  std::vector<double> grad;       // tree-engine gradient: bit-identical target
  double primalNs = 0, gradNs = 0;
  RunOut exec;                    // one exec-engine gradient run
  std::string error;              // non-empty: the reference itself failed
};
Reference buildReference(const Variant& v, const Compiled& c,
                         const Inputs& in);

/// Checks one exec-engine gradient run against the reference. Returns an
/// empty string when it matches, else what differed.
std::string check(const Reference& ref, const RunOut& out);

/// Total instruction count of a function, nested regions included.
std::uint64_t countInsts(const parad::ir::Function& fn);

}  // namespace perfbench
