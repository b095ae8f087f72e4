#include "src/interp/backend.h"

#include <mutex>
#include <utility>

#include "src/interp/exec.h"
#include "src/interp/lower.h"
#include "src/interp/treewalk.h"
#include "src/support/knobs.h"

namespace parad::interp {

namespace {

class ExecEngineBackend final : public ExecBackend {
 public:
  std::string_view name() const override { return "exec"; }
  RtVal run(const ir::Module& mod, const ir::Function& fn,
            std::vector<RtVal> args, psim::Machine& machine,
            psim::RankEnv& env) const override {
    std::shared_ptr<const ExecModule> xm =
        compileClosure(mod, fn, machine.runId());
    Executor ex(*xm, machine);
    return ex.run(std::move(args), env);
  }
};

class TreeWalkBackend final : public ExecBackend {
 public:
  std::string_view name() const override { return "tree"; }
  RtVal run(const ir::Module& mod, const ir::Function& fn,
            std::vector<RtVal> args, psim::Machine& machine,
            psim::RankEnv& env) const override {
    // Fresh walker per run: its defined-value cache holds Inst pointers and
    // must not outlive a pass that reallocates instruction storage.
    TreeWalker tw(mod, machine);
    return tw.run(fn, std::move(args), env);
  }
};

}  // namespace

const BackendRegistry& BackendRegistry::global() {
  static const BackendRegistry registry;
  return registry;
}

const ExecBackend& BackendRegistry::resolve(std::string_view spec) const {
  static const ExecEngineBackend exec;
  static const TreeWalkBackend tree;
  // "lowered" and "treewalk" are the spellings from before "exec" and "tree".
  if (spec == "exec" || spec == "lowered") return exec;
  if (spec == "tree" || spec == "treewalk") return tree;
  if (spec == "codegen") return codegenBackend();
  failUnknownName("engine", "backend", spec, {"codegen", "exec", "tree"},
                  "backends");
}

// ---------------------------------------------------------------------------
// Default-engine selection + Interpreter facade.

namespace {
// The default-engine slot is read by every Interpreter constructed without an
// explicit engine — including the serving layer's worker threads — so reads
// and setDefaultEngine writes are serialized by a mutex.
std::mutex& engineMu() {
  static std::mutex mu;
  return mu;
}
std::string& engineSlot() {
  static std::string engine = [] {
    std::string s = envText("PARAD_ENGINE");
    if (s.empty()) return std::string("exec");
    // resolve() validates the value: an unknown PARAD_ENGINE fails loudly
    // with the backend list instead of silently running exec.
    return std::string(BackendRegistry::global().resolve(s).name());
  }();
  return engine;
}
}  // namespace

std::string defaultEngine() {
  std::lock_guard<std::mutex> lock(engineMu());
  return engineSlot();
}

void setDefaultEngine(std::string_view engine) {
  std::string canonical(BackendRegistry::global().resolve(engine).name());
  std::lock_guard<std::mutex> lock(engineMu());
  engineSlot() = std::move(canonical);
}

Interpreter::Interpreter(const ir::Module& mod, psim::Machine& machine)
    : Interpreter(mod, machine, defaultEngine()) {}

Interpreter::Interpreter(const ir::Module& mod, psim::Machine& machine,
                         std::string_view engine)
    : mod_(mod),
      machine_(machine),
      backend_(&BackendRegistry::global().resolve(engine)) {}

RtVal Interpreter::run(const ir::Function& fn, std::vector<RtVal> args,
                       psim::RankEnv& env) {
  return backend_->run(mod_, fn, std::move(args), machine_, env);
}

std::string_view Interpreter::engine() const { return backend_->name(); }

}  // namespace parad::interp
