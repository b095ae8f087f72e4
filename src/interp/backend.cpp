#include "src/interp/backend.h"

#include <cstdlib>
#include <map>
#include <mutex>
#include <utility>

#include "src/interp/exec.h"
#include "src/interp/lower.h"
#include "src/interp/treewalk.h"
#include "src/support/common.h"
#include "src/support/suggest.h"

namespace parad::interp {

namespace {

// Engine-spec aliases kept for compatibility with pre-registry spellings
// (PARAD_ENGINE=tree|treewalk|lowered predate the registry).
std::string_view canonicalAlias(std::string_view spec) {
  if (spec == "lowered") return "exec";
  if (spec == "treewalk") return "tree";
  return spec;
}

// ---------------------------------------------------------------------------
// Built-in backends.

class ExecEngineBackend final : public ExecBackend {
 public:
  std::string_view name() const override { return "exec"; }
  std::string_view description() const override {
    return "dispatch loop over lowered ExecPrograms (default)";
  }
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
  std::string_view description() const override {
    return "recursive reference interpreter (differential testing)";
  }
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

std::unique_ptr<ExecBackend> makeExecBackend() {
  return std::make_unique<ExecEngineBackend>();
}
std::unique_ptr<ExecBackend> makeTreeWalkBackend() {
  return std::make_unique<TreeWalkBackend>();
}

// ---------------------------------------------------------------------------
// Registry.

struct BackendRegistry::Impl {
  mutable std::mutex mu;
  // Ordered by name so names() and error listings are deterministic.
  std::map<std::string, std::unique_ptr<ExecBackend>, std::less<>> map;
};

BackendRegistry::Impl& BackendRegistry::impl() const {
  // Built-ins are registered on first access through explicit factory calls:
  // no per-TU static registrar objects, so neither static-initialization
  // order nor linker dead-stripping can lose a backend.
  static Impl* instance = [] {
    auto* im = new Impl;
    for (auto make : {makeExecBackend, makeTreeWalkBackend,
                      makeCodegenBackend}) {
      auto b = make();
      std::string key(b->name());
      im->map.emplace(std::move(key), std::move(b));
    }
    return im;
  }();
  return *instance;
}

BackendRegistry& BackendRegistry::global() {
  static BackendRegistry registry;
  return registry;
}

void BackendRegistry::add(std::unique_ptr<ExecBackend> backend) {
  PARAD_CHECK(backend != nullptr, "registering a null backend");
  PARAD_CHECK(!backend->name().empty(), "registering a backend with no name");
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::string key(backend->name());
  im.map[key] = std::move(backend);
}

void BackendRegistry::remove(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.map.find(name);
  if (it != im.map.end()) im.map.erase(it);
}

const ExecBackend* BackendRegistry::find(std::string_view name) const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.map.find(name);
  return it == im.map.end() ? nullptr : it->second.get();
}

const ExecBackend& BackendRegistry::resolve(std::string_view spec) const {
  std::string_view canonical = canonicalAlias(spec);
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.map.find(canonical);
  if (it != im.map.end()) return *it->second;

  std::vector<std::string_view> names;
  std::string list;
  for (const auto& [name, backend] : im.map) {
    (void)backend;
    if (!list.empty()) list += ", ";
    list += name;
    names.push_back(name);
  }
  fail("engine: unknown backend '", spec, "'", didYouMean(spec, names),
       " (backends: ", list, ")");
}

std::vector<std::string> BackendRegistry::names() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::vector<std::string> out;
  out.reserve(im.map.size());
  for (const auto& [name, backend] : im.map) {
    (void)backend;
    out.push_back(name);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Default-engine selection + Interpreter facade.

namespace {
// The default-engine slot is read by every Interpreter constructed without an
// explicit engine — including the serving layer's worker threads — so reads
// and setDefaultEngine writes are serialized by a dedicated mutex (the
// registry's own lock guards the backend map, not this selection).
std::mutex& engineMu() {
  static std::mutex mu;
  return mu;
}
std::string& engineSlot() {
  static std::string engine = [] {
    const char* s = std::getenv("PARAD_ENGINE");
    if (s == nullptr || *s == '\0') return std::string("exec");
    // resolve() validates the value: an unknown PARAD_ENGINE fails loudly
    // with the registered-backend list instead of silently running exec.
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
  // Resolve before taking the slot lock (resolve takes the registry lock).
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
