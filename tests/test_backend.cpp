// Engine table + native codegen backend (DESIGN.md §13).
//
// Covers the engine surface the differential suites assume: the fixed
// engine table and its aliases, strict PARAD_ENGINE-style spec rejection
// (structured error, did-you-mean), and the codegen artifact life cycle —
// compile once, reuse on the closure, disk reuse across processes
// (simulated by freshProcess()), eviction with the closure, one lookup per
// closure under concurrent runs, corrupt- and stale-artifact invalidation,
// fingerprint revalidation after a pass mutates IR in place, and the
// graceful no-compiler fallback to exec.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/interp/backend.h"
#include "src/interp/codegen.h"
#include "src/interp/lower.h"
#include "src/passes/passes.h"
#include "src/support/common.h"
#include "tests/test_util.h"

namespace parad {
namespace {

using ir::Type;
using ir::Value;

// ---------------------------------------------------------------------------
// Fixtures and helpers.

/// Restores the process-wide default engine on scope exit.
struct EngineGuard {
  std::string saved;
  EngineGuard() : saved(interp::defaultEngine()) {}
  ~EngineGuard() { interp::setDefaultEngine(saved); }
};

/// Models a fresh process against a warm disk: drops every lowered closure
/// (and with it the codegen artifact it carries, unless a caller still holds
/// the closure) and the codegen cache's sticky failure state.
void freshProcess() {
  interp::ProgramCache::global().clear();
  interp::CodegenCache::global().clear();
}

/// Points the codegen cache at a private fresh directory for one test and
/// restores the previous configuration (plus fresh caches) on exit. Disk
/// artifacts and closures from other tests can then never satisfy a lookup.
struct CodegenSandbox {
  interp::CodegenConfig saved;
  std::string dir;

  explicit CodegenSandbox(interp::CodegenConfig cfg = {}) {
    auto& cache = interp::CodegenCache::global();
    saved = cache.config();
    std::string tmpl = ::testing::TempDir() + "parad_backend_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* made = ::mkdtemp(buf.data());
    PARAD_CHECK(made != nullptr, "mkdtemp failed for ", tmpl);
    dir = made;
    cfg.cacheDir = dir;
    cache.setConfig(cfg);
    freshProcess();
    cache.clearRemarks();
  }
  ~CodegenSandbox() {
    auto& cache = interp::CodegenCache::global();
    cache.setConfig(saved);
    freshProcess();
    cache.clearRemarks();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

/// f(x: ptr<f64>, n) -> f64: a small arithmetic kernel whose one tunable
/// constant makes structurally-distinct closures on demand (distinct
/// fingerprints, so tests never collide in the artifact cache).
ir::Module arithModule(double c) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
  auto x = b.param(0);
  auto n = b.param(1);
  auto acc = b.alloc(b.constI(1), Type::F64);
  b.store(acc, b.constI(0), b.constF(0));
  b.emitFor(b.constI(0), n, [&](Value i) {
    auto v = b.fadd(b.fmul(b.load(x, i), b.constF(c)), b.constF(0.25));
    auto cur = b.load(acc, b.constI(0));
    b.store(acc, b.constI(0), b.fadd(cur, v));
  });
  b.ret(b.load(acc, b.constI(0)));
  b.finish();
  return mod;
}

const std::vector<double> kInput = {0.5, -1.25, 3.0, 0.125, 7.5};

double runWith(const ir::Module& mod, std::string_view engine) {
  psim::Machine m;
  psim::RtPtr p = test::makeF64(m, kInput);
  interp::RtVal out{};
  m.run({1, 4}, [&](psim::RankEnv& env) {
    interp::Interpreter it(mod, m, engine);
    out = it.run(mod.get("f"), {interp::RtVal::P(p), interp::RtVal::I(5)},
                 env);
  });
  return out.u.f;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
  return buf;
}

/// On-disk artifact path the cache uses for this closure (content-addressed
/// naming contract: parad_cg_<16-hex fingerprint>.so under the cache dir).
std::string artifactPath(const ir::Module& mod) {
  auto xm = interp::compileClosure(mod, mod.get("f"));
  return interp::CodegenCache::global().cacheDirInUse() + "/parad_cg_" +
         hex64(interp::closureFingerprint(*xm)) + ".so";
}

// ---------------------------------------------------------------------------
// Engine table.

TEST(BackendRegistry, BuiltinsRegistered) {
  auto& reg = interp::BackendRegistry::global();
  for (const char* name : {"exec", "tree", "codegen"})
    EXPECT_EQ(reg.resolve(name).name(), name);
}

TEST(BackendRegistry, ResolvesAliases) {
  auto& reg = interp::BackendRegistry::global();
  EXPECT_EQ(reg.resolve("lowered").name(), "exec");
  EXPECT_EQ(reg.resolve("treewalk").name(), "tree");
  EXPECT_EQ(reg.resolve("exec").name(), "exec");
  EXPECT_EQ(reg.resolve("tree").name(), "tree");
  EXPECT_EQ(reg.resolve("codegen").name(), "codegen");
}

TEST(BackendRegistry, SetDefaultEngineStoresCanonicalName) {
  EngineGuard guard;
  interp::setDefaultEngine("lowered");
  EXPECT_EQ(interp::defaultEngine(), "exec");
  interp::setDefaultEngine("treewalk");
  EXPECT_EQ(interp::defaultEngine(), "tree");
}

TEST(BackendRegistry, UnknownEngineRejectedWithSuggestion) {
  auto& reg = interp::BackendRegistry::global();
  try {
    reg.resolve("exe");  // one edit away from "exec"
    FAIL() << "expected resolve to reject an unknown engine";
  } catch (const Error& e) {
    // The full registered list follows, in deterministic (sorted) order.
    EXPECT_EQ(std::string(e.what()),
              "engine: unknown backend 'exe' (did you mean 'exec'?) "
              "(backends: codegen, exec, tree)");
  }
}

TEST(BackendRegistry, UnknownEngineFarFromAnyNameGetsNoSuggestion) {
  try {
    interp::BackendRegistry::global().resolve("fortran");
    FAIL() << "expected resolve to reject an unknown engine";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "engine: unknown backend 'fortran' (backends: codegen, exec, "
              "tree)");
  }
}

TEST(BackendRegistry, SetDefaultEngineRejectsUnknown) {
  EngineGuard guard;
  EXPECT_THROW(interp::setDefaultEngine("bogus-engine"), Error);
  // A failed set leaves the previous default intact.
  EXPECT_EQ(interp::defaultEngine(), guard.saved);
}

// ---------------------------------------------------------------------------
// Codegen fingerprints and source emission.

TEST(Codegen, ClosureFingerprintTracksStructure) {
  ir::Module a1 = arithModule(1.5);
  ir::Module a2 = arithModule(1.5);
  ir::Module b = arithModule(2.5);
  auto xa1 = interp::compileClosure(a1, a1.get("f"));
  auto xa2 = interp::compileClosure(a2, a2.get("f"));
  auto xb = interp::compileClosure(b, b.get("f"));
  // Content-addressed: structurally identical closures share a fingerprint
  // regardless of module identity; one changed constant separates them.
  EXPECT_EQ(interp::closureFingerprint(*xa1),
            interp::closureFingerprint(*xa2));
  EXPECT_NE(interp::closureFingerprint(*xa1), interp::closureFingerprint(*xb));
}

TEST(Codegen, EmitClosureSourceIsSelfContained) {
  ir::Module mod = arithModule(1.5);
  auto xm = interp::compileClosure(mod, mod.get("f"));
  std::string src = interp::emitClosureSource(*xm);
  // The required C ABI exports and the bit-exact constant helpers.
  EXPECT_NE(src.find("parad_cg_abi"), std::string::npos);
  EXPECT_NE(src.find("parad_cg_fp"), std::string::npos);
  EXPECT_NE(src.find("parad_cg_range"), std::string::npos);
  EXPECT_NE(src.find("pd_f64"), std::string::npos);
  // No host headers beyond the freestanding-ish prelude: the TU must compile
  // without the parad source tree on the include path.
  EXPECT_EQ(src.find("#include \""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Codegen artifact-cache life cycle.
//
// These tests need a host compiler; when the build-time compiler is somehow
// unavailable at test time they would exercise the fallback path instead and
// misreport, so they skip explicitly.

bool hostCompilerAvailable() {
  ir::Module probe = arithModule(123.456);  // unlikely to collide
  CodegenSandbox sandbox;
  (void)runWith(probe, "codegen");
  return interp::CodegenCache::global().counters().fallbacks == 0 ||
         interp::CodegenCache::global().remarksDump().find(
             "no usable host compiler") == std::string::npos;
}

TEST(Codegen, CompileOnceThenMemoryHitThenDiskReuse) {
  if (!hostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  CodegenSandbox sandbox;
  auto& cache = interp::CodegenCache::global();
  ir::Module mod = arithModule(1.5);
  double want = runWith(mod, "exec");

  // First run: source emitted, host compiler invoked, artifact installed.
  auto c0 = cache.counters();
  EXPECT_EQ(runWith(mod, "codegen"), want);
  auto c1 = cache.counters();
  EXPECT_EQ(c1.compiles, c0.compiles + 1);
  EXPECT_EQ(c1.fallbacks, c0.fallbacks);
  EXPECT_NE(cache.remarksDump().find("codegen: compiled @f"),
            std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(artifactPath(mod)));

  // Second run in the same process: the cached closure carries its artifact,
  // so the cache is not consulted again.
  EXPECT_EQ(runWith(mod, "codegen"), want);
  auto c2 = cache.counters();
  EXPECT_EQ(c2.compiles, c1.compiles);
  EXPECT_EQ(c2.diskHits, c1.diskHits);
  EXPECT_EQ(c2.fallbacks, c1.fallbacks);

  // A fresh process against a warm cache directory must reuse the shared
  // object without recompiling.
  freshProcess();
  cache.clearRemarks();
  EXPECT_EQ(runWith(mod, "codegen"), want);
  auto c3 = cache.counters();
  EXPECT_EQ(c3.compiles, c2.compiles);
  EXPECT_EQ(c3.diskHits, c2.diskHits + 1);
  EXPECT_NE(cache.remarksDump().find("reused on-disk artifact"),
            std::string::npos);
}

TEST(Codegen, CorruptArtifactIsDiscardedAndRecompiled) {
  if (!hostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  CodegenSandbox sandbox;
  auto& cache = interp::CodegenCache::global();
  ir::Module mod = arithModule(3.5);
  double want = runWith(mod, "exec");
  EXPECT_EQ(runWith(mod, "codegen"), want);
  std::uint64_t compiles = cache.counters().compiles;

  // Simulate a fresh process first (dlclose — never scribble over a shared
  // object that is still mapped), then trash the installed artifact.
  freshProcess();
  cache.clearRemarks();
  std::string so = artifactPath(mod);
  ASSERT_TRUE(std::filesystem::exists(so));
  std::filesystem::remove(so);
  {
    std::ofstream out(so, std::ios::binary);
    out << "this is not a shared object";
  }

  EXPECT_EQ(runWith(mod, "codegen"), want);
  EXPECT_EQ(cache.counters().compiles, compiles + 1);
  EXPECT_NE(cache.remarksDump().find("discarding stale artifact"),
            std::string::npos);
}

TEST(Codegen, StaleFingerprintArtifactIsInvalidated) {
  if (!hostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  CodegenSandbox sandbox;
  auto& cache = interp::CodegenCache::global();
  ir::Module modA = arithModule(4.5);
  ir::Module modB = arithModule(5.5);
  double wantB = runWith(modB, "exec");

  // Compile A, then plant its (valid, loadable) artifact at B's
  // content-address — the disk-cache poisoning a rename/copy race could
  // leave behind. The dlopen validation must reject it on the embedded
  // fingerprint and recompile.
  EXPECT_EQ(runWith(modA, "exec"), runWith(modA, "codegen"));
  std::filesystem::copy_file(
      artifactPath(modA), artifactPath(modB),
      std::filesystem::copy_options::overwrite_existing);
  freshProcess();
  cache.clearRemarks();
  std::uint64_t compiles = cache.counters().compiles;

  EXPECT_EQ(runWith(modB, "codegen"), wantB);
  EXPECT_EQ(cache.counters().compiles, compiles + 1);
  EXPECT_NE(cache.remarksDump().find("fingerprint mismatch"),
            std::string::npos);
}

TEST(Codegen, PassMutationRelowersAndRecompiles) {
  if (!hostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  CodegenSandbox sandbox;
  auto& cache = interp::CodegenCache::global();
  // Like arithModule, but the multiplier is a foldable const expression:
  // cleanup() collapses fadd(3.0, 3.5) to a constant, shrinking the function
  // without changing its value — mutation with a bit-identical result.
  ir::Module mod;
  {
    ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
    auto x = b.param(0);
    auto n = b.param(1);
    auto acc = b.alloc(b.constI(1), Type::F64);
    b.store(acc, b.constI(0), b.constF(0));
    auto scale = b.fadd(b.constF(3.0), b.constF(3.5));
    b.emitFor(b.constI(0), n, [&](Value i) {
      auto v = b.fadd(b.fmul(b.load(x, i), scale), b.constF(0.25));
      auto cur = b.load(acc, b.constI(0));
      b.store(acc, b.constI(0), b.fadd(cur, v));
    });
    b.ret(b.load(acc, b.constI(0)));
    b.finish();
  }
  auto before = interp::compileClosure(mod, mod.get("f"));
  std::uint64_t fpBefore = interp::closureFingerprint(*before);
  double want = runWith(mod, "exec");
  EXPECT_EQ(want, runWith(mod, "codegen"));
  std::uint64_t compiles = cache.counters().compiles;

  // cleanup() folds constants / eliminates dead code in place; the program
  // cache revalidates its structural fingerprint and relowers, and the
  // codegen cache sees a new closure fingerprint and compiles fresh — the
  // old artifact can never serve the mutated IR.
  passes::cleanup(mod, "f");
  auto after = interp::compileClosure(mod, mod.get("f"));
  std::uint64_t fpAfter = interp::closureFingerprint(*after);
  ASSERT_NE(fpBefore, fpAfter);

  EXPECT_EQ(want, runWith(mod, "exec"));
  EXPECT_EQ(want, runWith(mod, "codegen"));
  EXPECT_EQ(cache.counters().compiles, compiles + 1);
}

TEST(Codegen, ProgramCacheEvictionDropsArtifactAndDiskStillServes) {
  if (!hostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  CodegenSandbox sandbox;
  auto& cache = interp::CodegenCache::global();
  auto& programs = interp::ProgramCache::global();
  const std::size_t savedCap = programs.capacityBytes();
  programs.setCapacityBytes(1);  // far below one closure: keep the newest
  ir::Module modA = arithModule(21.5);
  ir::Module modB = arithModule(22.5);
  double wantA = runWith(modA, "exec");
  double wantB = runWith(modB, "exec");

  auto c0 = cache.counters();
  EXPECT_EQ(runWith(modA, "codegen"), wantA);
  std::weak_ptr<const interp::CodegenArtifact> artA =
      interp::compileClosure(modA, modA.get("f"))->codegen;
  EXPECT_FALSE(artA.expired());
  // Lowering B evicts A's closure (the cap never evicts the entry being
  // inserted, so B itself survives), and A's artifact goes with it.
  const std::uint64_t e0 = programs.evictions();
  EXPECT_EQ(runWith(modB, "codegen"), wantB);
  auto c1 = cache.counters();
  EXPECT_EQ(c1.compiles, c0.compiles + 2);
  EXPECT_GE(programs.evictions(), e0 + 1);
  EXPECT_TRUE(artA.expired());

  // A's shared object is still installed on disk: re-running A relowers it
  // and reloads the artifact from disk instead of recompiling — eviction
  // trades memory for dlopens, never correctness.
  EXPECT_EQ(runWith(modA, "codegen"), wantA);
  auto c2 = cache.counters();
  EXPECT_EQ(c2.compiles, c1.compiles);
  EXPECT_EQ(c2.diskHits, c1.diskHits + 1);
  EXPECT_TRUE(std::filesystem::exists(artifactPath(modA)));

  // B was evicted in turn; its run also comes back from disk and stays
  // bit-identical.
  EXPECT_EQ(runWith(modB, "codegen"), wantB);
  EXPECT_EQ(cache.counters().compiles, c2.compiles);
  EXPECT_EQ(cache.counters().diskHits, c2.diskHits + 1);
  programs.setCapacityBytes(savedCap);
}

TEST(Codegen, DiskCapSweepsOldestArtifacts) {
  if (!hostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  interp::CodegenConfig cfg;
  cfg.diskCapacityBytes = 1;  // every install sweeps all older artifacts
  CodegenSandbox sandbox(cfg);
  auto& cache = interp::CodegenCache::global();
  ir::Module modA = arithModule(31.5);
  ir::Module modB = arithModule(32.5);
  double wantA = runWith(modA, "exec");
  double wantB = runWith(modB, "exec");

  auto c0 = cache.counters();
  EXPECT_EQ(runWith(modA, "codegen"), wantA);
  ASSERT_TRUE(std::filesystem::exists(artifactPath(modA)));
  // Installing B sweeps A's .so (and its source/log siblings) from the cache
  // directory; the freshly-installed artifact is never its own victim.
  EXPECT_EQ(runWith(modB, "codegen"), wantB);
  auto c1 = cache.counters();
  EXPECT_GE(c1.diskEvictions, c0.diskEvictions + 1);
  EXPECT_FALSE(std::filesystem::exists(artifactPath(modA)));
  EXPECT_TRUE(std::filesystem::exists(artifactPath(modB)));

  // A fresh process finds A gone from memory and disk: the lookup
  // recompiles and the value is still bit-identical.
  freshProcess();
  EXPECT_EQ(runWith(modA, "codegen"), wantA);
  EXPECT_EQ(cache.counters().compiles, c1.compiles + 1);
}

TEST(Codegen, FallsBackToExecWithoutCompiler) {
  interp::CodegenConfig cfg;
  cfg.compiler = "/nonexistent/parad-no-such-compiler";
  CodegenSandbox sandbox(cfg);
  auto& cache = interp::CodegenCache::global();
  ir::Module mod = arithModule(7.5);

  auto before = cache.counters();
  // Identical result — the fallback IS the exec engine, not an approximation.
  EXPECT_EQ(runWith(mod, "codegen"), runWith(mod, "exec"));
  auto after = cache.counters();
  EXPECT_EQ(after.fallbacks, before.fallbacks + 1);
  EXPECT_EQ(after.compiles, before.compiles);

  // Structured Backend remark, not an error: the engine stays usable.
  std::string remarks = cache.remarksDump();
  EXPECT_NE(remarks.find("no usable host compiler"), std::string::npos)
      << remarks;
  EXPECT_NE(remarks.find("falling back to exec engine"), std::string::npos)
      << remarks;

  // The closure remembers its failed lookup, so a later run neither
  // re-probes the toolchain nor counts another fallback (a relowered closure
  // would hit the sticky failed-fingerprint set instead); it still produces
  // exec-identical results.
  EXPECT_EQ(runWith(mod, "codegen"), runWith(mod, "exec"));
  EXPECT_EQ(cache.counters().fallbacks, after.fallbacks);
}

TEST(CacheConcurrency, CodegenArtifactLookedUpOncePerClosure) {
  if (!hostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  CodegenSandbox sandbox;
  auto& cache = interp::CodegenCache::global();
  ir::Module mod = arithModule(41.5);
  // The exec reference run also lowers the closure into the ProgramCache,
  // so every codegen run below shares that one closure.
  const double want = runWith(mod, "exec");

  constexpr int kThreads = 8;
  std::vector<double> got(kThreads, 0.0);
  const auto c0 = cache.counters();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] { got[t] = runWith(mod, "codegen"); });
  for (auto& th : threads) th.join();
  const auto c1 = cache.counters();

  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], want) << "t=" << t;
  // Exactly one lookup reached the cache: one compile (or, on a warm disk,
  // one disk hit; with a broken toolchain, one fallback).
  EXPECT_EQ((c1.compiles + c1.diskHits + c1.fallbacks) -
                (c0.compiles + c0.diskHits + c0.fallbacks),
            1u);
}

}  // namespace
}  // namespace parad
