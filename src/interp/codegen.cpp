#include "src/interp/codegen.h"

#include <dlfcn.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "codegen_abi_embed.h"
#include "src/interp/backend.h"
#include "src/interp/codegen_abi.h"
#include "src/interp/exec.h"
#include "src/support/common.h"
#include "src/support/fnv.h"
#include "src/support/knobs.h"

namespace parad::interp {

using ir::Op;

// Bumped whenever the emitter changes what it prints for the same closure:
// part of the artifact fingerprint, so stale on-disk objects never load.
constexpr std::uint64_t kGeneratorVersion = 4;

// The generated code's structs must alias the host's exactly — every frame,
// worker and return-value pointer crosses the ABI as a reinterpret_cast.
static_assert(sizeof(parad_cg_ptr) == sizeof(psim::RtPtr) &&
                  offsetof(parad_cg_ptr, obj) == offsetof(psim::RtPtr, obj) &&
                  offsetof(parad_cg_ptr, off) == offsetof(psim::RtPtr, off),
              "parad_cg_ptr must mirror psim::RtPtr");
static_assert(sizeof(parad_cg_val) == sizeof(RtVal),
              "parad_cg_val must mirror interp::RtVal");
static_assert(sizeof(parad_cg_worker) == sizeof(psim::WorkerCtx) &&
                  offsetof(parad_cg_worker, clock) ==
                      offsetof(psim::WorkerCtx, clock) &&
                  offsetof(parad_cg_worker, core) ==
                      offsetof(psim::WorkerCtx, core) &&
                  offsetof(parad_cg_worker, socket) ==
                      offsetof(psim::WorkerCtx, socket) &&
                  offsetof(parad_cg_worker, dilation) ==
                      offsetof(psim::WorkerCtx, dilation),
              "parad_cg_worker must mirror psim::WorkerCtx");

namespace {

// The psim::CostTable fields generated code reads, in PARAD_CG_CT_* order:
// each run copies them into parad_cg_ctx::ct, and the emitter charges an
// ops.def row's cost field by its index name.
struct CgCost {
  double psim::CostTable::*field;
  const char* index;
};
constexpr CgCost kCgCosts[] = {
    {&psim::CostTable::flop, "FLOP"},
    {&psim::CostTable::fdiv, "FDIV"},
    {&psim::CostTable::intOp, "INTOP"},
    {&psim::CostTable::intDiv, "INTDIV"},
    {&psim::CostTable::special, "SPECIAL"},
    {&psim::CostTable::powCost, "POW"},
    {&psim::CostTable::minmax, "MINMAX"},
    {&psim::CostTable::loopIter, "LOOPITER"},
    {&psim::CostTable::workshareInit, "WORKSHARE"},
    {&psim::CostTable::gcCost, "GC"},
};
static_assert(std::size(kCgCosts) == PARAD_CG_CT_COUNT,
              "one cost-table field per PARAD_CG_CT_* index");

// ---------------------------------------------------------------------------
// Range enumeration, shared between the emitter and the host-side id lookup
// so generated function ids and execRange interceptions always agree.

struct CgRange {
  int prog;
  std::int32_t begin, end, trailing;
};

std::vector<CgRange> buildRangeTable(const ExecModule& xm) {
  std::vector<CgRange> t;
  for (std::size_t pi = 0; pi < xm.programs.size(); ++pi) {
    const ExecProgram& p = xm.programs[pi];
    for (const ExecBlock& b : p.blocks)
      t.push_back({static_cast<int>(pi), b.begin, b.end, b.trailingConsts});
    for (const ExecSegment& s : p.segments)
      t.push_back({static_cast<int>(pi), s.begin, s.end, s.trailingConsts});
  }
  return t;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Source emitter. Every emitted op mirrors the exec engine's case exactly:
// the same advance-then-compute order, the same member writes, the same
// dispatch counting — so virtual clocks, values and RunStats stay
// bit-identical. Double and i64 constants are emitted as bit patterns to
// survive the text round-trip unchanged.

class SourceEmitter {
 public:
  explicit SourceEmitter(const ExecModule& xm) : xm_(xm) {
    int id = 0;
    for (const ExecProgram& p : xm.programs) {
      progBase_.push_back(id);
      id += static_cast<int>(p.blocks.size() + p.segments.size());
    }
    table_ = buildRangeTable(xm);
  }

  std::string emit(std::uint64_t fp) {
    out_ += "// parad codegen output (generator v" +
            std::to_string(kGeneratorVersion) + ") for closure @" +
            xm_.programs[0].name + " — do not edit\n";
    out_ += "#include <cmath>\n#include <cstdint>\n#include <cstring>\n";
    out_ += kCodegenAbiHeader;
    out_ +=
        "\nstatic inline double pd_f64(unsigned long long b) {"
        " double v; std::memcpy(&v, &b, 8); return v; }\n"
        "static inline long long pd_i64(unsigned long long b) {"
        " long long v; std::memcpy(&v, &b, 8); return v; }\n"
        "#define AV(k) (W->clock += c->ct[k] * W->dilation)\n"
        "// What the ops.def statements below name.\n"
        "typedef long long i64;\n"
        "#define PARAD_OP_TRAP(msg) c->api->die(c, msg)\n\n";
    for (std::size_t id = 0; id < table_.size(); ++id)
      out_ += "static int r" + std::to_string(id) +
              "(parad_cg_ctx*, parad_cg_val*, parad_cg_worker*);\n";
    out_ += "\n";
    for (std::size_t id = 0; id < table_.size(); ++id)
      emitRange(static_cast<int>(id), table_[id]);
    out_ += "extern \"C\" unsigned long long parad_cg_abi(void) { return "
            "PARAD_CG_ABI_VERSION; }\n";
    out_ += "extern \"C\" unsigned long long parad_cg_fp(void) { return 0x" +
            hex64(fp) + "ull; }\n";
    out_ += "extern \"C\" int parad_cg_range(parad_cg_ctx* c, int id, "
            "parad_cg_val* F) {\n  parad_cg_worker* W = c->w;\n"
            "  switch (id) {\n";
    for (std::size_t id = 0; id < table_.size(); ++id)
      out_ += "    case " + std::to_string(id) + ": return r" +
              std::to_string(id) + "(c, F, W);\n";
    out_ += "  }\n  return -2;\n}\n";
    return std::move(out_);
  }

 private:
  int blockRangeId(int prog, std::int32_t blockId) const {
    return progBase_[static_cast<std::size_t>(prog)] + blockId;
  }

  static std::string slot(std::int32_t s) {
    return "F[" + std::to_string(s) + "]";
  }
  static std::string f64bits(double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, 8);
    return "pd_f64(0x" + hex64(b) + "ull)";
  }
  static std::string i64bits(i64 v) {
    std::uint64_t b;
    std::memcpy(&b, &v, 8);
    return "pd_i64(0x" + hex64(b) + "ull)";
  }

  void line(const std::string& s) { out_ += "  " + s + "\n"; }
  void av(const char* idx) {
    out_ += "  AV(PARAD_CG_CT_";
    out_ += idx;
    out_ += ");\n";
  }
  static const char* costIndex(double psim::CostTable::*field) {
    for (const CgCost& k : kCgCosts)
      if (k.field == field) return k.index;
    fail("codegen: cost field missing from the generated cost table");
  }
  // Flushes the range's partial dispatch count and propagates Return —
  // exactly `rt.insts += nd; return Flow::Return;` in the exec loop.
  static constexpr const char* kPropagate = "{ *c->insts += nd; return 1; }";

  /// Emits an ops.def arithmetic row: its cost charge, then its statement
  /// text with A, B, C bound to the `n` operand slots `o` and R to `res`.
  void emitArith(Op op, std::int32_t res, const std::int32_t* o, int n) {
    static const struct {
      double psim::CostTable::*cost;
      const char* stmt;
    } kRows[] = {
#define PARAD_OP(Id, ...) {nullptr, nullptr},
#define PARAD_ARITH(Id, name, effect, cost, sig, ...) \
  {&psim::CostTable::cost, #__VA_ARGS__},
#include "src/ir/ops.def"
    };
    const auto& row = kRows[static_cast<int>(op)];
    PARAD_CHECK(row.stmt != nullptr, "codegen: non-arithmetic op ",
                ir::traits(op).name, " emitted as arithmetic");
    av(costIndex(row.cost));
    std::string s = "{ ";
    for (int i = 0; i < n; ++i)
      s += std::string("const parad_cg_val& ") + "ABC"[i] + " = " +
           slot(o[i]) + "; ";
    line(s + "parad_cg_val& R = " + slot(res) + "; " + row.stmt + "; }");
  }

  void emitInst(const ExecProgram& p, int prog, std::int32_t pc) {
    const ExecInst& in = p.code[static_cast<std::size_t>(pc)];
    line("nd += " + std::to_string(1 + in.constsBefore) + "ull;");
    std::int32_t opsBuf[16];
    const std::int32_t* src = in.poolBase >= 0
                                  ? p.pool.data() + in.poolBase
                                  : in.a.data();
    int nInline = std::min<int>(in.nOps, 16);
    for (int i = 0; i < nInline; ++i) opsBuf[i] = src[i];
    const std::int32_t* o = in.poolBase >= 0 ? src : opsBuf;
    auto body = [&](std::int32_t blockId) {
      return "r" + std::to_string(blockRangeId(prog, blockId));
    };
    auto argSlot = [&](std::int32_t blockId) {
      return p.blocks[static_cast<std::size_t>(blockId)].arg;
    };

    switch (in.op) {
      case Op::ConstF:
        line(slot(in.result) + ".u.f = " + f64bits(in.fconst) + ";");
        break;
      case Op::ConstI:
      case Op::ConstB:
        line(slot(in.result) + ".u.i = " + i64bits(in.iconst) + ";");
        break;

      case Op::Load:
        line("c->api->load(c, &" + slot(in.result) + ", " + slot(o[0]) +
             ", " + slot(o[1]) + ".u.i);");
        break;
      case Op::Store:
        line("c->api->store(c, " + slot(o[0]) + ", " + slot(o[1]) +
             ".u.i, " + slot(o[2]) + ");");
        break;

      case Op::Call: {
        if (in.trap >= 0) {
          line("c->api->trap(c, " + std::to_string(in.trap) + ");");
          break;
        }
        out_ += "  {\n";
        std::string argsExpr = "(const parad_cg_val*)0";
        if (in.nOps > 0) {
          std::string init;
          for (int i = 0; i < static_cast<int>(in.nOps); ++i) {
            if (!init.empty()) init += ", ";
            init += slot(src[i]);
          }
          line("  parad_cg_val cg_as[" + std::to_string(in.nOps) + "] = { " +
               init + " };");
          argsExpr = "cg_as";
        }
        line("  parad_cg_val cg_out;");
        line("  c->api->call(c, &cg_out, " + std::to_string(in.callee) +
             ", " + argsExpr + ", " + std::to_string(in.nOps) + ");");
        if (in.result >= 0) line("  " + slot(in.result) + " = cg_out;");
        out_ += "  }\n";
        break;
      }
      case Op::CallIndirect:
      case Op::OmpParallelFor:
        line("c->api->trap(c, " + std::to_string(in.trap) + ");");
        break;

      case Op::Return:
        if (in.nOps > 0) line("*c->ret = " + slot(o[0]) + ";");
        line("*c->insts += nd;");
        line("return 1;");
        break;

      case Op::For:
        out_ += "  { long long cg_lo = " + slot(o[0]) +
                ".u.i, cg_hi = " + slot(o[1]) + ".u.i;\n";
        out_ += "  for (long long cg_i = cg_lo; cg_i < cg_hi; ++cg_i) {\n";
        line("  " + slot(argSlot(in.blockA)) + ".u.i = cg_i;");
        line("  AV(PARAD_CG_CT_LOOPITER);");
        line("  if (" + body(in.blockA) + "(c, F, W)) " + kPropagate);
        out_ += "  } }\n";
        break;
      case Op::While:
        out_ += "  { for (long long cg_it = 0;; ++cg_it) {\n";
        line("  if (cg_it >= (1ll << 32)) c->api->die(c, \"runaway while "
             "loop\");");
        line("  " + slot(argSlot(in.blockA)) + ".u.i = cg_it;");
        line("  AV(PARAD_CG_CT_LOOPITER);");
        line("  *c->yield = 0;");
        line("  if (" + body(in.blockA) + "(c, F, W)) " + kPropagate);
        line("  if (!*c->yield) break;");
        out_ += "  } }\n";
        break;
      case Op::Yield:
        line("*c->yield = (" + slot(o[0]) + ".u.i != 0) ? 1 : 0;");
        break;
      case Op::If:
        av("INTOP");
        line("if (" + slot(o[0]) + ".u.i) {");
        line("  if (" + body(in.blockA) + "(c, F, W)) " + kPropagate);
        if (in.blockB >= 0) {
          line("} else {");
          line("  if (" + body(in.blockB) + "(c, F, W)) " + kPropagate);
        }
        line("}");
        break;

      case Op::Workshare: {
        out_ += "  { long long cg_lo = " + slot(o[0]) +
                ".u.i, cg_hi = " + slot(o[1]) + ".u.i;\n";
        line("int cg_tid = c->api->tid(c), cg_n = c->api->nthreads(c);");
        line("AV(PARAD_CG_CT_WORKSHARE);");
        line("long long cg_len = cg_hi - cg_lo;");
        line("if (cg_len > 0) {");
        line("  long long cg_chunk = (cg_len + cg_n - 1) / cg_n;");
        line("  long long cg_b = cg_lo + (long long)cg_tid * cg_chunk;");
        line("  long long cg_e = (cg_b + cg_chunk < cg_hi) ? cg_b + cg_chunk "
             ": cg_hi;");
        line("  for (long long cg_k = cg_b; cg_k < cg_e; ++cg_k) {");
        line(std::string("    ") + slot(argSlot(in.blockA)) + ".u.i = " +
             (in.iconst != 0 ? "cg_e - 1 - (cg_k - cg_b)" : "cg_k") + ";");
        line("    AV(PARAD_CG_CT_LOOPITER);");
        line("    if (" + body(in.blockA) +
             "(c, F, W)) c->api->die(c, \"return out of a workshare "
             "body\");");
        line("  }");
        line("} }");
        break;
      }
      case Op::BarrierOp:
        line("c->api->die(c, \"barrier outside fork segmentation\");");
        break;
      case Op::ThreadIdOp:
        line(slot(in.result) + ".u.i = c->api->tid(c);");
        break;
      case Op::NumThreadsOp:
        line(slot(in.result) + ".u.i = c->api->nthreads_default(c);");
        break;
      case Op::MpRank:
        line(slot(in.result) + ".u.i = c->rank;");
        break;
      case Op::MpSize:
        line(slot(in.result) + ".u.i = c->ranks;");
        break;
      case Op::GcPreserveBegin:
        av("GC");
        line(slot(in.result) + ".u.i = 0;");
        break;
      case Op::GcPreserveEnd:
        av("GC");
        break;

      // Machine-state instructions: decoded host-side by the exec engine's
      // execComplexInst into Runtime calls, bit-identical by construction.
      case Op::Alloc:
      case Op::Free:
      case Op::AtomicAddF:
      case Op::Memset0:
      case Op::Spawn:
      case Op::SyncOp:
      case Op::MpIsend:
      case Op::MpIrecv:
      case Op::MpWaitOp:
      case Op::MpSend:
      case Op::MpRecv:
      case Op::MpAllreduce:
      case Op::MpBarrier:
      case Op::JlAllocArray:
      case Op::ParallelFor:
      case Op::Fork:
        line("if (c->api->complex_op(c, F, " + std::to_string(prog) + ", " +
             std::to_string(pc) + ")) " + kPropagate);
        break;

      default:
        emitArith(in.op, in.result, o, in.nOps);
        break;
    }

    if (in.op2 >= 0) {
      line("nd += " + std::to_string(1 + in.consts2) + "ull;");
      emitArith(static_cast<Op>(in.op2), in.result2, in.a2.data(), in.nOps2);
    }
  }

  void emitRange(int id, const CgRange& r) {
    const ExecProgram& p = xm_.programs[static_cast<std::size_t>(r.prog)];
    out_ += "// prog " + std::to_string(r.prog) + " (@" + p.name +
            ") range [" + std::to_string(r.begin) + ", " +
            std::to_string(r.end) + ")\n";
    out_ += "static int r" + std::to_string(id) +
            "(parad_cg_ctx* c, parad_cg_val* F, parad_cg_worker* W) {\n";
    out_ += "  (void)c; (void)F; (void)W;\n";
    out_ += "  unsigned long long nd = 0;\n";
    for (std::int32_t pc = r.begin; pc < r.end; ++pc)
      emitInst(p, r.prog, pc);
    out_ += "  *c->insts += nd + " + std::to_string(r.trailing) + "ull;\n";
    out_ += "  if (c->probe_flags) c->api->probe(c);\n";
    out_ += "  return 0;\n}\n\n";
  }

  const ExecModule& xm_;
  std::vector<int> progBase_;
  std::vector<CgRange> table_;
  std::string out_;
};

}  // namespace

std::uint64_t closureFingerprint(const ExecModule& xm) {
  Fnv1a f;
  f.u64(PARAD_CG_ABI_VERSION);
  f.u64(kGeneratorVersion);
  f.u64(xm.programs.size());
  for (const ExecProgram& p : xm.programs) {
    f.u64(p.fingerprint);
    f.str(p.name);
    f.u64(p.code.size());
    f.u64(p.blocks.size());
    f.u64(p.segments.size());
  }
  return f.h;
}

std::string emitClosureSource(const ExecModule& xm) {
  PARAD_CHECK(!xm.programs.empty(), "codegen: empty closure");
  return SourceEmitter(xm).emit(closureFingerprint(xm));
}

// ---------------------------------------------------------------------------
// Artifact: a dlopen'd generated library plus the (prog, begin, end,
// trailing) -> range-id table that execRange interception resolves through.

class CodegenArtifact {
 public:
  using RangeFn = int (*)(parad_cg_ctx*, int, parad_cg_val*);

  CodegenArtifact(void* handle, RangeFn fn, const ExecModule& xm)
      : handle_(handle), fn_(fn) {
    std::vector<CgRange> t = buildRangeTable(xm);
    ids_.reserve(t.size());
    for (std::size_t id = 0; id < t.size(); ++id)
      ids_.emplace(Key{t[id].prog, t[id].begin, t[id].end, t[id].trailing},
                   static_cast<int>(id));
  }
  ~CodegenArtifact() {
    if (handle_ != nullptr) dlclose(handle_);
  }
  CodegenArtifact(const CodegenArtifact&) = delete;
  CodegenArtifact& operator=(const CodegenArtifact&) = delete;

  RangeFn range() const { return fn_; }
  int rangeId(int prog, std::int32_t begin, std::int32_t end,
              std::int32_t trailing) const {
    auto it = ids_.find(Key{prog, begin, end, trailing});
    return it == ids_.end() ? -1 : it->second;
  }

 private:
  struct Key {
    int prog;
    std::int32_t begin, end, trailing;
    bool operator==(const Key& o) const {
      return prog == o.prog && begin == o.begin && end == o.end &&
             trailing == o.trailing;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t h = 14695981039346656037ull;
      for (std::uint64_t v :
           {std::uint64_t(k.prog), std::uint64_t(std::uint32_t(k.begin)),
            std::uint64_t(std::uint32_t(k.end)),
            std::uint64_t(std::uint32_t(k.trailing))}) {
        h ^= v;
        h *= 1099511628211ull;
      }
      return static_cast<std::size_t>(h);
    }
  };
  void* handle_;
  RangeFn fn_;
  std::unordered_map<Key, int, KeyHash> ids_;
};

// ---------------------------------------------------------------------------
// CodegenExecutor: the exec engine with compiled ranges swapped in. Derives
// from Executor so run setup, calls and the decoding of machine-state
// instructions are the exec backend's own code; only frame-local dispatch
// is replaced. Every host callback is a call into the run's Runtime.

class CodegenExecutor final : public Executor {
 public:
  CodegenExecutor(const ExecModule& xm, psim::Machine& machine,
                  std::shared_ptr<const CodegenArtifact> art)
      : Executor(xm, machine), art_(std::move(art)) {}

 protected:
  void beginRun(Runtime& rt) override {
    for (std::size_t k = 0; k < std::size(kCgCosts); ++k)
      costs_[k] = rt.ct.*kCgCosts[k].field;
    rt_ = &rt;
    ctx_.api = &kApi;
    ctx_.ct = costs_;
    static_assert(sizeof(rt.insts) == sizeof(unsigned long long),
                  "dispatch counter crosses the ABI as unsigned long long");
    ctx_.insts = reinterpret_cast<unsigned long long*>(&rt.insts);
    ctx_.ret = reinterpret_cast<parad_cg_val*>(&rt.retVal);
    // The yield flag is one per-run bool threaded through every nested call
    // (exec semantics); generated code reads and writes it in place so host
    // and native ranges always observe the same value.
    static_assert(sizeof(bool) == 1, "yield flag crosses the ABI as a byte");
    ctx_.yield = reinterpret_cast<unsigned char*>(&rt.yield);
    ctx_.rank = rt.env.rank;
    ctx_.ranks = rt.env.ranks;
    // Fixed for the whole run: kill schedules are armed before rank programs
    // start, and the watchdog config never changes mid-attempt (recovery
    // slack is applied between attempts, each with a fresh executor).
    ctx_.probe_flags = (machine_.killArmed() ? 1 : 0) |
                       (machine_.config().watchdogInsts != 0 ? 2 : 0) |
                       (machine_.watchdogTimeBound() > 0 ? 4 : 0) |
                       (machine_.cancelArmed() ? 8 : 0);
    ctx_.host = this;
  }

  Flow execRange(const ExecProgram& p, std::int32_t pc, std::int32_t end,
                 std::int32_t trailingConsts, Frame& f, Runtime& rt) override {
    int prog = static_cast<int>(&p - xm_.programs.data());
    int id = art_->rangeId(prog, pc, end, trailingConsts);
    if (id < 0)  // defensive: every lowered range is in the table
      return Executor::execRange(p, pc, end, trailingConsts, f, rt);
    Frame* savedFrame = frame_;
    frame_ = &f;
    ctx_.w = reinterpret_cast<parad_cg_worker*>(&rt.ts->w);
    int fl = art_->range()(&ctx_, id,
                           reinterpret_cast<parad_cg_val*>(f.data()));
    frame_ = savedFrame;
    return fl != 0 ? Flow::Return : Flow::Normal;
  }

 private:
  static CodegenExecutor& self(parad_cg_ctx* c) {
    return *static_cast<CodegenExecutor*>(c->host);
  }
  static Runtime& rt(parad_cg_ctx* c) { return *self(c).rt_; }
  static psim::RtPtr toPtr(parad_cg_val v) {
    psim::RtPtr p;
    p.obj = v.u.p.obj;
    p.off = v.u.p.off;
    return p;
  }

  // Load and Store charge the current worker's clock in memory: generated
  // code re-reads it after every callback.
  static void cgLoad(parad_cg_ctx* c, parad_cg_val* dst, parad_cg_val ptr,
                     long long idx) {
    Runtime& r = rt(c);
    r.ts->w.advance(r.load(toPtr(ptr), idx, *reinterpret_cast<RtVal*>(dst)));
  }
  static void cgStore(parad_cg_ctx* c, parad_cg_val ptr, long long idx,
                      parad_cg_val v) {
    Runtime& r = rt(c);
    RtVal val;
    std::memcpy(static_cast<void*>(&val), &v, sizeof val);
    r.ts->w.advance(r.store(toPtr(ptr), idx, val));
  }
  static void cgCall(parad_cg_ctx* c, parad_cg_val* out, int callee,
                     const parad_cg_val* args, int nargs) {
    CodegenExecutor& e = self(c);
    const ExecProgram& cp = e.xm_.programs[static_cast<std::size_t>(callee)];
    RtVal r = e.callProgram(cp, reinterpret_cast<const RtVal*>(args),
                            static_cast<std::size_t>(nargs), *e.rt_);
    std::memcpy(out, &r, sizeof r);
  }
  // Never reports a Return: a return out of a parallel or task body fails.
  static int cgComplex(parad_cg_ctx* c, parad_cg_val* frame, int prog,
                       int inst) {
    CodegenExecutor& e = self(c);
    (void)frame;  // e.frame_ aliases it (asserted by construction)
    const ExecProgram& p = e.xm_.programs[static_cast<std::size_t>(prog)];
    e.execComplexInst(p, p.code[static_cast<std::size_t>(inst)], *e.frame_,
                      *e.rt_);
    return 0;
  }
  static int cgTid(parad_cg_ctx* c) { return rt(c).ts->tid; }
  static int cgNthreads(parad_cg_ctx* c) { return rt(c).ts->nthreads; }
  static int cgNthreadsDefault(parad_cg_ctx* c) {
    return rt(c).numThreadsDefault();
  }
  static void cgTrap(parad_cg_ctx* c, int trapIndex) {
    CodegenExecutor& e = self(c);
    fail(e.xm_.trapMsgs[static_cast<std::size_t>(trapIndex)]);
  }
  static void cgDie(parad_cg_ctx* c, const char* msg) {
    (void)c;
    fail(msg);
  }
  static void cgProbe(parad_cg_ctx* c) { rt(c).probe(); }

  static const parad_cg_api kApi;

  std::shared_ptr<const CodegenArtifact> art_;
  parad_cg_ctx ctx_{};
  double costs_[PARAD_CG_CT_COUNT] = {};
  Runtime* rt_ = nullptr;
  Frame* frame_ = nullptr;
};

const parad_cg_api CodegenExecutor::kApi = {
    &CodegenExecutor::cgLoad,    &CodegenExecutor::cgStore,
    &CodegenExecutor::cgCall,    &CodegenExecutor::cgComplex,
    &CodegenExecutor::cgTid,     &CodegenExecutor::cgNthreads,
    &CodegenExecutor::cgNthreadsDefault, &CodegenExecutor::cgTrap,
    &CodegenExecutor::cgDie,     &CodegenExecutor::cgProbe,
};

// ---------------------------------------------------------------------------
// Cache: disk -> compile, with graceful fallback.

struct CodegenCache::Impl {
  mutable std::mutex mu;
  CodegenConfig cfg;
  // Atomic so counters() never blocks behind a host-compiler invocation that
  // another thread is running under `mu`, and so concurrent serving workers
  // report coherent numbers (src/serve surfaces these in its bench JSON).
  struct {
    std::atomic<std::uint64_t> compiles{0}, diskHits{0}, fallbacks{0},
        diskEvictions{0};
  } counters;
  core::RemarkStream remarks;
  std::unordered_set<std::uint64_t> failed;  // fingerprints that won't compile
  std::unordered_map<std::string, bool> compilerOk;  // probe memo
  bool warnedNoCompiler = false;

  std::size_t diskCap() const {
    if (cfg.diskCapacityBytes != 0) return cfg.diskCapacityBytes;
    return envByteSize("PARAD_CODEGEN_DISK_BYTES");
  }

  // Applies the disk byte cap after an install via the shared hardened
  // sweep (io::sweepDirectory, the same oldest-first byte-capped retention
  // the durable checkpoint store uses): removes oldest-modified artifacts
  // (and their source/log siblings) until the directory's .so payload fits.
  // `keep` is the just-installed artifact, never swept. Caller holds `mu`.
  void sweepDisk(const std::string& dir, const std::string& keep) {
    io::SweepSpec spec;
    spec.prefix = "parad_cg_";
    spec.suffix = ".so";
    spec.capacityBytes = diskCap();
    spec.siblingExts = {".cpp", ".log"};
    counters.diskEvictions += static_cast<std::uint64_t>(
        io::sweepDirectory(dir, spec, keep));
  }
};

CodegenCache::Impl& CodegenCache::impl() const {
  static Impl* instance = new Impl;
  return *instance;
}

CodegenCache& CodegenCache::global() {
  static CodegenCache cache;
  return cache;
}

namespace {

std::string shellQuote(const std::string& s) { return "'" + s + "'"; }

bool makeDirs(const std::string& path) { return io::makeDirs(path); }

std::string resolveCacheDir(const CodegenConfig& cfg) {
  if (!cfg.cacheDir.empty()) return cfg.cacheDir;
  if (std::string d = envText("PARAD_CODEGEN_DIR"); !d.empty()) return d;
  return hostTempDir() + "/parad-codegen-v" + std::to_string(PARAD_CG_ABI_VERSION) +
         "-u" + std::to_string(static_cast<unsigned long>(::getuid()));
}

std::string resolveCompiler(const CodegenConfig& cfg) {
  if (!cfg.compiler.empty()) return cfg.compiler;
  if (std::string s = envText("PARAD_CXX"); !s.empty()) return s;
#ifdef PARAD_HOST_CXX
  return PARAD_HOST_CXX;
#else
  return "c++";
#endif
}

std::string firstLineOf(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (in && std::getline(in, line)) return line;
  return "";
}

/// dlopens a generated object and validates its ABI version and fingerprint.
/// Returns nullptr (with a reason) on any mismatch — the caller recompiles.
std::shared_ptr<const CodegenArtifact> tryOpen(const std::string& path,
                                               std::uint64_t fp,
                                               const ExecModule& xm,
                                               std::string* reason) {
  void* h = dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (h == nullptr) {
    const char* err = dlerror();
    *reason = err != nullptr ? err : "dlopen failed";
    return nullptr;
  }
  auto abiFn =
      reinterpret_cast<unsigned long long (*)()>(dlsym(h, "parad_cg_abi"));
  auto fpFn =
      reinterpret_cast<unsigned long long (*)()>(dlsym(h, "parad_cg_fp"));
  auto rangeFn =
      reinterpret_cast<CodegenArtifact::RangeFn>(dlsym(h, "parad_cg_range"));
  if (abiFn == nullptr || fpFn == nullptr || rangeFn == nullptr) {
    *reason = "missing export";
    dlclose(h);
    return nullptr;
  }
  if (abiFn() != PARAD_CG_ABI_VERSION) {
    *reason = "ABI version mismatch";
    dlclose(h);
    return nullptr;
  }
  if (fpFn() != fp) {
    *reason = "fingerprint mismatch (stale artifact)";
    dlclose(h);
    return nullptr;
  }
  return std::make_shared<CodegenArtifact>(h, rangeFn, xm);
}

}  // namespace

std::shared_ptr<const CodegenArtifact> CodegenCache::lookup(
    const ExecModule& xm) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::uint64_t fp = closureFingerprint(xm);
  if (im.failed.count(fp) != 0) {
    ++im.counters.fallbacks;
    return nullptr;
  }
  const std::string entry = "@" + xm.programs[0].name;
  const std::string hex = hex64(fp);

  std::string dir = resolveCacheDir(im.cfg);
  if (!makeDirs(dir)) {
    ++im.counters.fallbacks;
    im.failed.insert(fp);
    im.remarks.emit(core::RemarkKind::Backend,
                    "codegen: cannot create cache dir " + dir +
                        ": falling back to exec engine for " + entry);
    return nullptr;
  }
  std::string base = dir + "/parad_cg_" + hex;
  std::string soPath = base + ".so";

  // Disk reuse: an artifact with this fingerprint compiled by any process.
  std::string reason;
  if (::access(soPath.c_str(), F_OK) == 0) {
    if (auto art = tryOpen(soPath, fp, xm, &reason)) {
      ++im.counters.diskHits;
      im.remarks.emit(core::RemarkKind::Backend,
                      "codegen: reused on-disk artifact for " + entry +
                          " (fp " + hex + ")");
      return art;
    }
    im.remarks.emit(core::RemarkKind::Backend,
                    "codegen: discarding stale artifact for " + entry + ": " +
                        reason);
  }

  // Compile.
  std::string cxx = resolveCompiler(im.cfg);
  auto okIt = im.compilerOk.find(cxx);
  if (okIt == im.compilerOk.end()) {
    int rc = std::system(
        (shellQuote(cxx) + " --version > /dev/null 2>&1").c_str());
    okIt = im.compilerOk.emplace(cxx, rc == 0).first;
  }
  if (!okIt->second) {
    ++im.counters.fallbacks;
    im.failed.insert(fp);
    std::string msg = "codegen: no usable host compiler ('" + cxx +
                      "'): falling back to exec engine";
    im.remarks.emit(core::RemarkKind::Backend, msg);
    if (!im.warnedNoCompiler) {
      im.warnedNoCompiler = true;
      std::fprintf(stderr, "parad: %s\n", msg.c_str());
    }
    return nullptr;
  }

  // All disk writes below go through the shared hardened primitives
  // (src/io/store.h): unique temp + flush + fsync + rename, with the
  // config's seeded IO-fault plan armed — an injected (or real) failure or
  // torn install degrades to the exec engine exactly like a missing
  // compiler, and a torn artifact is discarded by tryOpen's validation on
  // the next lookup.
  io::IoFaultPlan ioFaults(im.cfg.ioFaults);
  std::string srcPath = base + ".cpp";
  {
    std::string source = SourceEmitter(xm).emit(fp);
    std::string werr;
    if (!io::atomicWriteFile(srcPath, source.data(), source.size(),
                             &ioFaults, fp ^ 0x737263ull /*"src"*/, &werr)) {
      ++im.counters.fallbacks;
      im.failed.insert(fp);
      im.remarks.emit(core::RemarkKind::Backend,
                      "codegen: cannot write " + srcPath + " (" + werr +
                          "): falling back to exec engine for " + entry);
      return nullptr;
    }
  }
  // Unique temp output + atomic rename: concurrent processes compiling the
  // same fingerprint race benignly (last rename wins, both objects
  // identical). -ffp-contract=off and no -march keep the generated FP
  // arithmetic rounding exactly like the host-compiled engines.
  std::string tmpPath = base + ".tmp" +
                        std::to_string(static_cast<long>(::getpid())) + ".so";
  std::string logPath = base + ".log";
  std::string flags = " -std=c++17 -O2 -fPIC -shared -ffp-contract=off";
  if (!im.cfg.extraFlags.empty()) flags += " " + im.cfg.extraFlags;
  if (std::string ef = envText("PARAD_CODEGEN_FLAGS"); !ef.empty())
    flags += " " + ef;
  std::string cmd = shellQuote(cxx) + flags + " -o " + shellQuote(tmpPath) +
                    " " + shellQuote(srcPath) + " -lm 2> " +
                    shellQuote(logPath);
  int rc = std::system(cmd.c_str());
  if (rc != 0) {
    ::remove(tmpPath.c_str());
    ++im.counters.fallbacks;
    im.failed.insert(fp);
    std::string err = firstLineOf(logPath);
    im.remarks.emit(core::RemarkKind::Backend,
                    "codegen: compile failed for " + entry +
                        (err.empty() ? "" : " (" + err + ")") +
                        ": falling back to exec engine");
    return nullptr;
  }
  std::string ierr;
  if (!io::installFile(tmpPath, soPath, &ioFaults, fp, &ierr)) {
    ++im.counters.fallbacks;
    im.failed.insert(fp);
    im.remarks.emit(core::RemarkKind::Backend,
                    "codegen: cannot install artifact for " + entry + " (" +
                        ierr + "): falling back to exec engine");
    return nullptr;
  }
  ++im.counters.compiles;
  auto art = tryOpen(soPath, fp, xm, &reason);
  if (art == nullptr) {
    ++im.counters.fallbacks;
    im.failed.insert(fp);
    im.remarks.emit(core::RemarkKind::Backend,
                    "codegen: compiled artifact failed to load for " + entry +
                        ": " + reason + ": falling back to exec engine");
    return nullptr;
  }
  im.sweepDisk(dir, soPath);
  im.remarks.emit(core::RemarkKind::Backend,
                  "codegen: compiled " + entry + " (fp " + hex + ", " +
                      std::to_string(buildRangeTable(xm).size()) +
                      " ranges)");
  return art;
}

void CodegenCache::clear() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.failed.clear();
  im.compilerOk.clear();
  im.warnedNoCompiler = false;
}

CodegenCounters CodegenCache::counters() const {
  Impl& im = impl();
  CodegenCounters out;
  out.compiles = im.counters.compiles.load(std::memory_order_relaxed);
  out.diskHits = im.counters.diskHits.load(std::memory_order_relaxed);
  out.fallbacks = im.counters.fallbacks.load(std::memory_order_relaxed);
  out.diskEvictions =
      im.counters.diskEvictions.load(std::memory_order_relaxed);
  return out;
}

CodegenConfig CodegenCache::config() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return im.cfg;
}

void CodegenCache::setConfig(CodegenConfig cfg) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.cfg = std::move(cfg);
}

std::string CodegenCache::remarksDump() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return im.remarks.dump();
}

void CodegenCache::clearRemarks() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.remarks.clear();
}

std::string CodegenCache::cacheDirInUse() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return resolveCacheDir(im.cfg);
}

// ---------------------------------------------------------------------------
// Backend.

namespace {

class CodegenBackend final : public ExecBackend {
 public:
  std::string_view name() const override { return "codegen"; }
  RtVal run(const ir::Module& mod, const ir::Function& fn,
            std::vector<RtVal> args, psim::Machine& machine,
            psim::RankEnv& env) const override {
    std::shared_ptr<const ExecModule> xm =
        compileClosure(mod, fn, machine.runId());
    // The artifact is looked up once per closure, by whichever run gets
    // there first; concurrent runs of the same closure wait for that lookup.
    std::call_once(xm->codegenOnce, [&xm] {
      xm->codegen = CodegenCache::global().lookup(*xm);
    });
    std::shared_ptr<const CodegenArtifact> art = xm->codegen;
    if (art == nullptr) {
      // Graceful fallback (no compiler / compile failure): run the same
      // lowered program on the exec engine — bit-identical by contract.
      Executor ex(*xm, machine);
      return ex.run(std::move(args), env);
    }
    CodegenExecutor ex(*xm, machine, std::move(art));
    return ex.run(std::move(args), env);
  }
};

}  // namespace

const ExecBackend& codegenBackend() {
  static const CodegenBackend backend;
  return backend;
}

}  // namespace parad::interp
