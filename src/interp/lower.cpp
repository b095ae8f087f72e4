#include "src/interp/lower.h"

#include <deque>

#include "src/support/fnv.h"
#include "src/support/knobs.h"

namespace parad::interp {

using ir::Op;

// ---------------------------------------------------------------------------
// Structural fingerprint (FNV-1a over everything a pass can mutate).

namespace {

void hashRegion(const ir::Region& r, Fnv1a& f);

void hashInst(const ir::Inst& in, Fnv1a& f) {
  f.u64(static_cast<std::uint64_t>(in.op));
  f.u64(in.result);
  f.u64(in.operands.size());
  for (int o : in.operands) f.u64(o);
  f.f64(in.fconst);
  f.u64(in.iconst);
  f.str(in.sym);
  f.u64(in.flags);
  f.u64(in.regions.size());
  for (const ir::Region& r : in.regions) hashRegion(r, f);
}

void hashRegion(const ir::Region& r, Fnv1a& f) {
  f.u64(r.args.size());
  for (int a : r.args) f.u64(a);
  f.u64(r.insts.size());
  for (const ir::Inst& in : r.insts) hashInst(in, f);
}

}  // namespace

std::uint64_t fingerprint(const ir::Function& fn) {
  Fnv1a f;
  f.str(fn.name);
  f.u64(fn.paramTypes.size());
  for (ir::Type t : fn.paramTypes) f.u64(static_cast<std::uint64_t>(t));
  f.u64(static_cast<std::uint64_t>(fn.retType));
  f.u64(fn.valueTypes.size());
  for (ir::Type t : fn.valueTypes) f.u64(static_cast<std::uint64_t>(t));
  hashRegion(fn.body, f);
  return f.h;
}

// ---------------------------------------------------------------------------
// Lowering.

namespace {

// Mirrors the tree-walker's collectDefined: every value id defined inside an
// instruction's regions (results and region args), used for the fork body's
// per-thread private storage set.
void collectDefined(const ir::Inst& in, std::vector<std::int32_t>& out) {
  for (const ir::Region& r : in.regions) {
    for (int a : r.args) out.push_back(a);
    for (const ir::Inst& i : r.insts) {
      if (i.result >= 0) out.push_back(i.result);
      collectDefined(i, out);
    }
  }
}

class Lowerer {
 public:
  Lowerer(const ir::Module& mod, ExecModule& xm) : mod_(mod), xm_(xm) {}

  void lowerClosure(const ir::Function& entry) {
    xm_.programs.emplace_back();
    xm_.indexOf.emplace(entry.name, 0);
    lowerFunction(entry, 0);
    while (!pending_.empty()) {
      std::string name = pending_.front();
      pending_.pop_front();
      lowerFunction(mod_.get(name), xm_.indexOf.at(name));
    }
  }

 private:
  /// Program index for a callee name; enqueues unseen functions. Returns -1
  /// when the module has no such function (the call site becomes a trap).
  std::int32_t programIndexFor(const std::string& name) {
    auto it = xm_.indexOf.find(name);
    if (it != xm_.indexOf.end()) return it->second;
    if (!mod_.has(name)) return -1;
    std::int32_t idx = static_cast<std::int32_t>(xm_.programs.size());
    xm_.programs.emplace_back();
    xm_.indexOf.emplace(name, idx);
    pending_.push_back(name);
    return idx;
  }

  std::int32_t addTrap(std::string msg) {
    xm_.trapMsgs.push_back(std::move(msg));
    return static_cast<std::int32_t>(xm_.trapMsgs.size() - 1);
  }

  void lowerFunction(const ir::Function& fn, std::int32_t idx) {
    ExecProgram p;
    p.name = fn.name;
    p.numValues = fn.numValues();
    p.numParams = fn.paramTypes.size();
    p.paramSlots.assign(fn.body.args.begin(), fn.body.args.end());
    p.fingerprint = fingerprint(fn);
    constIndexOf_.clear();  // slots are function-local SSA ids
    p.entryBlock = lowerRegion(fn.body, p);
    xm_.programs[static_cast<std::size_t>(idx)] = std::move(p);
  }

  /// Two-phase region flattening: first append this region's instructions as
  /// one contiguous run (so a block is a [begin, end) range and a fork body
  /// can be segmented by scanning for top-level barriers), then lower nested
  /// regions — each into its own contiguous run further down the array — and
  /// patch the parents' block ids.
  std::int32_t lowerRegion(const ir::Region& r, ExecProgram& p) {
    std::int32_t blockId = static_cast<std::int32_t>(p.blocks.size());
    p.blocks.emplace_back();
    std::int32_t begin = static_cast<std::int32_t>(p.code.size());
    // Constants are folded out of the stream: their values go into the
    // program's frame-initialization table and each kept instruction records
    // how many folded consts precede it, so the executor's dispatch count
    // stays bit-identical to the tree-walker's.
    std::vector<std::int32_t> codeIdx(r.insts.size(), -1);
    std::int32_t pending = 0;
    // Superinstruction pairing: a fusable instruction (region-free frame
    // arithmetic, see fusableOp) adjacent to another fusable one rides in
    // the previous slot's second position instead of getting its own.
    // Folded consts between them don't break adjacency (consts2 keeps the
    // count); anything else — including barriers, so a fork segment can
    // never split a pair — does.
    std::int32_t lastFusable = -1;  // code index with an empty second slot
    for (std::size_t i = 0; i < r.insts.size(); ++i) {
      const ir::Inst& in = r.insts[i];
      if ((in.op == Op::ConstF || in.op == Op::ConstI ||
           in.op == Op::ConstB) &&
          in.result >= 0) {
        constIndexOf_[in.result] =
            static_cast<std::int32_t>(p.constInits.size());
        ConstInit ci;
        ci.slot = in.result;
        ci.isF = in.op == Op::ConstF;
        ci.f = in.fconst;
        ci.i = in.iconst;
        p.constInits.push_back(ci);
        ++pending;
        continue;
      }
      ExecInst x = lowerInst(in, p);
      x.constsBefore = pending;
      pending = 0;
      if (lastFusable >= 0 && fusableOp(in.op)) {
        ExecInst& prev = p.code[static_cast<std::size_t>(lastFusable)];
        prev.op2 = static_cast<std::int16_t>(in.op);
        prev.nOps2 = x.nOps;
        prev.result2 = x.result;
        prev.a2 = x.a;
        prev.consts2 = x.constsBefore;
        lastFusable = -1;  // pairs only, no triples
        continue;  // fusable ops have no regions; codeIdx[i] is never read
      }
      codeIdx[i] = static_cast<std::int32_t>(p.code.size());
      p.code.push_back(x);
      lastFusable = fusableOp(in.op) ? codeIdx[i] : -1;
    }
    std::int32_t end = static_cast<std::int32_t>(p.code.size());
    {
      ExecBlock& b = p.blocks[static_cast<std::size_t>(blockId)];
      b.begin = begin;
      b.end = end;
      b.arg = r.args.empty() ? -1 : r.args[0];
      b.trailingConsts = pending;
    }

    for (std::size_t i = 0; i < r.insts.size(); ++i) {
      const ir::Inst& in = r.insts[i];
      if (in.regions.empty() || in.op == Op::OmpParallelFor) continue;
      std::int32_t blockA = lowerRegion(in.regions[0], p);
      std::int32_t blockB =
          in.regions.size() > 1 ? lowerRegion(in.regions[1], p) : -1;
      // Re-index: the nested lowering may have grown p.code/p.blocks.
      ExecInst& xi = p.code[static_cast<std::size_t>(codeIdx[i])];
      xi.blockA = blockA;
      xi.blockB = blockB;
      if (in.op == Op::Fork) segmentFork(in, xi, blockA, p);
    }
    return blockId;
  }

  ExecInst lowerInst(const ir::Inst& in, ExecProgram& p) {
    ExecInst x;
    x.op = in.op;
    x.result = in.result;
    x.fconst = in.fconst;
    x.iconst = in.iconst;
    x.flags = in.flags;
    x.nOps = static_cast<std::uint16_t>(in.operands.size());
    if (in.operands.size() <= static_cast<std::size_t>(ExecInst::kInlineOps)) {
      for (std::size_t i = 0; i < in.operands.size(); ++i)
        x.a[i] = in.operands[i];
    } else {
      x.poolBase = static_cast<std::int32_t>(p.pool.size());
      p.pool.insert(p.pool.end(), in.operands.begin(), in.operands.end());
    }
    switch (in.op) {
      case Op::Call: {
        x.callee = programIndexFor(in.sym);
        if (x.callee < 0) {
          x.trap = addTrap("no function named " + in.sym);
        } else {
          const ir::Function& callee = mod_.get(in.sym);
          if (in.operands.size() != callee.paramTypes.size())
            x.trap = addTrap("wrong argument count calling @" + in.sym);
        }
        break;
      }
      case Op::CallIndirect:
        x.trap = addTrap(
            "call.indirect reached the interpreter; run the "
            "resolve-indirect-calls pass first (jlite symbol table)");
        break;
      case Op::OmpParallelFor:
        x.trap = addTrap(
            "omp.parallel.for reached the interpreter; run the lower-omp "
            "pass first");
        break;
      default: break;
    }
    return x;
  }

  /// Splits a freshly-lowered fork body block into barrier-delimited
  /// segments (the barrier instructions themselves are skipped, exactly as
  /// the tree-walker's structural segmentation never executes them) and
  /// records the per-thread private value set in the program pool.
  void segmentFork(const ir::Inst& in, ExecInst& xi, std::int32_t bodyBlock,
                   ExecProgram& p) {
    // The body block's range holds exactly the region's top-level
    // instructions (nested bodies live in their own ranges), so scanning it
    // finds exactly the top-level barriers.
    ExecBlock body = p.blocks[static_cast<std::size_t>(bodyBlock)];
    xi.segBase = static_cast<std::int32_t>(p.segments.size());
    std::int32_t segStart = body.begin;
    for (;;) {
      std::int32_t segEnd = segStart;
      while (segEnd < body.end && p.code[static_cast<std::size_t>(segEnd)].op !=
                                      Op::BarrierOp)
        ++segEnd;
      ExecSegment s;
      s.begin = segStart;
      s.end = segEnd;
      // Folded consts between the segment's last kept instruction and its
      // delimiter (the barrier's constsBefore, or the block's trailing count
      // for the final segment) still count as executed per thread.
      s.trailingConsts =
          segEnd < body.end
              ? p.code[static_cast<std::size_t>(segEnd)].constsBefore
              : body.trailingConsts;
      p.segments.push_back(s);
      if (segEnd == body.end) break;
      segStart = segEnd + 1;
    }
    xi.segCount = static_cast<std::int32_t>(p.segments.size()) - xi.segBase;

    std::vector<std::int32_t> priv;
    collectDefined(in, priv);
    xi.privBase = static_cast<std::int32_t>(p.pool.size());
    xi.privCount = static_cast<std::int32_t>(priv.size());
    p.pool.insert(p.pool.end(), priv.begin(), priv.end());

    // Privatized slots holding folded constants: the tree-walker re-defines
    // them inside each thread's segment, so the per-thread store must start
    // with the constant value rather than zero.
    xi.privFixBase = static_cast<std::int32_t>(p.pool.size());
    std::int32_t nFix = 0;
    for (std::size_t k = 0; k < priv.size(); ++k) {
      auto it = constIndexOf_.find(priv[k]);
      if (it == constIndexOf_.end()) continue;
      p.pool.push_back(static_cast<std::int32_t>(k));
      p.pool.push_back(it->second);
      ++nFix;
    }
    xi.privFixCount = nFix;
  }

  const ir::Module& mod_;
  ExecModule& xm_;
  std::deque<std::string> pending_;
  // Frame slot -> ExecProgram::constInits index, for the current function.
  std::unordered_map<std::int32_t, std::int32_t> constIndexOf_;
};

}  // namespace

std::shared_ptr<const ExecModule> lower(const ir::Module& mod,
                                        const ir::Function& entry) {
  auto xm = std::make_shared<ExecModule>();
  Lowerer(mod, *xm).lowerClosure(entry);
  return xm;
}

std::shared_ptr<const ExecModule> compileClosure(const ir::Module& mod,
                                                 const ir::Function& fn,
                                                 std::uint64_t runId) {
  // The closure the previous call on this thread validated during run
  // `runId`. Every rank of a run executes on the run's one carrier thread,
  // and run ids are never reused, so an entry never outlives its run: a
  // later run (even on the same Machine, module address and thread)
  // revalidates through the cache.
  thread_local struct {
    std::uint64_t runId = 0;
    const ir::Module* mod = nullptr;
    const ir::Function* fn = nullptr;
    std::shared_ptr<const ExecModule> xm;
  } memo;
  if (runId != 0 && memo.runId == runId && memo.mod == &mod &&
      memo.fn == &fn)
    return memo.xm;
  if (mod.has(fn.name) && &mod.get(fn.name) == &fn) {
    std::shared_ptr<const ExecModule> xm =
        ProgramCache::global().lookup(mod, fn);
    if (runId != 0) memo = {runId, &mod, &fn, xm};
    return xm;
  }
  // A function object not registered in the module (e.g. a locally-built
  // kernel passed by reference): lower uncached.
  return lower(mod, fn);
}

// ---------------------------------------------------------------------------
// ProgramCache.

std::size_t execModuleBytes(const ExecModule& xm) {
  std::size_t total =
      sizeof(xm.programs) + sizeof(xm.indexOf) + sizeof(xm.trapMsgs);
  for (const ExecProgram& p : xm.programs) {
    total += sizeof(ExecProgram) + p.name.size();
    total += p.paramSlots.size() * sizeof(std::int32_t);
    total += p.code.size() * sizeof(ExecInst);
    total += p.blocks.size() * sizeof(ExecBlock);
    total += p.segments.size() * sizeof(ExecSegment);
    total += p.constInits.size() * sizeof(ConstInit);
    total += p.pool.size() * sizeof(std::int32_t);
  }
  for (const auto& kv : xm.indexOf)
    total += kv.first.size() + sizeof(std::int32_t);
  for (const std::string& m : xm.trapMsgs) total += m.size();
  return total;
}

ProgramCache& ProgramCache::global() {
  static ProgramCache cache;
  // A malformed value throws here, and again on every later call: the
  // process never runs with a cap it did not ask for.
  static std::once_flag once;
  std::call_once(once, [] {
    cache.setCapacityBytes(envByteSize("PARAD_PROGRAM_CACHE_BYTES"));
  });
  return cache;
}

static bool stillValid(const ir::Module& mod, const ir::Function& entry,
                       const ExecModule& xm) {
  if (fingerprint(entry) != xm.programs[0].fingerprint) return false;
  for (std::size_t i = 1; i < xm.programs.size(); ++i) {
    const ExecProgram& p = xm.programs[i];
    if (!mod.has(p.name) || fingerprint(mod.get(p.name)) != p.fingerprint)
      return false;
  }
  return true;
}

std::shared_ptr<const ExecModule> ProgramCache::lookup(
    const ir::Module& mod, const ir::Function& entry) {
  Key k{&mod, entry.name};
  std::shared_ptr<const ExecModule> cached;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto* xm = lru_.get(k)) cached = *xm;
  }
  if (cached != nullptr) {
    // Revalidate outside the lock: fingerprinting walks the (read-only
    // during execution) IR and must not serialize other lookups behind one
    // large closure.
    if (stillValid(mod, entry, *cached)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return cached;
    }
    std::lock_guard<std::mutex> lock(mu_);
    // Only drop the entry we validated; a concurrent relowering may already
    // have replaced it with a fresh one.
    if (auto* xm = lru_.get(k); xm != nullptr && *xm == cached) lru_.erase(k);
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  auto xm = lower(mod, entry);
  std::size_t bytes = execModuleBytes(*xm);
  // A concurrent miss may have inserted first; last insert wins (both
  // closures are equivalent). The fresh insert always survives, so an
  // oversized closure degrades to relower-per-use instead of failing.
  std::lock_guard<std::mutex> lock(mu_);
  if (std::size_t dropped = lru_.put(k, xm, bytes, capacityBytes()))
    evictions_.fetch_add(dropped, std::memory_order_relaxed);
  return xm;
}

void ProgramCache::invalidate(const std::string& fnName) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t dropped = lru_.eraseIf([&](const Key&, const auto& xm) {
    return xm->indexOf.count(fnName) != 0;
  });
  invalidations_.fetch_add(dropped, std::memory_order_relaxed);
}

void ProgramCache::invalidateModule(const void* mod) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t dropped = lru_.eraseIf([&](const Key& k, const auto&) {
    return static_cast<const void*>(k.mod) == mod;
  });
  invalidations_.fetch_add(dropped, std::memory_order_relaxed);
}

void ProgramCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  invalidations_.fetch_add(lru_.clear(), std::memory_order_relaxed);
}

std::size_t ProgramCache::bytesInUse() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.bytes();
}

}  // namespace parad::interp
