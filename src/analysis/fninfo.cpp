#include "src/analysis/fninfo.h"

#include <algorithm>

#include "src/ir/derivatives.h"
#include "src/support/common.h"

namespace parad::analysis {

using ir::Op;
using ir::Type;

FnInfo::FnInfo(const ir::Function& fn, const std::vector<bool>& activeArg)
    : fn_(&fn) {
  std::size_t n = static_cast<std::size_t>(fn.numValues());
  def_.assign(n, nullptr);
  defRegion_.assign(n, nullptr);
  depth_.assign(n, 0);
  ptrClass_.assign(n, PtrClass::unknown());
  varied_.assign(n, 0);
  crossRegion_.assign(n, 0);
  index(fn.body, nullptr, nullptr, 0);
  classify();
  activity(activeArg);
}

void FnInfo::index(const ir::Region& r, const ir::Region* parent,
                   const ir::Inst* parentInst, int depth) {
  regionParentInst_[&r] = parentInst;
  regionParentRegion_[&r] = parent;
  for (int a : r.args) {
    defRegion_[(std::size_t)a] = &r;
    depth_[(std::size_t)a] = depth;
    if (parentInst) argOwner_[a] = parentInst;
  }
  for (const ir::Inst& in : r.insts) {
    allInsts_.push_back(&in);
    instRegion_[&in] = &r;
    if (in.result >= 0) {
      def_[(std::size_t)in.result] = &in;
      defRegion_[(std::size_t)in.result] = &r;
      depth_[(std::size_t)in.result] = depth;
    }
    if (in.op == Op::Return && !in.operands.empty() && depth == 0)
      returnedValue_ = in.operands[0];
    // Mark operands used from a different region than their definition.
    for (int o : in.operands)
      if (defRegion_[(std::size_t)o] != nullptr &&
          defRegion_[(std::size_t)o] != &r)
        crossRegion_[(std::size_t)o] = 1;
    for (const ir::Region& sub : in.regions) index(sub, &r, &in, depth + 1);
  }
}

std::vector<const ir::Inst*> FnInfo::enclosingChain(const ir::Region* r) const {
  std::vector<const ir::Inst*> chain;
  while (r) {
    const ir::Inst* p = regionParent(r);
    if (p) chain.push_back(p);
    auto it = regionParentRegion_.find(r);
    r = it == regionParentRegion_.end() ? nullptr : it->second;
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

bool FnInfo::definedInside(int v, const ir::Inst* container) const {
  const ir::Region* r = defRegion_[(std::size_t)v];
  auto chain = enclosingChain(r);
  return std::find(chain.begin(), chain.end(), container) != chain.end();
}

std::vector<const ir::Inst*> FnInfo::cacheDims(const ir::Region* r) const {
  std::vector<const ir::Inst*> dims;
  for (const ir::Inst* in : enclosingChain(r)) {
    switch (in->op) {
      case Op::For:
      case Op::While:
      case Op::ParallelFor:
        dims.push_back(in);
        break;
      case Op::Workshare:
        // Worksharing iterations uniquely identify the execution: drop the
        // nearest enclosing Fork dim (paper §VI-B).
        if (!dims.empty() && dims.back()->op == Op::Fork) dims.pop_back();
        dims.push_back(in);
        break;
      case Op::Fork:
        dims.push_back(in);
        break;
      default:
        break;  // If / Spawn add no dimension
    }
  }
  return dims;
}

void FnInfo::classify() {
  // Forward pass assigning pointer classes; straight-line order suffices
  // since SSA defs dominate uses in structured IR.
  const ir::Function& fn = *fn_;
  for (std::size_t i = 0; i < fn.body.args.size(); ++i)
    if (ir::isPtr(fn.paramTypes[i]))
      ptrClass_[(std::size_t)fn.body.args[i]] =
          PtrClass::argClass(static_cast<int>(i));

  for (const ir::Inst* inp : allInsts_) {
    const ir::Inst& in = *inp;
    if (in.result < 0 || !ir::isPtr(fn.typeOf(in.result))) {
      // Track written classes.
      switch (in.op) {
        case Op::Store:
        case Op::AtomicAddF:
        case Op::Memset0:
          written_.insert(ptrClass_[(std::size_t)in.operands[0]].key());
          break;
        case Op::MpIrecv:
        case Op::MpRecv:
          written_.insert(ptrClass_[(std::size_t)in.operands[0]].key());
          break;
        case Op::MpAllreduce:
          written_.insert(ptrClass_[(std::size_t)in.operands[1]].key());
          if (in.operands.size() == 4)
            written_.insert(ptrClass_[(std::size_t)in.operands[3]].key());
          break;
        default:
          break;
      }
      continue;
    }
    std::size_t res = (std::size_t)in.result;
    switch (in.op) {
      case Op::Alloc:
        ptrClass_[res] = PtrClass::allocClass(&in);
        break;
      case Op::JlAllocArray:
        ptrClass_[res] = PtrClass::allocClass(&in);
        break;
      case Op::PtrOffset:
        ptrClass_[res] = ptrClass_[(std::size_t)in.operands[0]];
        break;
      case Op::Load:
        // A pointer loaded from memory (e.g. out of a boxed-array
        // descriptor) may alias anything: Julia arrays are mutable and the
        // JIT provides no aliasing metadata, which is precisely why the
        // paper reports extra reverse-pass caching for Julia (§VIII).
        ptrClass_[res] = PtrClass::unknown();
        break;
      case Op::Select: {
        PtrClass a = ptrClass_[(std::size_t)in.operands[1]];
        PtrClass b = ptrClass_[(std::size_t)in.operands[2]];
        ptrClass_[res] = (a == b) ? a : PtrClass::unknown();
        break;
      }
      default:
        ptrClass_[res] = PtrClass::unknown();
        break;
    }
  }
}

void FnInfo::activity(const std::vector<bool>& activeArg) {
  const ir::Function& fn = *fn_;
  // Seed: active pointer args carry derivatives.
  for (std::size_t i = 0; i < fn.body.args.size(); ++i)
    if (i < activeArg.size() && activeArg[i] && ir::isPtr(fn.paramTypes[i]))
      variedClass_.insert(PtrClass::argClass(static_cast<int>(i)).key());

  // Does any message-passing send carry varied data? (SPMD: receives then
  // produce varied data too.) Resolved inside the fixpoint.
  bool changed = true;
  int rounds = 0;
  while (changed) {
    PARAD_CHECK(++rounds < 64, "activity analysis failed to converge");
    changed = false;
    bool anySendVaried = false;
    for (const ir::Inst* inp : allInsts_) {
      const ir::Inst& in = *inp;
      if ((in.op == Op::MpIsend || in.op == Op::MpSend) &&
          classVaried(ptrClass_[(std::size_t)in.operands[0]]))
        anySendVaried = true;
      if (in.op == Op::MpAllreduce &&
          classVaried(ptrClass_[(std::size_t)in.operands[0]]))
        anySendVaried = true;
    }
    for (const ir::Inst* inp : allInsts_) {
      const ir::Inst& in = *inp;
      auto mark = [&](int v) {
        if (!varied_[(std::size_t)v]) {
          varied_[(std::size_t)v] = 1;
          changed = true;
        }
      };
      auto markClass = [&](const PtrClass& c) {
        if (c.kind == PtrClass::Kind::Unknown) return;  // always varied
        if (variedClass_.insert(c.key()).second) changed = true;
      };
      bool anyOpVaried = false;
      for (int o : in.operands)
        if (varied_[(std::size_t)o]) anyOpVaried = true;

      if (in.result >= 0 && fn.typeOf(in.result) == Type::F64) {
        switch (in.op) {
          case Op::Load:
            if (classVaried(ptrClass_[(std::size_t)in.operands[0]]))
              mark(in.result);
            break;
          case Op::ConstF:
            break;
          default:
            if (anyOpVaried && !ir::noDerivative(in.op)) mark(in.result);
            break;
        }
      }
      switch (in.op) {
        case Op::Store:
          if (varied_[(std::size_t)in.operands[2]])
            markClass(ptrClass_[(std::size_t)in.operands[0]]);
          break;
        case Op::AtomicAddF:
          if (varied_[(std::size_t)in.operands[2]])
            markClass(ptrClass_[(std::size_t)in.operands[0]]);
          break;
        case Op::MpRecv:
        case Op::MpIrecv:
          if (anySendVaried) markClass(ptrClass_[(std::size_t)in.operands[0]]);
          break;
        case Op::MpAllreduce:
          if (anySendVaried) markClass(ptrClass_[(std::size_t)in.operands[1]]);
          break;
        default:
          break;
      }
    }
  }
}

}  // namespace parad::analysis
