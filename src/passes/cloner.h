// Generic IR cloner: rebuilds a function (or region) through a
// FunctionBuilder with a value map, letting passes intercept specific
// instructions (inlining, omp lowering, indirect-call resolution).
#pragma once

#include <functional>
#include <vector>

#include "src/ir/builder.h"

namespace parad::passes {

class Cloner {
 public:
  /// If `hook` returns true for an instruction, the default cloning is
  /// skipped (the hook must have emitted the replacement and recorded any
  /// result mapping via map()).
  using Hook = std::function<bool(Cloner&, const ir::Inst&)>;

  Cloner(const ir::Function& src, ir::FunctionBuilder& b, Hook hook = nullptr)
      : src_(src),
        b_(b),
        hook_(std::move(hook)),
        map_((std::size_t)src.numValues()) {}

  ir::FunctionBuilder& builder() { return b_; }
  const ir::Function& source() const { return src_; }

  void map(int srcId, ir::Value v) { map_[(std::size_t)srcId] = v; }
  ir::Value get(int srcId) const {
    PARAD_CHECK(srcId >= 0 && srcId < (int)map_.size() &&
                    map_[(std::size_t)srcId].valid(),
                "cloner: unmapped value %", srcId);
    return map_[(std::size_t)srcId];
  }

  /// Clones every instruction of `r` into the builder's current region.
  void cloneRegion(const ir::Region& r) {
    for (const ir::Inst& in : r.insts) cloneInst(in);
  }

  void cloneInst(const ir::Inst& in) {
    if (hook_ && hook_(*this, in)) return;
    std::vector<ir::Value> ops;
    ops.reserve(in.operands.size());
    for (int o : in.operands) ops.push_back(get(o));
    ir::Type rt = in.result >= 0 ? src_.typeOf(in.result) : ir::Type::Void;
    if (in.regions.empty()) {
      ir::Value v = b_.emitCloned(in, ops, rt);
      if (in.result >= 0) map(in.result, v);
      return;
    }
    std::vector<std::vector<ir::Type>> argTypes;
    for (const ir::Region& reg : in.regions) {
      std::vector<ir::Type> ts;
      for (int a : reg.args) ts.push_back(src_.typeOf(a));
      argTypes.push_back(std::move(ts));
    }
    ir::Value v = b_.emitStructured(
        in, ops, argTypes,
        [&](int regionIdx, const std::vector<ir::Value>& args) {
          const ir::Region& reg = in.regions[(std::size_t)regionIdx];
          for (std::size_t k = 0; k < args.size(); ++k)
            map(reg.args[k], args[k]);
          cloneRegion(reg);
        },
        rt);
    if (in.result >= 0) map(in.result, v);
  }

 private:
  const ir::Function& src_;
  ir::FunctionBuilder& b_;
  Hook hook_;
  std::vector<ir::Value> map_;  // source value id -> cloned value
};

/// Rebuilds function `name` through a cloner with the given hook, replacing
/// it in the module. Parameters are pre-mapped.
void rewriteFunction(ir::Module& mod, const std::string& name,
                     const Cloner::Hook& hook);

}  // namespace parad::passes
