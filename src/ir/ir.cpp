#include "src/ir/inst.h"

namespace parad::ir {

const OpTraits& traits(Op op) {
  using enum Type;
  using enum OpEffect;
#define SIG(result, ...) true, result, {__VA_ARGS__}
#define VARIES false, Void, {}
  static constexpr OpTraits table[] = {
#define PARAD_OP(Id, name, regions, result, effect, cost, sig) \
  {name, regions, result != 0, effect, false, sig},
#define PARAD_ARITH(Id, name, effect, cost, sig, ...) \
  {name, 0, true, effect, true, sig},
#include "src/ir/ops.def"
  };
#undef SIG
#undef VARIES
  return table[static_cast<int>(op)];
}

}  // namespace parad::ir
