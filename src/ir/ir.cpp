#include "src/ir/inst.h"

#include <iterator>

namespace parad::ir {

const OpTraits& traits(Op op) {
  static const OpTraits table[] = {
      {"const.f", 0, true},   {"const.i", 0, true},   {"const.b", 0, true},
      {"fadd", 0, true},      {"fsub", 0, true},      {"fmul", 0, true},
      {"fdiv", 0, true},      {"fneg", 0, true},
      {"sqrt", 0, true},      {"sin", 0, true},       {"cos", 0, true},
      {"exp", 0, true},       {"log", 0, true},       {"pow", 0, true},
      {"fabs", 0, true},      {"fmin", 0, true},      {"fmax", 0, true},
      {"cbrt", 0, true},
      {"iadd", 0, true},      {"isub", 0, true},      {"imul", 0, true},
      {"idiv", 0, true},      {"irem", 0, true},      {"imin", 0, true},
      {"imax", 0, true},
      {"icmp.eq", 0, true},   {"icmp.ne", 0, true},   {"icmp.lt", 0, true},
      {"icmp.le", 0, true},   {"icmp.gt", 0, true},   {"icmp.ge", 0, true},
      {"fcmp.lt", 0, true},   {"fcmp.le", 0, true},   {"fcmp.gt", 0, true},
      {"fcmp.ge", 0, true},   {"fcmp.eq", 0, true},
      {"and", 0, true},       {"or", 0, true},        {"not", 0, true},
      {"select", 0, true},
      {"itof", 0, true},      {"ftoi", 0, true},
      {"alloc", 0, true},     {"free", 0, false},
      {"load", 0, true},      {"store", 0, false},    {"ptr.offset", 0, true},
      {"atomic.add", 0, false}, {"memset0", 0, false},
      {"call", 0, true},      {"call.indirect", 0, true}, {"return", 0, false},
      {"for", 1, false},      {"while", 1, false},    {"yield", 0, false},
      {"if", 2, false},
      {"parallel.for", 1, false}, {"fork", 1, false}, {"workshare", 1, false},
      {"barrier", 0, false},  {"thread.id", 0, true}, {"num.threads", 0, true},
      {"spawn", 1, true},     {"sync", 0, false},
      {"mp.rank", 0, true},   {"mp.size", 0, true},
      {"mp.isend", 0, true},  {"mp.irecv", 0, true},  {"mp.wait", 0, false},
      {"mp.send", 0, false},  {"mp.recv", 0, false},  {"mp.allreduce", 0, false},
      {"mp.barrier", 0, false},
      {"omp.parallel.for", 1, false},
      {"jl.alloc.array", 0, true}, {"gc.preserve.begin", 0, true},
      {"gc.preserve.end", 0, false},
  };
  static_assert(std::size(table) == kNumOps, "one traits row per ir::Op");
  return table[static_cast<int>(op)];
}

}  // namespace parad::ir
