// Memory objects of the virtual machine.
//
// All interpreted memory lives in MemObjects owned by a MemoryManager.
// A runtime pointer is an (object id, element offset) pair; the element type
// is known statically from the IR. Objects carry a NUMA home socket
// (first-touch: the socket of the allocating worker) used by the cost model,
// and flags identifying AD cache and shadow allocations for the statistics
// the ablation benches report.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/ir/type.h"
#include "src/psim/machine.h"
#include "src/support/common.h"

namespace parad::psim {

/// Runtime pointer: object id plus element offset.
struct RtPtr {
  std::int32_t obj = -1;
  i64 off = 0;
  bool null() const { return obj < 0; }
};

struct MemObject {
  ir::Type elem = ir::Type::F64;
  i64 count = 0;
  int homeSocket = 0;
  bool freed = false;
  bool isCache = false;   // allocated by the AD cache planner
  bool isShadow = false;  // shadow (derivative) object
  // Exactly one storage vector is used, selected by `elem`.
  std::vector<double> f;
  std::vector<i64> i;
  std::vector<RtPtr> p;
  // Atomic-contention tracking per modeled cache line. A line observed under
  // atomic RMWs from more than one core is marked shared; every atomic on a
  // shared line pays a line-transfer (ping-pong) cost, since concurrent
  // threads would bounce it continuously. We deliberately do not serialize
  // against the previous op's completion time: virtual threads execute
  // sequentially in wall time with overlapping virtual windows, so a
  // high-water-mark model would turn bounded line bouncing into full
  // serialization (see DESIGN.md).
  struct AtomicLine {
    int lastCore = -1;
    bool hot = false;  // rapidly alternating between cores: pays per access
    int streak = 0;      // consecutive same-core accesses
    int transitions = 0; // ownership changes since the line was last owned
  };
  std::vector<AtomicLine> atomicLines;
  AtomicLine& atomicLine(i64 elemIndex) {
    if (atomicLines.empty()) {
      i64 lines = count / 8 + 1;
      atomicLines.assign(static_cast<std::size_t>(lines < 4096 ? lines : 4096),
                         AtomicLine{});
    }
    return atomicLines[static_cast<std::size_t>(elemIndex / 8) %
                       atomicLines.size()];
  }

  i64 bytes() const { return count * 8; }

  /// Bounds check of element `k`: the one check, with one message, of every
  /// element access (the engines' and the host accessors' below).
  std::size_t index(i64 k) const {
    PARAD_CHECK(k >= 0 && k < count, "access out of bounds: index ", k,
                " of ", count);
    return static_cast<std::size_t>(k);
  }
};

class MemoryManager {
 public:
  explicit MemoryManager(RunStats& stats) : stats_(stats) {}

  RtPtr alloc(ir::Type elem, i64 count, int homeSocket, bool isCache = false,
              bool isShadow = false) {
    PARAD_CHECK(count >= 0, "negative allocation size");
    auto obj = std::make_unique<MemObject>();
    obj->elem = elem;
    obj->count = count;
    obj->homeSocket = homeSocket;
    obj->isCache = isCache;
    obj->isShadow = isShadow;
    switch (elem) {
      case ir::Type::F64: obj->f.assign(static_cast<std::size_t>(count), 0.0); break;
      case ir::Type::I64: obj->i.assign(static_cast<std::size_t>(count), 0); break;
      case ir::Type::PtrF64: obj->p.assign(static_cast<std::size_t>(count), RtPtr{}); break;
      default: fail("alloc: unsupported element type");
    }
    stats_.allocBytes += static_cast<std::uint64_t>(obj->bytes());
    if (isCache) stats_.cacheBytes += static_cast<std::uint64_t>(obj->bytes());
    liveBytes_ += static_cast<std::uint64_t>(obj->bytes());
    if (liveBytes_ > stats_.peakLiveBytes) stats_.peakLiveBytes = liveBytes_;
    objects_.push_back(std::move(obj));
    return RtPtr{static_cast<std::int32_t>(objects_.size() - 1), 0};
  }

  MemObject& get(RtPtr p) {
    PARAD_CHECK(!p.null() && static_cast<std::size_t>(p.obj) < objects_.size(),
                "dangling pointer (object id ", p.obj, ")");
    MemObject& o = *objects_[static_cast<std::size_t>(p.obj)];
    PARAD_CHECK(!o.freed, "use after free (object id ", p.obj, ")");
    return o;
  }
  const MemObject& get(RtPtr p) const {
    return const_cast<MemoryManager*>(this)->get(p);
  }

  void free(RtPtr p) {
    MemObject& o = get(p);
    o.freed = true;
    liveBytes_ -= static_cast<std::uint64_t>(o.bytes());
    // Release the payload eagerly; the header stays so dangling uses trap.
    o.f.clear(); o.f.shrink_to_fit();
    o.i.clear(); o.i.shrink_to_fit();
    o.p.clear(); o.p.shrink_to_fit();
  }

  /// Bounds-checked element accessors (f64 / i64 / ptr storage).
  double& atF(RtPtr p, i64 idx) {
    MemObject& o = typed(p, ir::Type::F64);
    return o.f[o.index(p.off + idx)];
  }
  i64& atI(RtPtr p, i64 idx) {
    MemObject& o = typed(p, ir::Type::I64);
    return o.i[o.index(p.off + idx)];
  }
  RtPtr& atP(RtPtr p, i64 idx) {
    MemObject& o = typed(p, ir::Type::PtrF64);
    return o.p[o.index(p.off + idx)];
  }

  std::size_t numObjects() const { return objects_.size(); }

  // --- Checkpoint/restart surface (src/psim/checkpoint.cpp) ---------------
  // Raw header+payload access by object index (including freed objects:
  // restore must reinstate their cleared payloads and freed flags exactly).
  MemObject& objectAt(std::size_t idx) {
    PARAD_CHECK(idx < objects_.size(), "objectAt: bad object index ", idx);
    return *objects_[idx];
  }
  /// Drops every object allocated after the first `n` — used when rolling
  /// back to a snapshot taken before those allocations existed. Replay
  /// re-allocates them deterministically, re-receiving the same object ids.
  void truncateObjects(std::size_t n) {
    PARAD_CHECK(n <= objects_.size(), "truncateObjects: growing is invalid");
    objects_.resize(n);
  }
  std::uint64_t liveBytes() const { return liveBytes_; }
  void setLiveBytes(std::uint64_t b) { liveBytes_ = b; }

 private:
  MemObject& typed(RtPtr p, ir::Type elem) {
    MemObject& o = get(p);
    PARAD_CHECK(o.elem == elem, "element type mismatch (object id ", p.obj,
                ")");
    return o;
  }

  std::vector<std::unique_ptr<MemObject>> objects_;
  RunStats& stats_;
  std::uint64_t liveBytes_ = 0;
};

}  // namespace parad::psim
