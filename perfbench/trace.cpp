#include "perfbench/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>

#include "perfbench/bench.h"

namespace perfbench::trace {
namespace {

struct Rec {
  const char* name = "";
  std::uint64_t start = 0, end = 0;
  std::uint64_t cpu = 0;
  int parent = -1;
  long op = -1;
  int tid = 0;
  bool cpuActive = false;
};

std::atomic<bool> gOn{false};
std::mutex gMu;
std::vector<Rec> gRecs;  // guarded by gMu; span ids index it
std::atomic<int> gNextTid{1};

thread_local std::vector<int> tStack;
thread_local int tTid = 0;

int threadId() {
  if (tTid == 0) tTid = gNextTid.fetch_add(1);
  return tTid;
}

std::string layerOf(const char* name) {
  std::string s(name);
  std::size_t dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

double activeNs(const Rec& r) {
  return r.cpuActive ? double(r.cpu) : double(r.end - r.start);
}

}  // namespace

void enable(bool on) { gOn.store(on); }
bool enabled() { return gOn.load(std::memory_order_relaxed); }

Span::Span(const char* name, long op, int parent, bool cpuActive) {
  if (!enabled()) return;
  if (parent == kInheritParent) parent = tStack.empty() ? -1 : tStack.back();
  Rec r;
  r.name = name;
  r.parent = parent;
  r.op = op;
  r.tid = threadId();
  r.cpuActive = cpuActive;
  {
    std::lock_guard<std::mutex> lock(gMu);
    id_ = static_cast<int>(gRecs.size());
    gRecs.push_back(r);
  }
  tStack.push_back(id_);
  cpu0_ = threadCpuNs();
  std::uint64_t t = nowNs();
  std::lock_guard<std::mutex> lock(gMu);
  gRecs[static_cast<std::size_t>(id_)].start = t;
}

Span::~Span() {
  if (id_ < 0) return;
  std::uint64_t t = nowNs();
  std::uint64_t cpu = threadCpuNs() - cpu0_;
  tStack.pop_back();
  std::lock_guard<std::mutex> lock(gMu);
  Rec& r = gRecs[static_cast<std::size_t>(id_)];
  r.end = t;
  r.cpu = cpu;
}

int recordExternal(const char* name, std::uint64_t startNs,
                   std::uint64_t endNs, long op) {
  if (!enabled()) return -1;
  Rec r;
  r.name = name;
  r.start = startNs;
  r.end = std::max(startNs, endNs);
  r.op = op;
  r.tid = 0;  // synthetic lane
  std::lock_guard<std::mutex> lock(gMu);
  gRecs.push_back(r);
  return static_cast<int>(gRecs.size()) - 1;
}

void setParent(int child, int parent) {
  if (child < 0) return;
  std::lock_guard<std::mutex> lock(gMu);
  gRecs[static_cast<std::size_t>(child)].parent = parent;
}

std::vector<LayerSelf> selfByLayer() {
  std::lock_guard<std::mutex> lock(gMu);
  std::vector<double> self(gRecs.size());
  for (std::size_t i = 0; i < gRecs.size(); ++i) self[i] = activeNs(gRecs[i]);
  for (const Rec& r : gRecs)
    if (r.parent >= 0) self[static_cast<std::size_t>(r.parent)] -= activeNs(r);
  std::map<std::string, LayerSelf> by;
  for (std::size_t i = 0; i < gRecs.size(); ++i) {
    const Rec& r = gRecs[i];
    LayerSelf& l = by[layerOf(r.name)];
    l.layer = layerOf(r.name);
    double ms = std::max(0.0, self[i]) * 1e-6;
    (r.op < 0 ? l.setupMs : l.opsMs) += ms;
  }
  std::vector<LayerSelf> out;
  for (auto& [k, v] : by) out.push_back(v);
  return out;
}

long opsRecorded() {
  std::lock_guard<std::mutex> lock(gMu);
  std::set<long> ops;
  for (const Rec& r : gRecs)
    if (r.op >= 0) ops.insert(r.op);
  return static_cast<long>(ops.size());
}

NameTotal totalOf(const std::string& name, bool opsOnly) {
  std::lock_guard<std::mutex> lock(gMu);
  NameTotal t;
  for (const Rec& r : gRecs) {
    if (name != r.name || (opsOnly && r.op < 0)) continue;
    t.wallMs += double(r.end - r.start) * 1e-6;
    t.cpuMs += double(r.cpu) * 1e-6;
    t.count++;
  }
  return t;
}

bool writeChrome(const std::string& path) {
  std::lock_guard<std::mutex> lock(gMu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t t0 = ~std::uint64_t(0);
  for (const Rec& r : gRecs) t0 = std::min(t0, r.start);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  for (std::size_t i = 0; i < gRecs.size(); ++i) {
    const Rec& r = gRecs[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d, \"op\": %ld, "
                 "\"cpu_us\": %.3f}}",
                 i ? "," : "", r.name, layerOf(r.name).c_str(), r.tid,
                 double(r.start - t0) * 1e-3, double(r.end - r.start) * 1e-3,
                 i, r.parent, r.op, double(r.cpu) * 1e-3);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
