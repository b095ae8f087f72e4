// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark around its calls into each layer's
// public functions (nothing inside src/ is instrumented). A span carries its
// name ("<layer>.<call>"), wall start/end, the CPU time its thread spent in
// it, its parent span and the op it belongs to (-1: set-up). The record is
// kept in memory and written as Chrome trace-event JSON when the run ends.
//
// Self time of a span is its *active* time minus its children's active time.
// Active time is wall time, except for spans marked cpuActive: those run on a
// virtual rank's carrier thread, which sits blocked while other ranks run, so
// only the CPU time that thread consumed counts. Machine::run's self time is
// therefore what the cooperative scheduler costs: thread start-up, hand-offs
// and the wake-up latency between ranks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

constexpr int kInheritParent = -2;

/// Turns recording on or off (off: every Span is a no-op).
void enable(bool on);
bool enabled();

/// RAII span. `parent` defaults to the innermost open span of this thread;
/// pass an explicit id when the parent lives on another thread.
class Span {
 public:
  explicit Span(const char* name, long op = -1, int parent = kInheritParent,
                bool cpuActive = false);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int id() const { return id_; }

 private:
  int id_ = -1;
  std::uint64_t cpu0_ = 0;
};

/// Records a span with explicit wall times on a synthetic lane (used for
/// serve requests, whose life spans several service threads). Returns its id.
int recordExternal(const char* name, std::uint64_t startNs,
                   std::uint64_t endNs, long op);
/// Re-parents span `child` under `parent` (both already recorded).
void setParent(int child, int parent);

/// Per-layer self time, split into set-up (op == -1) and timed ops.
struct LayerSelf {
  std::string layer;
  double setupMs = 0;
  double opsMs = 0;  // summed over every timed op
};
std::vector<LayerSelf> selfByLayer();
/// Number of distinct timed ops seen in the record.
long opsRecorded();
/// Sum over spans named `name` of their wall time (ms) and their count.
struct NameTotal {
  double wallMs = 0;
  double cpuMs = 0;
  long count = 0;
};
NameTotal totalOf(const std::string& name, bool opsOnly = false);

/// Writes the record as Chrome trace-event JSON. Returns false on I/O error.
bool writeChrome(const std::string& path);

}  // namespace perfbench::trace
