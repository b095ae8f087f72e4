// Per-layer metrics of the traced run: the fixed list every workload
// reports (0 where a layer takes no part in the workload), plus helpers that
// read them off the span record.
#pragma once

#include <string>

#include "perfbench/bench.h"
#include "perfbench/programs.h"

namespace perfbench {

/// Sets every per-layer metric to 0 with its unit.
void initLayerMetrics(Result& r);

/// Mean wall time (ms) of the spans named `name`: over timed ops when any op
/// recorded one, else over set-up.
double meanSpanMs(const std::string& name);

/// Fills `<layer>.self_ms` (self time per timed op) for every layer and
/// prints the per-layer self-time table.
void selfTimeMetrics(Result& r, const std::string& workload);

/// Plan counts and cache bytes of one compiled gradient, added onto the
/// core.* metrics (compile_sweep sums them over its variants).
void addPlanMetrics(Result& r, const Compiled& c, const RunOut& grad);

/// Records the compile-time exact counts of `c` (IR sizes, lowered bytes,
/// plan counts) in the run's fingerprint, keys prefixed by `prefix`.
void fingerprintCompile(Result& r, const std::string& prefix,
                        const Compiled& c);

/// Median wall time (µs) of an empty Machine::run at the launch shape.
double emptyRunUs(int ranks, int threadsPerRank);

/// Writes the Chrome trace of this run under `dir`; notes the path.
void writeTrace(Result& r, const Options& o);

}  // namespace perfbench
