// parad_perfbench: runs one benchmark workload and prints its result.
//
//   parad_perfbench --workload <mp_halo|compile_sweep|serve_open>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--perturb-op <k>] [--trace-dir <dir>]
//
// Output: notes, a "fingerprint {...}" line with the run's exact counts, and
// as the last line one JSON object with correct/attempted/failed/metrics.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones (and a Chrome trace is written under --trace-dir). Exits 1
// when any output was wrong. perfbench/run.py builds and runs this binary.
// `--workload serve_capacity` is not a workload: it measures the rate
// serve_open's service sustains, from which serve_open's offered rate is set.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "perfbench/bench.h"

namespace {

using namespace perfbench;

void usage() {
  std::fprintf(stderr,
               "usage: parad_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--perturb-op <k>] "
               "[--trace-dir <dir>]\n");
  std::exit(2);
}

bool parseNum(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) usage();
    const char* v = argv[++i];
    double x = 0;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--trace-dir") {
      o.traceDir = v;
    } else if (!parseNum(v, x)) {
      usage();
    } else if (a == "--seed" && x >= 0 && x == double(std::uint64_t(x))) {
      o.seed = std::uint64_t(x);
    } else if (a == "--seconds" && x > 0 && x <= 3600) {
      o.seconds = x;
    } else if (a == "--trace" && (x == 0 || x == 1)) {
      o.trace = x == 1;
    } else if (a == "--perturb-op" && x >= 0) {
      o.perturbOp = long(x);
    } else {
      usage();
    }
  }
  if (o.workload.empty()) usage();
  return o;
}

void printJsonNumber(double v) {
  if (std::abs(v) < 9e15 && v == double(static_cast<long long>(v)))
    std::printf("%lld", static_cast<long long>(v));
  else
    std::printf("%.17g", v);
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t processStartNs = nowNs();
  Options o = parse(argc, argv);
  Result r;
  try {
    if (o.workload == "mp_halo") r = runMpHalo(o, processStartNs);
    else if (o.workload == "compile_sweep") r = runCompileSweep(o, processStartNs);
    else if (o.workload == "serve_open") r = runServeOpen(o, processStartNs);
    else if (o.workload == "serve_capacity") r = runServeCapacity(o);
    else {
      std::fprintf(stderr, "unknown workload '%s' (mp_halo, compile_sweep, "
                           "serve_open)\n", o.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "parad_perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& n : r.notes) std::printf("%s\n", n.c_str());

  std::printf("fingerprint {");
  bool first = true;
  for (const auto& [k, v] : r.fingerprint) {
    std::printf("%s\"%s\": ", first ? "" : ", ", k.c_str());
    printJsonNumber(v);
    first = false;
  }
  std::printf("}\n");

  const bool correct = r.referenceOk && r.failed == 0 && r.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false", (unsigned long long)r.attempted,
              (unsigned long long)r.failed);
  first = true;
  for (const auto& [k, v] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", k.c_str());
    printJsonNumber(v.first);
    std::printf(", \"unit\": \"%s\"}", v.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
