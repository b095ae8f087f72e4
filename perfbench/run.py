#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload mp_halo --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --record-fingerprint
  python3 perfbench/run.py --serve-capacity --seconds 10

The first form builds perfbench/ (the parad library from src/ plus the
benchmark binary) under $CARGO_TARGET_DIR (default .bench_build), runs one
workload, checks its exact-count fingerprint against perfbench/fingerprint.json, and
prints as its last line one JSON object with correct/attempted/failed/metrics.
It exits 0 only when every output was correct.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["mp_halo", "compile_sweep", "serve_open"]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found: run from a full checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: %s)" % log_path)
    return os.path.join(out, "parad_perfbench")


def run_binary(binary, args):
    """Runs the benchmark binary; returns (exit code, output lines)."""
    try:
        p = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload run timed out after %d s" % RUN_TIMEOUT_S, 1)
    sys.stderr.write(p.stderr)
    return p.returncode, p.stdout.splitlines()


def parse_output(lines):
    """Splits the binary's output into (notes, fingerprint dict, result dict)."""
    if not lines:
        fail("benchmark binary printed nothing", 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not a JSON result: " + lines[-1], 1)
    fingerprint, notes = None, []
    for line in lines[:-1]:
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
        else:
            notes.append(line)
    return notes, fingerprint, result


def load_json(name):
    path = os.path.join(HERE, name)
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)


def check_metric_names(result, trace):
    spec = load_json(os.path.join(os.pardir, "BENCHMARK.json"))
    if spec is None:
        return
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = set(result["metrics"])
    if want != got:
        fail("metric set differs from BENCHMARK.json: missing %s, extra %s" %
             (sorted(want - got), sorted(got - want)))


def fingerprint_drift(workload, fingerprint):
    """Lists keys whose exact counts differ from perfbench/fingerprint.json."""
    recorded = (load_json("fingerprint.json") or {}).get(workload)
    if recorded is None:
        return ["no recorded fingerprint for " + workload]
    if fingerprint is None:
        return ["no fingerprint line in the output"]
    keys = sorted(set(recorded) | set(fingerprint))
    return ["%s: recorded %r, measured %r" % (k, recorded.get(k),
                                              fingerprint.get(k))
            for k in keys if recorded.get(k) != fingerprint.get(k)]


def measure(args):
    binary = build()
    rc, lines = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--trace-dir", os.path.join(os.path.dirname(build_dir()), "traces")])
    notes, fingerprint, result = parse_output(lines)
    for line in notes:
        print(line)
    check_metric_names(result, args.trace == 1)
    drift = fingerprint_drift(args.workload, fingerprint)
    for d in drift:
        print("fingerprint drift: " + d)
    if drift:
        result["correct"] = False
    if rc not in (0, 1):
        fail("benchmark binary exited with code %d" % rc, 1)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and rc == 0 else 1)


def self_test():
    """Perturbs one gradient element per workload; each run must be flagged."""
    binary = build()
    ok = True
    for w in WORKLOADS:
        rc, lines = run_binary(binary, [
            "--workload", w, "--seed", "1", "--seconds", "1.5", "--trace", "0",
            "--perturb-op", "1"])
        _, _, result = parse_output(lines)
        flagged = rc == 1 and not result["correct"] and result["failed"] >= 1
        print("%-14s perturbed op 1: %s (exit %d, failed %d of %d)" %
              (w, "flagged" if flagged else "NOT FLAGGED", rc,
               result["failed"], result["attempted"]))
        ok = ok and flagged
    sys.exit(0 if ok else 1)


def record_fingerprint():
    """Writes perfbench/fingerprint.json from one short run per workload."""
    binary = build()
    out = {}
    for w in WORKLOADS:
        rc, lines = run_binary(binary, [
            "--workload", w, "--seed", "1", "--seconds", "0.5", "--trace", "0"])
        _, fingerprint, result = parse_output(lines)
        if rc != 0 or not result["correct"]:
            fail("%s run was not correct; fingerprint not recorded" % w, 1)
        out[w] = fingerprint
    with open(os.path.join(HERE, "fingerprint.json"), "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote perfbench/fingerprint.json")


def serve_capacity(args):
    """Prints the rate serve_open's service sustains (closed loop)."""
    rc, lines = run_binary(build(), [
        "--workload", "serve_capacity", "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0"])
    _, _, result = parse_output(lines)
    print(json.dumps(result))
    sys.exit(0 if rc == 0 else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-fingerprint", action="store_true")
    ap.add_argument("--serve-capacity", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in (0, 3600]")
    if args.self_test:
        self_test()
    elif args.record_fingerprint:
        record_fingerprint()
    elif args.serve_capacity:
        serve_capacity(args)
    elif args.workload:
        measure(args)
    else:
        ap.error("--workload, --self-test, --record-fingerprint or "
                 "--serve-capacity is required")


if __name__ == "__main__":
    main()
