#!/usr/bin/env python3
"""Build and run the FABNet runtime benchmark.

    python3 fabbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 fabbench/run.py --self-test

Run from the repository root (any checkout of it). The first run
configures and builds fabbench/ (which compiles the library from the
repository's sources) into .bench_build/fabbench; later runs only
re-check the build. The benchmark sizes its own pool per workload
(see poolThreads in bench.h) and runs with FABNET_TUNE_CACHE removed,
so every autotuner search is charged to set-up. Its last stdout line is the JSON result; run.py checks that
the metric names are exactly the ones BENCHMARK.json lists for the mode.
Build output goes to stderr. --self-test builds and runs the tests of
the benchmark's own helpers.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "fabbench")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build(target):
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("repository sources not found (%s missing next to %s)"
                 % (need, os.path.relpath(HERE, ROOT)))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(subprocess.run([build("fabbench_helpers_test")]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")
    expected = expected_metrics(args.trace)
    binary = build("fabbench")

    env = dict(os.environ)
    env.pop("FABNET_TUNE_CACHE", None)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        out = e.stdout or ""
        sys.stdout.write(out.decode() if isinstance(out, bytes) else out)
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    sys.stdout.flush()
    if proc.returncode:
        fail("benchmark exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    got = sorted(result.get("metrics", {}))
    if got != sorted(expected):
        fail("metrics differ from BENCHMARK.json: missing %s, unexpected %s"
             % (sorted(set(expected) - set(got)),
                sorted(set(got) - set(expected))))
    print(lines[-1])


if __name__ == "__main__":
    main()
