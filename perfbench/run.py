#!/usr/bin/env python3
"""Build amret from this checkout and run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of the checkout. The first run configures and builds
perfbench/ (a CMake project that pulls in the sources one directory up)
into .bench_build/perfbench; later runs only check that it is up to date.
Build output goes to stderr. The workload's report goes to stdout, and its
last line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics; the result line is checked against that list before it
is printed. --self-test builds and runs the benchmark's own unit tests.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("retrain-vgg11", "infer-vgg11", "serve-lenet-open")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(target):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "amret.hpp"))):
        fail("no amret sources beside perfbench/ in " + ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "--target", target, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def source_id():
    """Digest of the sources the benchmark builds (the checkout is not
    necessarily a git repository)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are " + ", ".join(sorted(result))
    want = expected_metrics(trace)
    got = list(result["metrics"])
    if sorted(got) != sorted(want):
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)))
    if result["attempted"] < 1:
        return "no operation attempted"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(subprocess.run([build("perfbench_tests")]).returncode)
    if args.workload is None:
        ap.error("--workload is required")
    if not 0 < args.seconds <= 120:
        ap.error("--seconds must be in (0, 120]")

    binary = build("perfbench_amret")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--source", source_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("workload exited with code %d" % proc.returncode)
    problem = check_result(lines[-1], args.trace == 1)
    if problem is not None:
        sys.stderr.write(proc.stdout)
        fail(problem)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
