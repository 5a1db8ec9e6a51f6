#!/usr/bin/env python3
"""Runs one workload of the CRIMES wall-clock benchmark.

    python3 perfbench/run.py --workload <copy_storm|vault|web_fleet|incident> \\
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds this
directory's CMake package (the library from src/ plus the driver) into
.bench_build/perfbench; later calls rebuild only what changed. The
driver's metric lines are passed through, and with --trace 1 the span file
it writes is validated by check_trace.py. The last line printed is the
JSON result {"correct", "attempted", "failed", "metrics"}, holding exactly
the metrics BENCHMARK.json lists for the mode. Exits 0 only when every
correctness gate held, and 2 without a result when the sources are
missing or the build fails.
"""
import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # importing check_trace leaves no cache

import check_trace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "crimes_perfbench")
WORKLOADS = ("copy_storm", "vault", "web_fleet", "incident")
MAX_SECONDS = 60
# Set-ups, replayed windows and gates come on top of --seconds; the whole
# run stays below 180 s.
SETUP_MARGIN_S = 110


def fail(message, code):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found (src/CMakeLists.txt)", 2)
    # Compiler temporaries stay inside the checkout as well.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "crimes_perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(step), 2)


def main():
    parser = argparse.ArgumentParser(description="CRIMES wall-clock benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= MAX_SECONDS:
        fail(f"--seed must be >= 0 and --seconds in (0, {MAX_SECONDS}]", 2)
    build()

    command = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spans = os.path.join(BUILD, f"spans-{args.workload}-{args.seed}.txt")
    if args.trace:
        command += ["--trace-out", spans]
    timeout = args.seconds + SETUP_MARGIN_S
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {timeout:g} s", 1)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"driver exited {proc.returncode} without a result", 1)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if args.trace else "end_to_end"]
    wanted = {(m["name"], m["unit"]) for m in listed}
    got = {(name, m["unit"]) for name, m in result["metrics"].items()}
    if got != wanted:
        odd = ", ".join(f"{n} [{u}]" for n, u in sorted(got ^ wanted))
        print(f"run.py: result metrics differ from BENCHMARK.json: {odd}")
        result["correct"] = False
    if args.trace and check_trace.check(spans):
        result["correct"] = False

    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
