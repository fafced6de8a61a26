#!/usr/bin/env python3
"""Benchmark of the UPA DP release path.

Builds the benchmark (and the UPA libraries it links) in Release under
.bench_build/dpbench, then runs one workload in its own process:

    python3 dpbench/run.py --workload cached_routed --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is non-zero when the
build fails, the run fails, or any correctness check fires.

Other modes:
    python3 dpbench/run.py --selftest   # unit test of the answer checker
    python3 dpbench/run.py --quick      # self-test, then every workload at
                                        # a small size, traced and untraced
"""
import argparse
import functools
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "dpbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "dpbench-work")
BINARY = os.path.join(BUILD_DIR, "dpbench")
WORKLOADS = ["cached_routed", "fresh_direct", "grouped_local"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("dpbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then (re)build only the benchmark target."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources not found next to the benchmark (src/)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "dpbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as err:
                fail("build step %s failed: %s" % (cmd[:2], err))
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)


@functools.lru_cache(maxsize=None)
def source_id():
    """The git sha when the checkout is a git repository, else a digest of
    the sources the benchmark builds from."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for base in ("src", "dpbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "none (not a git checkout; sources sha256 %s)" % digest.hexdigest()[:16]


def run_workload(workload, seed, seconds, trace, quick=False, echo=True):
    """Runs one workload process; returns (exit code, parsed result or None,
    stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", WORK_DIR, "--git-sha", source_id()]
    if quick:
        cmd.append("--quick")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("dpbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1, None, []
    lines = done.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if done.stderr:
        sys.stderr.write(done.stderr)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result, lines


def quick_mode():
    code = subprocess.run([BINARY, "--selftest"]).returncode
    ok = code == 0
    for workload in WORKLOADS:
        for trace in (False, True):
            rc, result, _ = run_workload(workload, 1, 2, trace, quick=True,
                                         echo=False)
            good = rc == 0 and result is not None and result["correct"] \
                and result["failed"] == 0
            ok = ok and good
            print("%-14s trace=%d  %s  attempted=%s failed=%s" % (
                workload, trace, "ok" if good else "FAILED",
                result and result["attempted"], result and result["failed"]))
    print("quick mode: %s (numbers from quick mode are not benchmark results)"
          % ("all checks passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    build()
    if args.selftest:
        return subprocess.run([BINARY, "--selftest"]).returncode
    if args.quick:
        return quick_mode()
    if args.workload is None:
        parser.error("--workload is required")
    rc, result, lines = run_workload(args.workload, args.seed, args.seconds,
                                     args.trace == 1)
    if result is None:
        print("dpbench: the run printed no result", file=sys.stderr)
        return rc or 1
    print(lines[-1])
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())
