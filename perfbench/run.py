#!/usr/bin/env python3
"""Build and run the phlogon benchmark of record.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py [--seed <n>] [--seconds <s>]     # every workload

Run from the root of a checkout.  The first call configures and builds the
library and the benchmark from source into .bench_build/ (or
$CARGO_TARGET_DIR when set); later calls only rebuild what changed.  Build
output goes to standard error, so the last line of standard output is the
benchmark's JSON result.  Without --workload every workload runs in turn,
untraced, and the exit code is non-zero if any of them failed a check.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["design", "serial_adder_spice", "serial_adder_phase",
             "fabric_adder16", "fabric_shift1000", "service"]
RUN_TIMEOUT_S = 175.0


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out):
    """Configure (once) and build the benchmark; returns the binary path."""
    cmake_dir = os.path.join(out, "cmake")
    env = clean_env()
    cache = os.path.join(cmake_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        # A build tree configured for another source directory (a moved
        # checkout) cannot be reused.
        with open(cache, encoding="utf-8", errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(cmake_dir)
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, stderr=sys.stderr, env=env, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", cmake_dir, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, env=env, check=True)
    return os.path.join(cmake_dir, "perfbench")


def clean_env():
    """The caller's environment minus every PHLOGON_* setting, so runs see the
    library's defaults (no SIMD, cache, trace, metrics, log or thread knob)."""
    return {k: v for k, v in os.environ.items() if not k.startswith("PHLOGON_")}


def run_one(binary, out, workload, seed, seconds, trace, deadline):
    workdir = os.path.join(out, "work", workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--workdir", workdir]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=clean_env(), text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: {workload} did not finish within {timeout:.0f} s", file=sys.stderr)
        return None, 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(stdout)
        print(f"perfbench: {workload} printed no result", file=sys.stderr)
        return None, proc.returncode or 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    named = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "named":
            named[parts[1]] = float(parts[2])
    result["named"] = named
    return result, proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    if args.workload:
        deadline = time.monotonic() + RUN_TIMEOUT_S
        result, code = run_one(binary, out, args.workload, args.seed, args.seconds,
                               args.trace, deadline)
        if result is None:
            return code or 1
        del result["named"]
        print(json.dumps(result))
        return code

    # Every workload, untraced: one summary line per workload, the
    # phase-vs-SPICE speed ratio on identical operand pairs, then overall.
    failed = 0
    named = {}
    for w in WORKLOADS:
        deadline = time.monotonic() + RUN_TIMEOUT_S
        result, code = run_one(binary, out, w, args.seed, args.seconds, False, deadline)
        if result is None or code != 0 or not result.get("correct"):
            failed += 1
        if result is not None:
            named.update(result.pop("named"))
            print(f"result {w} {json.dumps(result)}")
    if named.get("spice_cycles_per_s"):
        ratio = named["phase_cycles_per_s"] / named["spice_cycles_per_s"]
        print(f"named phase_vs_spice_speedup {ratio:.6g} ratio")
    print(json.dumps({"workloads": len(WORKLOADS), "failed": failed}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
