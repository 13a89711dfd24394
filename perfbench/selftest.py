#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Builds the benchmark (as run.py does), then asserts that
  * every workload passes its correctness checks;
  * work counters repeat exactly between two traced runs with one seed (on
    `service` also the cache hits and misses and the checkpoint resumes);
  * every timing block satisfies min <= p50 <= p90 <= max;
  * the runner fails, without printing a result, in a directory that holds
    only BENCHMARK.json and perfbench/.
Exits non-zero on the first failed assertion.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as runner  # noqa: E402

WORK_COUNTERS = [
    "numeric.lu_factor_calls", "numeric.lu_solve_calls", "numeric.newton_iters",
    "numeric.rhs_evals", "numeric.jac_evals", "circuit.unknowns", "analysis.steps",
    "analysis.rejected_steps", "phase.rhs_evals", "phase.signal_evals",
]
SERVICE_COUNTERS = ["io.cache_hits", "io.cache_misses", "io.checkpoint_resumes"]
TIMING = re.compile(r"^timing (\S+) n=(\d+) min=(\S+) p50=(\S+) p90=(\S+) max=(\S+)$")


def invoke(binary, out, workload, seed, seconds, trace):
    workdir = os.path.join(out, "work", "selftest-" + workload)
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", workdir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=runner.clean_env(),
                          timeout=runner.RUN_TIMEOUT_S, check=False)
    shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        sys.stdout.write(proc.stdout)
        raise AssertionError(f"{workload} (trace {trace}) failed its checks")
    return result, lines


def check_timings(workload, lines):
    seen = 0
    for line in lines:
        m = TIMING.match(line)
        if not m:
            continue
        seen += 1
        lo, p50, p90, hi = (float(x) for x in m.groups()[2:])
        if not lo <= p50 <= p90 <= hi:
            raise AssertionError(f"{workload}: quantiles out of order: {line}")
    if not seen:
        raise AssertionError(f"{workload}: no timing blocks printed")
    return seen


def check_declared(workload, result, declared):
    """The run reports exactly the metrics BENCHMARK.json declares, with
    the declared units."""
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise AssertionError(f"{workload}: reported metrics differ from BENCHMARK.json: "
                             f"missing {sorted(set(want) - set(got))}, "
                             f"extra {sorted(set(got) - set(want))}")


def main():
    out = runner.build_dir()
    binary = runner.build(out)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if [w["name"] for w in spec["workloads"]] != runner.WORKLOADS:
        raise AssertionError("run.py's workloads differ from BENCHMARK.json")

    for w in runner.WORKLOADS:
        e2e, lines = invoke(binary, out, w, seed=5, seconds=1, trace=0)
        check_declared(w, e2e, spec["end_to_end"])
        n = check_timings(w, lines)
        first, lines1 = invoke(binary, out, w, seed=5, seconds=1, trace=1)
        check_declared(w, first, spec["per_layer"])
        n += check_timings(w, lines1)
        print(f"ok   {w}: checks pass, {n} timing blocks ordered")
        second, _ = invoke(binary, out, w, seed=5, seconds=1, trace=1)
        counters = WORK_COUNTERS + (SERVICE_COUNTERS if w == "service" else [])
        a = {k: first["metrics"][k]["value"] for k in counters}
        b = {k: second["metrics"][k]["value"] for k in counters}
        if a != b:
            diff = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
            raise AssertionError(f"{w}: work counters differ between runs: {diff}")
        if not any(a.values()):
            raise AssertionError(f"{w}: every work counter is zero")
        print(f"ok   {w}: work counters repeat exactly")

    # A directory holding only the benchmark: the build must fail cleanly.
    iso = os.path.join(out, "selftest-isolated")
    shutil.rmtree(iso, ignore_errors=True)
    os.makedirs(iso)
    root = os.path.dirname(HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), iso)
    shutil.copytree(HERE, os.path.join(iso, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in runner.clean_env().items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--workload",
                           "design", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=iso, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=180, check=False)
    shutil.rmtree(iso, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        raise AssertionError("runner succeeded without the library sources")
    print("ok   runner fails without the library sources")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (AssertionError, subprocess.SubprocessError, ValueError) as e:
        print(f"FAIL {e}")
        sys.exit(1)
