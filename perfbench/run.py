#!/usr/bin/env python3
"""Build and run the mphls repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds the benchmark (perfbench/CMakeLists.txt, which
compiles the mphls libraries from ../src) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs one workload. The last line of
stdout is the result object {"correct", "attempted", "failed", "metrics"};
the full report and any trace go to .bench_out/.

--smoke runs every workload listed in BENCHMARK.json at a tiny size, with
and without tracing, and checks that each run prints exactly the metric
names and units BENCHMARK.json declares and reports no failure.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure (once) and build the benchmark; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "mphls_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "mphls_perfbench")


def run(binary, args):
    """Run the benchmark binary; returns (exit code, stdout)."""
    proc = subprocess.run([binary, "--out", os.path.join(ROOT, ".bench_out")]
                          + args, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            name = f"{w['name']} --trace {trace}"
            code, out = run(binary, ["--workload", w["name"], "--seed", "1",
                                     "--seconds", "0.3", "--trace", trace,
                                     "--tiny"])
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append(f"{name}: exit {code}, no result")
                continue
            res = json.loads(lines[-1])
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{name}: result keys {sorted(res)}")
                continue
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"{name}: fail_ratio {res['failed']}/"
                                f"{res['attempted']}, correct={res['correct']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                units = [k for k in want if got.get(k, want[k]) != want[k]]
                problems.append(f"{name}: metrics differ from BENCHMARK.json "
                                f"{key}: missing {sorted(set(want) - set(got))}"
                                f", extra {sorted(set(got) - set(want))}, "
                                f"units {units}")
            if trace == "0":
                bad = [k for k, v in res["metrics"].items()
                       if not v["value"] > 0]
                if bad:
                    problems.append(f"{name}: not positive: {bad}")
            print(f"smoke: {name}: {len(got)} metrics, "
                  f"{res['failed']}/{res['attempted']} failed", flush=True)
    for p in problems:
        print("smoke: FAIL " + p)
    print("smoke: " + ("PASS" if not problems else "FAIL"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed")
    ap.add_argument("--seconds")
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if a.smoke:
        return smoke(binary)
    if None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    code, out = run(binary, ["--workload", a.workload, "--seed", a.seed,
                             "--seconds", a.seconds, "--trace", a.trace])
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
