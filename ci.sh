#!/bin/sh
# Tier-1 verification, in the order the steps run:
#  - a warnings-clean (-Werror) build, the full ctest suite, and a static
#    lint of the paper's square-root design;
#  - a clique-allocation scaling guard (a 400-op design under a 10 s
#    timeout) and a default-config scaling guard (the wall-time ratio of
#    a 1600-op and a 400-op design), a force-directed cost guard (the
#    wall-time ratio of force-directed and default synthesis of the
#    400-op design), and a traced-span scaling guard (the 1600/400
#    self-time ratio of controller encoding and of each stage-exit check);
#  - a Release (-O3 -Werror) build of the full tree;
#  - the perfbench smoke (perfbench/run.py --smoke): every BENCHMARK.json
#    workload runs at a tiny size, with and without tracing, and must
#    report exactly the declared metrics and no failure;
#  - the semantic-lint gate over every built-in design;
#  - a static-timing gate (path-level STA over every built-in,
#    cross-validated against the estimator, plus a must-fail tight-clock
#    run);
#  - a hostile-numeric-option gate (out-of-range or malformed CLI numbers
#    must be usage errors);
#  - a fixed-seed differential fuzz campaign, plus injected miscompile,
#    schedule-shift and operand-swap round trips that must be caught;
#  - a 200-seed standard-matrix co-simulation gate (zero failing programs
#    tolerated);
#  - the formal equivalence gate (`mphls prove` over every built-in at
#    every opt level, plus must-fail runs for each injected bug class);
#  - an AddressSanitizer+UBSan pass over the whole suite and a
#    ThreadSanitizer pass over the parallel-DSE layer, the serve daemon and
#    the fuzz campaign's group-parallel sweep;
#  - an observability smoke validating the Chrome trace, metrics JSON and
#    VCD waveform from `mphls profile`, the spans of a traced `mphls lint`
#    (netlist emit and lint, STA), and the per-worker fuzz.group spans of a
#    traced two-job `mphls fuzz`;
#  - a serve smoke: daemon on an ephemeral port, byte-diff of every
#    endpoint against the offline CLI, a Prometheus text-exposition gate,
#    a concurrent loadgen run with a schema and zero-error check of
#    BENCH_serve.json (repeated against a one-worker `--jobs 1` daemon),
#    a SIGQUIT flight-recorder dump against the live
#    daemon, a graceful SIGTERM drain, and a structured access-log schema
#    check.
set -eu

cd "$(dirname "$0")"

cmake -B build -S . -DMPHLS_WERROR=ON
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"
./build/src/cli/mphls lint examples/sqrt.bdl

# --- Clique scaling guard: clique FU + register allocation of a seeded
# 400-op chain must finish well inside 10 s (the bitset partition takes a
# fraction of a second; a return to the O(n^4) loop takes tens of seconds).
timeout 10 ./build/src/cli/mphls synth --fu-alloc clique --reg-alloc clique \
  --quiet tests/fixtures/clique/chain400.bdl

# --- Default-config scaling guard: default `mphls synth --quiet` wall time
# on the seeded 400-op chain and on a 4x larger one (chain1600.bdl, its
# generator command in its header), median of 3 runs each. Linear
# synthesis gives a ratio near 4; the bound sits halfway between the ratio
# with the quadratic pass/lifetime/FU-costing/interconnect loops (9.2) and
# without them (4.7), both medians of 30 measurements on 4 CPUs.
python3 - ./build/src/cli/mphls tests/fixtures/clique/chain400.bdl \
  tests/fixtures/clique/chain1600.bdl << 'EOF'
import statistics, subprocess, sys, time

BOUND = 6.9
mphls, small, large = sys.argv[1:4]

def wall(design):
    runs = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run([mphls, "synth", "--quiet", design], check=True)
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)

t_small, t_large = wall(small), wall(large)
ratio = t_large / t_small
print(f"scaling guard: 400 ops {t_small * 1e3:.1f} ms, 1600 ops "
      f"{t_large * 1e3:.1f} ms, ratio {ratio:.2f} (bound {BOUND})")
assert ratio <= BOUND, f"4x design takes {ratio:.2f}x the time (> {BOUND})"
EOF

# --- Force-directed cost guard: `mphls synth --quiet --scheduler force
# --time-constraint 408` on the seeded 400-op chain over the default
# config on the same file, median of 5 runs each. The bound sits halfway
# between the ratio when every candidate step propagates its own trial
# placement through heap worklists (18.2) and when each op's candidate
# steps are shifted from one pair of dependence cones (6.0), both medians
# of 10 runs of this procedure on 4 CPUs. (An earlier step: tight fixes
# restarting the force scan and trials through ordered sets read 39.6.)
python3 - ./build/src/cli/mphls tests/fixtures/clique/chain400.bdl << 'EOF'
import statistics, subprocess, sys, time

BOUND = 12.1
mphls, design = sys.argv[1:3]

def wall(*flags):
    runs = []
    for _ in range(5):
        start = time.perf_counter()
        subprocess.run([mphls, "synth", "--quiet", *flags, design], check=True)
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)

t_default = wall()
t_force = wall("--scheduler", "force", "--time-constraint", "408")
ratio = t_force / t_default
print(f"force-directed cost guard: default {t_default * 1e3:.1f} ms, force "
      f"{t_force * 1e3:.1f} ms, ratio {ratio:.2f} (bound {BOUND})")
assert ratio <= BOUND, \
    f"force-directed synthesis takes {ratio:.2f}x the default (> {BOUND})"
EOF

# --- Traced-span scaling guard: `mphls synth --quiet --trace` on the seeded
# 400-op and 1600-op chains, run alternately, median of 3 runs each (15
# under --multicycle, see RUNS), per-span self time (a span whose detail
# starts with a bare word is keyed "name/word", so the stage-exit checks
# read as stage.check/schedule, .../binding, ...). The
# 1600/400 self-time ratio of controller encoding, of each stage-exit
# check, and of the timing check under --multicycle must stay under its
# bound. Medians of 30 runs of this procedure on 4 CPUs, string-keyed and
# restart-scan code -> typed keys and bucketed cube scans: encode 11.81 ->
# 3.75, binding 7.39 -> 3.91, timing --multicycle 11.43 -> 7.03; those
# bounds sit halfway. The schedule (3.49 -> 3.84), controller (3.93 ->
# 3.62) and unit-latency timing (2.08 -> 2.25) checks scaled linearly
# before too (their cost was a constant factor), so halfway would fail at
# random; their bounds sit halfway between the change's ratio and 16, the
# ratio of a quadratic span.
python3 - ./build/src/cli/mphls tests/fixtures/clique/chain400.bdl \
  tests/fixtures/clique/chain1600.bdl << 'EOF'
import json, os, statistics, subprocess, sys, tempfile

BOUNDS = {
    "stage.control/encode": 7.8,
    "stage.check/schedule": 9.9,
    "stage.check/binding": 5.6,
    "stage.check/controller": 9.8,
    "stage.check/timing": 9.1,
    "stage.check/timing --multicycle": 9.2,
}
# The --multicycle timing check is a 0.10-0.22 ms span on 400 ops and
# reads about 0.7 or 1.15 ms on 1600 ops from one process to the next, so
# its ratio takes the median of 15 runs: 40 standalone runs of this guard
# on 4 CPUs read 4.7-8.8 with no failure, where 60 runs of the former
# procedure (3 runs per design, not alternated) read 3.9-11.0 and failed 5.
RUNS = {"": 3, "--multicycle": 15}
mphls, small, large = sys.argv[1:4]


def self_times(design, flags):
    """Self time (ms) per span key of one traced synthesis."""
    fd, path = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    try:
        subprocess.run([mphls, "synth", "--quiet", "--trace", path, *flags,
                        design], check=True)
        events = json.load(open(path))["traceEvents"]
    finally:
        os.remove(path)
    stacks, out = {}, {}
    for e in events:
        if e["ph"] == "B":
            word = e.get("args", {}).get("detail", "").split(" ")[0]
            key = e["name"] + ("/" + word if word and "=" not in word else "")
            stacks.setdefault(e["tid"], []).append([key, e["ts"], 0.0])
        elif e["ph"] == "E":
            key, ts, children = stacks[e["tid"]].pop()
            dur = e["ts"] - ts
            out[key] = out.get(key, 0.0) + (dur - children) / 1e3
            if stacks[e["tid"]]:
                stacks[e["tid"]][-1][2] += dur
    return out


def median_self(flag):
    """Median over RUNS[flag] runs of each guarded span's self time on the
    small and on the large design, run alternately so that a slow spell of
    the host lands on both sides of the ratio."""
    runs = [(self_times(small, flag.split()), self_times(large, flag.split()))
            for _ in range(RUNS[flag])]
    keys = {name.partition(" ")[0] for name in BOUNDS}
    return tuple({k: statistics.median(r[side].get(k, 0.0) for r in runs)
                  for k in keys} for side in (0, 1))


sizes = {flag: median_self(flag) for flag in ("", "--multicycle")}
failed = []
for name, bound in BOUNDS.items():
    span, _, flag = name.partition(" ")
    lo, hi = sizes[flag]
    ratio = hi[span] / max(lo[span], 1e-3)
    print(f"span scaling guard: {name}: 400 ops {lo[span]:.2f} ms, 1600 ops "
          f"{hi[span]:.2f} ms, ratio {ratio:.2f} (bound {bound})")
    if ratio > bound:
        failed.append(f"{name} ratio {ratio:.2f} > {bound}")
assert not failed, "span scaling guard: " + "; ".join(failed)
EOF

# --- Release build gate: -O3 turns on optimizer-driven diagnostics that
# RelWithDebInfo never sees (GCC 12's -Wrestrict insert-path analysis
# among them); the tree must stay warnings-clean there too.
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release -DMPHLS_WERROR=ON
cmake --build build-release -j"$(nproc)"

# --- Perfbench smoke: the repository benchmark (BENCHMARK.json) must build
# from this tree and run every workload end to end at a tiny size; it
# prints "smoke: PASS" and exits 0, or names each problem and exits 1.
CARGO_TARGET_DIR=build/perfbench python3 perfbench/run.py --smoke

# --- Semantic-lint gate: the abstract-interpretation lints must report no
# error-severity finding on any built-in design (warnings are allowed and
# printed for review).
./build/src/cli/mphls analyze --builtins

# --- Static-timing gate: every built-in must close timing at its own
# estimated clock with the STA engine agreeing with the estimator (the
# sta command exits 1 on any error-severity timing finding)...
./build/src/cli/mphls sta --builtins

# ...and an impossibly tight clock must be *reported* as negative slack
# (exit 1), proving the slack math and the timing lint fire end to end.
if ./build/src/cli/mphls sta --clock 2.0 examples/sqrt.bdl --quiet \
    > /dev/null; then
  echo "sta: negative slack at a 2ns clock was NOT reported" >&2
  exit 1
fi

# --- Hostile numeric options: non-integral, malformed or out-of-range
# values are usage errors (exit 2) before anything runs, never read as 0
# (a --verify value of zz), truncated (2.5 -> 2), overflowed (1e12) or
# left to exhaust time and memory (a 1e5-step force-directed schedule).
# $opts is word-split on purpose.
for opts in "--fus 2.5" "--fus 1e12" "--fus 0" "--time-constraint -5" \
    "--scheduler force --time-constraint 100000" "--jobs 0" \
    "sta --clock -1" "sta --clock 1e300" "sta --paths 2.5" \
    "--verify x=zz"; do
  rc=0
  ./build/src/cli/mphls $opts examples/sqrt.bdl > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "hostile option '$opts' exited $rc, want 2 (usage)" >&2
    exit 1
  fi
done
# `fuzz` takes no design file; a seed base that is not a number is a usage
# error too, not seed 0.
rc=0
./build/src/cli/mphls fuzz --seeds 1 --seed-base abc --matrix quick \
  > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "hostile option 'fuzz --seed-base abc' exited $rc, want 2 (usage)" >&2
  exit 1
fi

# --- Differential fuzz smoke: a fixed-seed campaign over the standard
# scheduler/allocator/encoding matrix must co-simulate clean (any failure
# is saved and auto-reduced under build/fuzz-smoke for inspection)...
./build/src/cli/mphls fuzz --seeds 100 --jobs "$(nproc)" --reduce \
  --corpus build/fuzz-smoke

# ...and an injected Mul->Add miscompile must be *caught* (exit 1),
# proving the mismatch-detection path works end to end.
if ./build/src/cli/mphls fuzz --seeds 10 --matrix quick --inject mul \
    --no-save --quiet > /dev/null; then
  echo "fuzz: injected miscompile was NOT detected" >&2
  exit 1
fi

# ...and so must the post-synthesis mutations (a schedule shifted one step
# early, a swapped operand binding) on the standard matrix, where the
# one-hot points reuse their binary twin's design and checks: the mutated
# design is the one the shared oracle checks and simulates.
# Exit 1 is "failures found"; anything else is a crash or a usage error.
for bug in sched bind; do
  status=0
  ./build/src/cli/mphls fuzz --seeds 10 --inject "$bug" --no-save \
    --quiet > /dev/null || status=$?
  if [ "$status" -ne 1 ]; then
    echo "fuzz: injected $bug mutation exited $status, want 1 (caught)" >&2
    exit 1
  fi
done

# --- Co-simulation gate: 200 seeds over the standard matrix, every
# synthesized design co-simulated against the behavioral interpreter; a
# single failing program fails the build.
./build/src/cli/mphls fuzz --seeds 200 --jobs "$(nproc)" --no-save --quiet

# --- Formal equivalence gate: every built-in design must *prove*
# behavioral/RTL equivalent (and every optimization pass equivalence-
# preserving) at every optimization level, with and without width
# narrowing...
for opt in none standard aggressive; do
  ./build/src/cli/mphls prove --builtins --opt "$opt" --prove-passes --quiet
  ./build/src/cli/mphls prove --builtins --opt "$opt" --narrow \
    --prove-passes --quiet
done

# ...and each injected miscompile class must make the proof *fail* on every
# design it applies to (`prove --inject` exits 0 only when the bug was
# caught everywhere it was planted).
for bug in mul sched bind; do
  ./build/src/cli/mphls prove --builtins --inject "$bug" --quiet
done

# --- AddressSanitizer + UndefinedBehaviorSanitizer: the full suite — in
# particular the interpreter/analysis soundness fuzzers, which drive every
# operation with extreme widths, shift amounts, and INT64_MIN/-1 divisions —
# must be free of memory errors and UB.
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -g" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
cmake --build build-asan -j"$(nproc)" --target mphls_tests
./build-asan/tests/mphls_tests --gtest_brief=1

# --- ThreadSanitizer: the concurrency layer (thread pool and the tracer
# tracks its workers register and drop, frontend cache, parallel sweeps,
# the serve daemon's loop/worker handoff, and the fuzz
# campaign, whose design groups of one seed share its golden run and
# frontends across workers: FuzzCampaign* and the SourceRun thread test)
# must be race-free, not merely deterministic.
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -g" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build build-tsan -j"$(nproc)" --target mphls_tests
./build-tsan/tests/mphls_tests \
  --gtest_filter='DseParallel*:Serve*:ObsConcurrency*:ThreadPoolObs*:FuzzCampaign*:FuzzDiff.SourceRun*' \
  --gtest_brief=1

# --- Observability smoke: `mphls profile` must emit a well-formed Chrome
# trace (balanced B/E nesting on every track, monotone timestamps), a
# metrics JSON with full FSM state coverage on the sqrt controller, and a
# VCD that declares wires and replays at least one FSM state change; the
# optimizer's verify/compact spans and the ops= size of the FU and
# interconnect allocation spans must be in the trace. A traced
# `mphls lint` must be just as well-formed and show the netlist emit, the
# netlist lint and the timing engine's spans, and each analyzer's sized
# span, once: a stage.check span for the schedule, binding and controller
# analyzers, a check.* span for the timing and netlist lints; a traced
# force-directed
# `mphls profile` must show a sized sched.force span per block; a traced
# `mphls synth --no-check` must still run the schedule, binding and
# controller stage-exit checks and skip only the timing oracle; a traced
# two-job `mphls fuzz` must be as well-formed, with a sized fuzz.golden
# span per seed and sized fuzz.group spans on at least two fuzz-* worker
# lanes.
OBS_OUT=build/obs-smoke
mkdir -p "$OBS_OUT"
./build/src/cli/mphls profile examples/sqrt.bdl \
  --trace "$OBS_OUT/trace.json" --vcd "$OBS_OUT/wave.vcd" \
  --stats "$OBS_OUT/metrics.json" --quiet > /dev/null
./build/src/cli/mphls lint examples/sqrt.bdl \
  --trace "$OBS_OUT/lint-trace.json" > /dev/null
./build/src/cli/mphls profile examples/sqrt.bdl --scheduler force \
  --trace "$OBS_OUT/force-trace.json" --quiet > /dev/null
./build/src/cli/mphls synth --no-check --quiet \
  --trace "$OBS_OUT/nocheck-trace.json" examples/sqrt.bdl > /dev/null
./build/src/cli/mphls fuzz --seeds 4 --jobs 2 --matrix quick --no-save \
  --quiet --trace "$OBS_OUT/fuzz-trace.json" > /dev/null
python3 - "$OBS_OUT/trace.json" "$OBS_OUT/metrics.json" \
  "$OBS_OUT/wave.vcd" "$OBS_OUT/lint-trace.json" \
  "$OBS_OUT/force-trace.json" "$OBS_OUT/nocheck-trace.json" \
  "$OBS_OUT/fuzz-trace.json" << 'EOF'
import json, sys

def span_names(path):
    """Validate a Chrome trace; return the names of its spans."""
    trace = json.load(open(path))
    assert trace.get("displayTimeUnit") == "ms"
    events = trace["traceEvents"]
    assert events, f"{path}: trace has no events"
    stacks, last_ts = {}, {}
    for e in events:
        assert e["pid"] == 1 and isinstance(e["tid"], int)
        if e["ph"] == "M":
            continue
        assert e["ts"] >= last_ts.get(e["tid"], 0.0), "timestamps regress"
        last_ts[e["tid"]] = e["ts"]
        if e["ph"] == "B":
            stacks.setdefault(e["tid"], []).append(e["name"])
        elif e["ph"] == "E":
            assert stacks.get(e["tid"]), f"E without B on tid {e['tid']}"
            top = stacks[e["tid"]].pop()
            assert top == e["name"], f"mismatched span: {top} vs {e['name']}"
    for tid, stack in stacks.items():
        assert not stack, f"{path}: unbalanced spans on tid {tid}: {stack}"
    return {e["name"] for e in events if e["ph"] == "B"}

names = span_names(sys.argv[1])
for span in ("stage.schedule", "stage.allocate", "stage.control",
             "sim.rtl", "opt.pipeline", "opt.verify", "opt.compact"):
    assert span in names, f"trace missing span {span}"
# The allocation spans carry the size of their work.
for span in ("alloc.fu", "alloc.interconnect"):
    details = [e.get("args", {}).get("detail", "")
               for e in json.load(open(sys.argv[1]))["traceEvents"]
               if e["ph"] == "B" and e["name"] == span]
    assert details and all(d.startswith("ops=") for d in details), \
        f"{span} spans lack an ops= size: {details}"
# The force-directed scheduler shows one span per block with its size.
span_names(sys.argv[5])
details = [e.get("args", {}).get("detail", "")
           for e in json.load(open(sys.argv[5]))["traceEvents"]
           if e["ph"] == "B" and e["name"] == "sched.force"]
assert details and all(d.startswith("ops=") and " horizon=" in d
                       for d in details), \
    f"sched.force spans lack an ops=/horizon= size: {details}"
lint_names = span_names(sys.argv[4])
for span in ("lint.verilog", "rtl.verilog", "sta.run", "sta.graph",
             "sta.structural"):
    assert span in lint_names, f"lint trace missing span {span}"
# Each analyzer of the lint runs once, in its own span sized by its work:
# the structural ones at synthesis's stage exits, the rest after it.
lint_events = [e for e in json.load(open(sys.argv[4]))["traceEvents"]
               if e["ph"] == "B"]
stage_checks = [e.get("args", {}).get("detail", "") for e in lint_events
                if e["name"] == "stage.check"]
for which, size in (("schedule", "ops="), ("binding", "ops="),
                    ("controller", "states=")):
    details = [d for d in stage_checks if d.split(" ")[0] == which]
    assert len(details) == 1 and details[0].startswith(f"{which} {size}"), \
        f"lint trace lacks one sized {which} stage.check span: {stage_checks}"
    assert not any(e["name"] == f"check.{which}" for e in lint_events), \
        f"lint trace re-runs the {which} analyzer"
for span, size in (("check.timing", "states="), ("check.netlist", "ops=")):
    details = [e.get("args", {}).get("detail", "") for e in lint_events
               if e["name"] == span]
    assert details and all(d.startswith(size) for d in details), \
        f"lint trace lacks a sized {span} span: {details}"

# --no-check keeps the structural stage-exit checks and drops the timing
# oracle.
span_names(sys.argv[6])
checks = [e.get("args", {}).get("detail", "").split(" ")[0]
          for e in json.load(open(sys.argv[6]))["traceEvents"]
          if e["ph"] == "B" and e["name"] == "stage.check"]
assert checks == ["schedule", "binding", "controller"], \
    f"--no-check stage.check spans: {checks}"

# The fuzz campaign runs a seed's design groups as separate pool tasks.
span_names(sys.argv[7])
events = json.load(open(sys.argv[7]))["traceEvents"]
lanes = {e["tid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
golden = [e.get("args", {}).get("detail", "") for e in events
          if e["ph"] == "B" and e["name"] == "fuzz.golden"]
assert len(golden) == 4 and all(d.startswith("trials=") for d in golden), \
    f"fuzz trace lacks a sized fuzz.golden span per seed: {golden}"
groups = [e for e in events if e["ph"] == "B" and e["name"] == "fuzz.group"]
assert len(groups) == 8 and all(
    e["args"]["detail"].startswith("sched=") and " ops=" in
    e["args"]["detail"] for e in groups), \
    f"fuzz trace lacks sized fuzz.group spans: {groups}"
# --jobs 2 runs the groups on the calling thread and one fuzz-* worker.
group_lanes = {lanes.get(e["tid"], "") for e in groups}
assert len({e["tid"] for e in groups}) >= 2 and any(
    l.startswith("fuzz-") for l in group_lanes), \
    f"fuzz.group spans ran on lanes {group_lanes}, want the caller's and a fuzz-* worker's"

metrics = json.load(open(sys.argv[2]))
cov = metrics["gauges"]["sim.fsm_state_coverage"]
assert cov == 100.0, f"sqrt FSM state coverage {cov} != 100"
assert metrics["counters"]["synth.runs"] >= 1

vcd = open(sys.argv[3]).read()
defs = [l for l in vcd.splitlines() if l.startswith("$var wire ")]
assert defs, "VCD has no $var definitions"
assert any("fsm_state" in l for l in defs), "VCD missing fsm_state wire"
state_code = next(l.split()[3] for l in defs if "fsm_state" in l)
state_changes = sum(
    1 for l in vcd.splitlines()
    if l.startswith("b") and l.endswith(" " + state_code))
assert state_changes >= 2, "VCD replays no FSM state change"

print("obs smoke: traces balanced, sqrt FSM coverage 100%, VCD has "
      f"{state_changes} state changes")
EOF

# --- Serve smoke: daemon on an ephemeral port, byte-diff of every JSON
# endpoint against the offline CLI (the responses must be identical down
# to the last byte), a concurrent loadgen campaign with a schema check of
# BENCH_serve.json (zero errors tolerated), the same campaign against a
# one-worker daemon, and a graceful SIGTERM drain.
SERVE_OUT=build/serve-smoke
mkdir -p "$SERVE_OUT"

# Print the port of the daemon logging to $1 once it listens; fail if it
# does not start within 10 s.
serve_port() {
  for _ in $(seq 1 100); do
    grep -q "listening on" "$1" 2>/dev/null && break
    sleep 0.1
  done
  port=$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' "$1" | head -1)
  if [ -z "$port" ]; then
    echo "serve smoke: daemon did not start" >&2
    cat "$1" >&2
    return 1
  fi
  echo "$port"
}

# Stop the daemon $1 with SIGTERM and require a clean drain in its log $2.
serve_drain() {
  kill -TERM "$1"
  if ! wait "$1"; then
    echo "serve smoke: daemon exited nonzero after SIGTERM" >&2
    exit 1
  fi
  grep -q "drained" "$2" || {
    echo "serve smoke: daemon did not report a clean drain" >&2
    exit 1
  }
}

./build/src/cli/mphls serve --port 0 \
  --log-file "$SERVE_OUT/access.jsonl" --log-level info \
  --flight-dump "$SERVE_OUT/flight.dump" > "$SERVE_OUT/serve.log" 2>&1 &
SERVE_PID=$!
SERVE_PORT=$(serve_port "$SERVE_OUT/serve.log")

python3 - "$SERVE_PORT" ./build/src/cli/mphls << 'EOF'
import http.client, json, os, subprocess, sys, tempfile

port, mphls = int(sys.argv[1]), sys.argv[2]
conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

conn.request("GET", "/healthz")
r = conn.getresponse()
assert r.status == 200, f"/healthz status {r.status}"
assert json.loads(r.read())["status"] == "ok", "/healthz body"

conn.request("GET", "/designs")
designs = json.loads(conn.getresponse().read())
assert designs, "/designs is empty"

# Golden differential: every endpoint's daemon bytes == the CLI's bytes,
# under the default options and under a non-default "options" object sent
# alongside the equivalent CLI flags (both decode through the one option
# table, so a divergence between the two surfaces fails here).
checked = 0
for d in designs:
    f = tempfile.NamedTemporaryFile(
        mode="w", suffix=".bdl", delete=False)
    f.write(d["source"])
    f.close()
    for ep, extra, cli in [
        ("/synth", {}, ["synth"]),
        ("/lint", {}, ["lint"]),
        ("/analyze", {}, ["analyze"]),
        ("/sta", {"clock": 10}, ["sta", "--clock", "10"]),
        ("/prove", {}, ["prove"]),
        ("/synth", {"options": {"scheduler": "force", "encoding": "onehot"}},
         ["synth", "--scheduler", "force", "--encoding", "onehot"]),
        ("/lint", {"options": {"fu_alloc": "clique", "reg_alloc": "clique",
                               "priority": "mobility"}},
         ["lint", "--fu-alloc", "clique", "--reg-alloc", "clique",
          "--priority", "mobility"]),
        ("/analyze", {"options": {"opt": "aggressive", "narrow": True}},
         ["analyze", "--opt", "aggressive", "--narrow"]),
        ("/sta", {"options": {"multicycle": True, "narrow": True,
                              "scheduler": "list", "fus": 3},
                  "clock": 20, "paths": 2},
         ["sta", "--multicycle", "--narrow", "--scheduler", "list",
          "--fus", "3", "--clock", "20", "--paths", "2"]),
        ("/prove", {"options": {"opt": "none", "encoding": "gray",
                                "fu_alloc": "global"}},
         ["prove", "--opt", "none", "--encoding", "gray",
          "--fu-alloc", "global"]),
    ]:
        body = {"source": d["source"], "name": f.name}
        body.update(extra)
        conn.request("POST", ep, json.dumps(body))
        daemon = conn.getresponse().read()
        offline = subprocess.run(
            [mphls] + cli + ["--format", "json", f.name],
            capture_output=True).stdout
        assert daemon == offline, (
            f"{d['name']}{ep}: daemon and CLI bytes differ\n"
            f" daemon : {daemon[:160]!r}\n cli    : {offline[:160]!r}")
        checked += 1
    os.unlink(f.name)

conn.request("GET", "/metrics")
metrics = json.loads(conn.getresponse().read())
assert metrics["counters"].get("serve.requests", 0) >= checked
assert "serve.cache.hit_rate" in metrics["gauges"], "/metrics cache gauges"
print(f"serve smoke: {checked} endpoint responses byte-identical to CLI")
EOF

# --- Prometheus exposition gate: /metrics?format=prometheus must be a
# well-formed text-format scrape — every sample named by a TYPE line,
# histogram buckets cumulative and monotone, _count equal to the +Inf
# bucket, and _sum/_count present for every histogram.
python3 - "$SERVE_PORT" << 'EOF'
import http.client, math, sys

conn = http.client.HTTPConnection("127.0.0.1", int(sys.argv[1]), timeout=60)
conn.request("GET", "/metrics?format=prometheus")
r = conn.getresponse()
assert r.status == 200, f"prometheus status {r.status}"
ctype = r.getheader("Content-Type", "")
assert ctype.startswith("text/plain; version=0.0.4"), f"content type {ctype}"
text = r.read().decode()

types = {}       # metric family -> declared type
samples = []     # (name, labels, value)
for line in text.splitlines():
    if not line:
        continue
    if line.startswith("# TYPE "):
        _, _, fam, ty = line.split(" ", 3)
        assert fam not in types, f"duplicate TYPE for {fam}"
        assert ty in ("counter", "gauge", "histogram"), f"bad type {ty}"
        types[fam] = ty
        continue
    assert not line.startswith("#"), f"unexpected comment: {line}"
    body, val = line.rsplit(" ", 1)
    name, labels = body, {}
    if "{" in body:
        name, rest = body.split("{", 1)
        for pair in rest.rstrip("}").split(","):
            k, v = pair.split("=", 1)
            labels[k] = v.strip('"')
    v = float(val)
    assert not math.isnan(v), f"NaN sample: {line}"
    assert name.startswith("mphls_"), f"unprefixed metric: {name}"
    for c in name:
        assert c.isalnum() or c == "_", f"bad metric name char: {name}"
    samples.append((name, labels, v))
assert types, "no TYPE lines"
assert samples, "no samples"

def family(name):
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix) and name[: -len(suffix)] in types:
            return name[: -len(suffix)]
    return name

hist = {}
for name, labels, v in samples:
    fam = family(name)
    assert fam in types, f"sample {name} has no TYPE line"
    if types[fam] == "histogram":
        hist.setdefault(fam, {"buckets": [], "sum": None, "count": None})
        if name.endswith("_bucket"):
            le = labels.get("le")
            assert le is not None, f"{name} bucket without le"
            hist[fam]["buckets"].append((float(le), v))
        elif name.endswith("_sum"):
            hist[fam]["sum"] = v
        elif name.endswith("_count"):
            hist[fam]["count"] = v
    elif types[fam] == "counter":
        # Text format 0.0.4: _total is part of the family name itself.
        assert name == fam and name.endswith("_total"), f"counter {name}"
        assert v >= 0, f"negative counter {name}"

assert hist, "no histograms exposed"
for fam, h in hist.items():
    assert h["sum"] is not None, f"{fam} missing _sum"
    assert h["count"] is not None, f"{fam} missing _count"
    assert h["buckets"], f"{fam} has no buckets"
    les = [le for le, _ in h["buckets"]]
    assert les == sorted(les), f"{fam} buckets out of order"
    assert les[-1] == math.inf, f"{fam} missing +Inf bucket"
    last = -1.0
    for le, v in h["buckets"]:
        assert v >= last, f"{fam} bucket le={le} not cumulative"
        last = v
    assert h["buckets"][-1][1] == h["count"], f"{fam} _count != +Inf bucket"
    if h["count"] > 0:
        assert h["sum"] >= 0 or min(les) < 0, f"{fam} sum/bucket mismatch"

print(f"prometheus gate: {len(samples)} samples, {len(hist)} histograms ok")
EOF

# Run the 6-client loadgen against the daemon on port $1, writing $2, and
# check BENCH_serve.json: schema, zero errors, a warm frontend cache.
serve_loadgen() {
  ./build/src/cli/mphls loadgen --url "http://127.0.0.1:$1" \
    --clients 6 --requests 60 --mix synth:lint:sim:sta --seed 7 \
    --out "$2"
  python3 - "$2" << 'EOF'
import json, sys

bench = json.load(open(sys.argv[1]))
need = {
    "benchmark": str, "url": str, "clients": int, "requests": int,
    "mix": str, "seed": (int, float), "wall_seconds": (int, float),
    "requests_per_second": (int, float), "latency": dict, "errors": dict,
    "cache": dict, "endpoints": dict,
}
for key, ty in need.items():
    assert key in bench, f"BENCH_serve.json missing key: {key}"
    assert isinstance(bench[key], ty), f"BENCH_serve.json bad type: {key}"
for key in ("p50_ms", "p90_ms", "p99_ms", "max_ms", "mean_ms"):
    assert key in bench["latency"], f"latency missing {key}"
    assert bench["latency"][key] >= 0
assert bench["latency"]["p50_ms"] <= bench["latency"]["p99_ms"] + 1e-9
assert bench["clients"] >= 4, "serve smoke must run >= 4 clients"
for key in ("transport", "http", "invalid_json"):
    assert bench["errors"][key] == 0, f"loadgen saw {key} errors"
assert bench["cache"]["hit_rate"] > 0, "frontend cache never hit"
assert bench["endpoints"], "no per-endpoint latency recorded"
total = sum(e["count"] for e in bench["endpoints"].values())
assert total == bench["requests"], "request accounting mismatch"
print(f"serve loadgen smoke: {bench['requests']} requests, "
      f"{bench['requests_per_second']:.0f} req/s, zero errors, "
      f"cache hit rate {100 * bench['cache']['hit_rate']:.0f}%")
EOF
}

serve_loadgen "$SERVE_PORT" "$SERVE_OUT/BENCH_serve.json"

# The same loadgen against a one-worker daemon: every request of the six
# clients queues for one pool worker, in arrival order.
./build/src/cli/mphls serve --port 0 --jobs 1 \
  > "$SERVE_OUT/serve-jobs1.log" 2>&1 &
SERVE1_PID=$!
SERVE1_PORT=$(serve_port "$SERVE_OUT/serve-jobs1.log")
serve_loadgen "$SERVE1_PORT" "$SERVE_OUT/BENCH_serve_jobs1.json"
serve_drain "$SERVE1_PID" "$SERVE_OUT/serve-jobs1.log"

# --- Flight-recorder smoke: send one deterministic request, SIGQUIT the
# live daemon, and require the dump's newest serve access event to name
# that request — proving the ring records, the handler dumps from signal
# context, and the process keeps serving afterwards.
python3 - "$SERVE_PORT" << 'EOF'
import http.client, json, sys

conn = http.client.HTTPConnection("127.0.0.1", int(sys.argv[1]), timeout=60)
conn.request("POST", "/synth", json.dumps({"design": "sqrt"}))
assert conn.getresponse().status == 200, "marker /synth request failed"
EOF
rm -f "$SERVE_OUT/flight.dump"
kill -QUIT "$SERVE_PID"
for _ in $(seq 1 100); do
  [ -s "$SERVE_OUT/flight.dump" ] && break
  sleep 0.1
done
python3 - "$SERVE_OUT/flight.dump" << 'EOF'
import json, sys

lines = [l for l in open(sys.argv[1]) if l.strip()]
assert lines, "flight dump is empty"
meta = json.loads(lines[0])["flight_recorder"]
assert meta["total_recorded"] >= 1, "flight dump recorded nothing"
events = [json.loads(l) for l in lines[1:]]
assert events, "flight dump has no events"
access = [e for e in events
          if e["component"] == "serve" and e["msg"].startswith("request")]
assert access, "flight dump has no serve access events"
newest = max(access, key=lambda e: e["seq"])
assert "endpoint=/synth" in newest["msg"], (
    f"newest access event is not the marker request: {newest['msg']}")
print(f"flight smoke: {len(events)} events dumped on SIGQUIT, newest "
      "access event is the marker /synth request")
EOF

# The SIGQUIT dump must not have killed the daemon.
python3 - "$SERVE_PORT" << 'EOF'
import http.client, json, sys

conn = http.client.HTTPConnection("127.0.0.1", int(sys.argv[1]), timeout=60)
conn.request("GET", "/healthz")
r = conn.getresponse()
assert r.status == 200, "daemon died after SIGQUIT"
r.read()
conn.request("GET", "/debug/flight")
r = conn.getresponse()
assert r.status == 200, f"/debug/flight status {r.status}"
doc = json.loads(r.read())
assert doc["flight_recorder"]["total_recorded"] >= 1
assert doc["events"], "/debug/flight has no events"
print("flight smoke: daemon alive after SIGQUIT, /debug/flight ok")
EOF

serve_drain "$SERVE_PID" "$SERVE_OUT/serve.log"

# The structured access log must hold one parseable JSONL record per
# dispatched request, including the marker /synth.
python3 - "$SERVE_OUT/access.jsonl" << 'EOF'
import json, sys

recs = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert recs, "access log is empty"
access = [r for r in recs if r.get("msg") == "request"]
assert access, "access log has no request records"
for r in access:
    for key in ("ts", "level", "component", "session", "method", "endpoint",
                "status", "ms", "cache_hit"):
        assert key in r, f"access record missing {key}: {r}"
assert any(r["endpoint"] == "/synth" for r in access)
print(f"access log: {len(access)} request records, all well-formed")
EOF

echo "ci: all checks passed"
