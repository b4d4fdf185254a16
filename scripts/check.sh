#!/usr/bin/env bash
# Builds the test suite under AddressSanitizer and UndefinedBehaviorSanitizer
# and runs ctest for each, runs the concurrency-sensitive tests (experiment
# runner, simulator, obs shard merge, shard engine + mailboxes)
# under ThreadSanitizer, then the plain RelWithDebInfo build,
# jobs-invariance smoke diffs on figure benches (plain, chaos and
# --profile, which must carry the scraper and controller counters), a
# --proxy-cost=0 zero-cost identity diff, an L3_OBS=OFF byte-identical
# golden, then the Release-mode gates: the flight-recorder overhead gate
# (median of interleaved runs, in-process; every layer's named counters
# nonzero) and the sharded-mega gate (shards=4 req/s >= a fixed fraction of
# shards=1 req/s, in-process). Dispatch-batch invariance is gated in ctest
# (BatchedTraceIdentity.*), and so is pick-kernel correctness
# (PickKernels.*). Every ctest run includes the
# machine-independent throughput guards: picker table not rebuilt per pick,
# mega-shaped control plane keeps its scrape plans and window cursors, and
# proxy saturation compresses L3's share skew >= 1.5x. Shard-count
# invariance is gated in ctest by the mega digest tests
# (Mega.DigestIsShardCountInvariant and friends): mega is the workload that
# really partitions clusters across shards. Every ctest run also smoke-runs
# the seven example binaries. No gate compares wall clock against a
# committed file, and the script writes no tracked file.
# Intended as the pre-merge gate; any failure aborts immediately.
#
# Usage: scripts/check.sh [preset...]
#   With no arguments, runs: asan ubsan tsan default.
set -euo pipefail

cd "$(dirname "$0")/.."

presets=("$@")
if [[ ${#presets[@]} -eq 0 ]]; then
  presets=(asan ubsan tsan default)
fi

for preset in "${presets[@]}"; do
  echo "==> [$preset] configure"
  cmake --preset "$preset" >/dev/null
  echo "==> [$preset] build"
  cmake --build --preset "$preset" -j "$(nproc)"
  echo "==> [$preset] test"
  if [[ "$preset" == tsan ]]; then
    # TSan is ~10x slower; cover the code that actually runs threads —
    # the parallel experiment runner and the simulator tests — plus the
    # pooled call-state lifecycle tests (SlotPool/ProxyCallPool), whose
    # handle-staleness races are the invariant the request-path overhaul
    # leans on, and the chaos crash / injector tests, which recycle those
    # handles mid-flight.
    # ...and the obs recorder's multi-thread shard merge.
    # ...plus the batched dispatch and pick-kernel suites: dispatch batches
    # share the EventQueue slot pool, and the pick kernels read the picker
    # caches the overhaul leans on, so their invariants get the same TSan
    # coverage.
    # ...plus the shard engine and mailbox suites: the conservative-barrier
    # handshake and the staging/inbox handoff are the only cross-thread
    # channels in the sharded simulator, so they run under TSan in full
    # (including the 10k-backend mega scenario at --shards=4).
    # ...plus the control-plane fast-path suites (WindowCursor, ColumnBlock):
    # single-threaded by design, but their cursor/plan caches are mutable
    # state the sharded runners touch per tick, so they get TSan coverage.
    # ...plus the proxy cost-model suites (ProxyCost, ConnectionPool): the
    # pool/CPU-stage state rides inside every proxy the parallel experiment
    # runner and the sharded mega scenario instantiate per worker.
    ctest --preset "$preset" \
      -R 'Experiment|ResultGrid|CellSeed|Simulator|SlotPool|ProxyCallPool|Chaos|Crash|ObsRecorder|DispatchBatch|BatchedTraceIdentity|PickKernels|Shard|Mailbox|Mega|WindowCursor|ColumnBlock|ProxyCost|ConnectionPool'
  else
    ctest --preset "$preset"
  fi
done

# Jobs-invariance smoke: a parallel sweep must produce byte-identical
# stdout and JSON to the serial one (the harness's core guarantee).
if [[ " ${presets[*]} " == *" default "* ]]; then
  echo "==> [default] jobs-invariance smoke (fig10_scenarios)"
  smoke_dir=$(mktemp -d)
  trap 'rm -rf "$smoke_dir"' EXIT
  ./build/bench/fig10_scenarios --fast --reps 1 --jobs 1 \
      --json "$smoke_dir/j1.json" > "$smoke_dir/j1.out"
  ./build/bench/fig10_scenarios --fast --reps 1 --jobs 2 \
      --json "$smoke_dir/j2.json" > "$smoke_dir/j2.out"
  diff "$smoke_dir/j1.out" "$smoke_dir/j2.out"
  diff "$smoke_dir/j1.json" "$smoke_dir/j2.json"
  echo "    byte-identical at --jobs 1 and --jobs 2"

  # Same guarantee under fault injection: fig11 arms a FaultPlan per cell,
  # so this also proves chaos timelines are jobs-invariant.
  echo "==> [default] chaos jobs-invariance smoke (fig11_failure_latency)"
  ./build/bench/fig11_failure_latency --fast --reps 1 --jobs 1 \
      --json "$smoke_dir/c1.json" > "$smoke_dir/c1.out"
  ./build/bench/fig11_failure_latency --fast --reps 1 --jobs 2 \
      --json "$smoke_dir/c2.json" > "$smoke_dir/c2.out"
  diff "$smoke_dir/c1.out" "$smoke_dir/c2.out"
  diff "$smoke_dir/c1.json" "$smoke_dir/c2.json"
  echo "    byte-identical at --jobs 1 and --jobs 2"

  # --profile jobs-invariance: the JSON `profile` block is merged in grid
  # order from deterministic counts, so a profiled run must stay
  # byte-identical across --jobs too.
  echo "==> [default] --profile jobs-invariance smoke (fig10_scenarios)"
  ./build/bench/fig10_scenarios --fast --reps 1 --jobs 1 --profile \
      --json "$smoke_dir/p1.json" > "$smoke_dir/p1.out" 2>/dev/null
  ./build/bench/fig10_scenarios --fast --reps 1 --jobs 2 --profile \
      --json "$smoke_dir/p2.json" > "$smoke_dir/p2.out" 2>/dev/null
  diff "$smoke_dir/p1.out" "$smoke_dir/p2.out"
  diff "$smoke_dir/p1.json" "$smoke_dir/p2.json"
  grep -q '"profile"' "$smoke_dir/p1.json" \
    || { echo "FAIL: --profile produced no profile block"; exit 1; }
  # The control-plane counters (series copied by the scraper, controller
  # ticks) must appear in the profile block — and, being inside the
  # byte-identical p1/p2 diff above, be jobs-invariant themselves. The block
  # lists only nonzero counters, so presence means the layer ran.
  for counter in 'rt.counter.scraper.series' 'rt.counter.controller.ticks'; do
    grep -q "\"$counter\"" "$smoke_dir/p1.json" \
      || { echo "FAIL: profile block lacks control-plane counter $counter"; exit 1; }
  done
  echo "    profiled output byte-identical at --jobs 1 and --jobs 2"

  # Zero-cost proxy identity: an explicit --proxy-cost=0 arms the whole
  # ProxyCostConfig plumbing (runner -> mesh -> proxy) with zero-valued
  # knobs, which must not move a single byte of stdout or JSON relative
  # to the untouched default run (DESIGN.md §16's zero-cost guarantee).
  echo "==> [default] --proxy-cost=0 identity smoke (fig10_scenarios)"
  ./build/bench/fig10_scenarios --fast --reps 1 --jobs 1 --proxy-cost=0 \
      --json "$smoke_dir/pc0.json" > "$smoke_dir/pc0.out"
  diff "$smoke_dir/j1.out" "$smoke_dir/pc0.out"
  diff "$smoke_dir/j1.json" "$smoke_dir/pc0.json"
  echo "    byte-identical with --proxy-cost=0"

  # L3_OBS=OFF zero-cost check: compiling the instrumentation out must not
  # change a single byte of bench stdout or report JSON (the macros carry no
  # behavior). Reuses the unprofiled fig10 golden from the default build.
  echo "==> [obsoff] L3_OBS=OFF byte-identical golden (fig10_scenarios)"
  cmake --preset obsoff >/dev/null
  cmake --build --preset obsoff -j "$(nproc)" --target fig10_scenarios
  ./build-obsoff/bench/fig10_scenarios --fast --reps 1 --jobs 1 \
      --json "$smoke_dir/off1.json" > "$smoke_dir/off1.out"
  diff "$smoke_dir/j1.out" "$smoke_dir/off1.out"
  diff "$smoke_dir/j1.json" "$smoke_dir/off1.json"
  # --profile still parses with obs compiled out; the report just carries
  # an all-zero-count profile block (recorder runs, macros are no-ops).
  ./build-obsoff/bench/fig10_scenarios --fast --reps 1 --jobs 2 --profile \
      --json "$smoke_dir/off2.json" > "$smoke_dir/off2.out" 2>/dev/null
  diff "$smoke_dir/j1.out" "$smoke_dir/off2.out"
  echo "    L3_OBS=OFF output byte-identical to the instrumented build"
fi

# Release-mode wall-clock gates. Each compares two runs made in one process,
# so no bar depends on the machine; end-to-end and per-layer throughput are
# perfbench's job (python3 perfbench/run.py, perfbench/baseline.json).
echo "==> [release-bench] build gate binaries"
cmake --preset release-bench >/dev/null
cmake --build --preset release-bench -j "$(nproc)" --target sim_core
cmake --build --preset release-bench -j "$(nproc)" --target trace_overhead

# Flight-recorder overhead gate: scenario-1 with the recorder bound must
# finish within 5% of the unrecorded run (medians of 5 interleaved samples),
# produce identical simulation results, leave every named layer counter
# (sim, mesh, pick kernel, TSDB, scraper, controller) nonzero and record
# events in the mesh and metrics rings (exits non-zero on any violation;
# see bench/trace_overhead.cpp --obs-gate).
echo "==> [release-bench] obs recorder overhead gate"
./build-release/bench/trace_overhead --obs-gate

# In-process ratio gate (bench/sim_core.cpp; exits non-zero on a
# violation): the 10k-backend mega scenario at shards=4 >= kShardRatioFloor
# x its shards=1 req/s (a barrier taken per event falls well under).
echo "==> [release-bench] sim_core sharded-mega gate"
./build-release/bench/sim_core

echo "All checks passed: ${presets[*]} (ctest incl. picker-rebuild, control-plane cache and proxy-cost gates) + obs gate + sharded-mega gate"
