#!/usr/bin/env bash
# CI gate: lint + cross-file semantic analysis, build the strict (warnings-as-errors)
# preset, run the full test suite, the tiny-config bench smoke label, a live-server
# metrics scrape validated against the Prometheus text format, then the
# sanitizer tiers (TSan on the concurrency suites, ASan/UBSan on a smoke subset), a
# gcc -fanalyzer pass over curated IO/codec targets, and — when clang tooling is
# available — the clang-strict thread-safety-analysis build and the .clang-tidy
# profile. Run from anywhere inside the repo. Set DCP_SKIP_SANITIZERS=1 for a quick
# lint+strict-only pass (also skips the -fanalyzer tier).
set -euo pipefail

cd "$(dirname "$0")/.."

# Determinism/concurrency lint: unordered-container iteration feeding serialized bytes,
# ad-hoc RNG outside common/rng, blocking socket IO on event-loop threads, and
# discarded Status/StatusOr. Self-test first so a regressed lint can't pass vacuously.
python3 scripts/dcp_lint.py --self-test
python3 scripts/dcp_lint.py

# Cross-file semantic analysis: lock-order cycles and undocumented nesting, plan-codec
# field completeness against the pinned inventory, PlanSignature coverage of every
# plan-affecting knob, and frame-dispatch exhaustiveness. Self-test first for the same
# reason as the lint: the seeded fixtures prove the analyses still catch what they
# claim to catch before the clean tree run means anything.
python3 scripts/dcp_analyze --self-test
python3 scripts/dcp_analyze

cmake --preset strict
cmake --build --preset strict -j "$(nproc)"
ctest --test-dir build-strict -j "$(nproc)" --output-on-failure
# Explicit gate on the plan-store round-trip + corruption suites: malformed plan bytes
# must never abort a process, and store hits must stay bit-identical.
ctest --test-dir build-strict -R 'test_plan_store|test_instructions|test_property_plans' \
      --output-on-failure
# Explicit gate on the planning-service suites: wire framing/codec corruption handling,
# loopback end-to-end bit-identity, tenant isolation, and the multi-threaded stress run.
ctest --test-dir build-strict -R 'test_service_wire|test_plan_service' \
      --output-on-failure
# Chaos gate: re-run the replica-set suite (failover, hedging, fault injection, and the
# chaos workload that must lose zero requests) AND the plan-service suite (the epoll
# server under accept-pressure, torn non-blocking writes, and slow-reader shedding)
# under a fresh fault seed. The seed is clock-derived unless DCP_FAULT_SEED is already
# set, and echoed so any failure can be reproduced exactly with
# `DCP_FAULT_SEED=<seed> scripts/check.sh`.
DCP_FAULT_SEED="${DCP_FAULT_SEED:-$(date +%s)}"
export DCP_FAULT_SEED
echo "check.sh: chaos gate with DCP_FAULT_SEED=${DCP_FAULT_SEED}"
ctest --test-dir build-strict -R 'test_replica_set|test_plan_service' --output-on-failure
# bench_smoke includes the warm_start, service, service_scaling, and
# service_replicated rows: bench_report exits non-zero when the store-hit or remote
# server-cache-hit paths regress past the 10x bar, serve a non-identical plan, two
# tenants' signatures collide, a replica kill loses a request, hedging exceeds its
# budget, the hedged p99 stops beating the un-hedged p99, the server's thread count
# scales with connections, a warm serve copies the cached record, or p99 at 256
# connections leaves the single-connection envelope.
ctest --test-dir build-strict -L bench_smoke --output-on-failure

# Metrics tier: scrape a live loopback server the way an operator would and validate
# the Prometheus exposition structurally (validator self-test first, same contract as
# the lint). The two plans force the planned + memory-cache serve paths into the
# per-tenant histograms, and the --require pins assert the serve-source histogram, the
# per-phase span counters and the tenant-labeled engine/store series actually appear on
# the wire — not just in unit tests.
python3 scripts/validate_prometheus.py --self-test
metrics_store="$(mktemp -d)"
# ServiceAddress rejects port 0 (no kernel auto-assign), so derive a high port from
# the script pid to dodge collisions between concurrent CI runs on one host.
metrics_port=$((21000 + $$ % 10000))
./build-strict/example_dcpctl serve --listen "tcp:127.0.0.1:${metrics_port}" \
  --store "${metrics_store}" &
metrics_server_pid=$!
trap 'kill "${metrics_server_pid}" 2>/dev/null || true; rm -rf "${metrics_store}"' EXIT
for _ in $(seq 1 50); do
  if ./build-strict/example_dcpctl remote metrics \
       --connect "tcp:127.0.0.1:${metrics_port}" >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
./build-strict/example_dcpctl remote plan \
  --connect "tcp:127.0.0.1:${metrics_port}" --seqlens 60,33,18 >/dev/null
./build-strict/example_dcpctl remote plan \
  --connect "tcp:127.0.0.1:${metrics_port}" --seqlens 60,33,18 >/dev/null
./build-strict/example_dcpctl remote metrics \
  --connect "tcp:127.0.0.1:${metrics_port}" \
  | python3 scripts/validate_prometheus.py \
      --require 'dcp_server_serve_latency_us_count\{source="planned"' \
      --require 'dcp_server_serve_latency_us_count\{source="memory-cache"' \
      --require 'dcp_phase_us_total\{phase="cache_probe"\}' \
      --require 'dcp_phase_us_total\{phase="encode"\}' \
      --require 'dcp_server_requests_received_total' \
      --require 'dcp_engine_cache_entries\{tenant="default"\}' \
      --require 'dcp_store_writes_total\{tenant="default"\}'
kill "${metrics_server_pid}" 2>/dev/null || true
wait "${metrics_server_pid}" 2>/dev/null || true
trap - EXIT
rm -rf "${metrics_store}"
echo "check.sh: metrics tier green (live scrape validated on port ${metrics_port})"

if [[ "${DCP_SKIP_SANITIZERS:-0}" != "1" ]]; then
  # ThreadSanitizer tier: every suite that spawns threads — the pool, the engine's
  # plan cache, dataloader look-ahead, the epoll service, replica failover/hedging,
  # the dedicated contention stress test (Plan vs cache_stats vs eviction vs
  # shutdown), and concurrent readers of one shared mask. Any data race is a hard
  # failure.
  cmake --preset tsan
  cmake --build --preset tsan -j "$(nproc)"
  ctest --test-dir build-tsan --output-on-failure \
        -R 'test_thread_pool|test_engine|test_dataloader_concurrency|test_plan_service|test_replica_set|test_concurrency_stress|test_masks'
  # ASan/UBSan tier: smoke subset covering the codec/bounds-heavy paths (plan store
  # records and bundles, wire frames end-to-end), the engine, the signature LRU every
  # plan cache shares, and the stress test, and the closed-form int64 pair sums of
  # mask segments and block generation (signed overflow is UB, so UBSan checks them),
  # every reader of the plans' per-device item pools, whose instructions index them by
  # range, the three consumers of the shared stream-progress core (simulator, executor,
  # validator), the frame reassembler, which checksums payloads at arbitrary offsets of
  # its buffer with 16-byte loads (its corrupt and torn frame tests are where an
  # overrunning load would show first), the partitioner suites, whose greedy part
  # masks shift by part id and whose coarsening and compile tables index dense arrays,
  # and the replica-set suite, whose torn-frame fake and seeded-chaos failover drive the
  # blocking SendAll/RecvAll loops and their fault hook.
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j "$(nproc)"
  ctest --test-dir build-asan --output-on-failure \
        -R 'test_plan_store|test_plan_service|test_engine|test_signature_lru|test_concurrency_stress|test_masks|test_block_gen|test_instructions|test_plan_validate|test_plan_compile|test_plan_golden|test_executor|test_sim_engine|test_service_wire|test_partitioner|test_hypergraph|test_refinement|test_replica_set'
else
  echo "check.sh: DCP_SKIP_SANITIZERS=1, skipping tsan/asan-ubsan tiers"
fi

# gcc -fanalyzer tier: interprocedural path analysis (leaks, use-after-free, NULL
# derefs) over the curated IO/codec targets where it is both fast and
# signal-rich — whole-tree -fanalyzer is too slow and too noisy to gate on. Known
# false positives live in scripts/fanalyzer_suppressions.txt with reasons; anything
# unsuppressed fails the gate.
if [[ "${DCP_SKIP_SANITIZERS:-0}" != "1" ]]; then
  FANALYZER_TARGETS=(
    src/common/crc32.cc
    src/common/status.cc
    src/core/plan_store.cc
    src/runtime/instructions.cc
    src/service/event_loop.cc
    src/service/fault_injection.cc
    src/service/frame.cc
    src/service/messages.cc
    src/service/transport.cc
  )
  fanalyzer_log="$(mktemp)"
  for target in "${FANALYZER_TARGETS[@]}"; do
    g++ -std=c++20 -Isrc -fanalyzer -fsyntax-only "$target" 2>>"$fanalyzer_log" || {
      cat "$fanalyzer_log"
      echo "check.sh: gcc -fanalyzer failed to compile $target"
      exit 1
    }
  done
  suppressions="$(grep -Ev '^(#|$)' scripts/fanalyzer_suppressions.txt || true)"
  if [[ -n "$suppressions" ]]; then
    residual="$(grep 'warning:' "$fanalyzer_log" | grep -Ev "$suppressions" || true)"
  else
    residual="$(grep 'warning:' "$fanalyzer_log" || true)"
  fi
  rm -f "$fanalyzer_log"
  if [[ -n "$residual" ]]; then
    echo "$residual"
    echo "check.sh: gcc -fanalyzer found unsuppressed issues (waive in" \
         "scripts/fanalyzer_suppressions.txt with a reason, or fix)"
    exit 1
  fi
  echo "check.sh: gcc -fanalyzer clean on ${#FANALYZER_TARGETS[@]} curated targets"
else
  echo "check.sh: DCP_SKIP_SANITIZERS=1, skipping gcc -fanalyzer tier"
fi

# Clang thread-safety analysis (-Wthread-safety -Werror over the DCP_GUARDED_BY /
# DCP_REQUIRES annotations). GCC compiles the annotations to no-ops, so this gate only
# has teeth under clang; skip with a notice when no clang is installed.
if command -v clang++ >/dev/null 2>&1; then
  cmake --preset clang-strict
  cmake --build --preset clang-strict -j "$(nproc)"
else
  echo "check.sh: clang++ not found, skipping clang-strict thread-safety analysis"
fi

# clang-tidy tier: the curated .clang-tidy profile (bugprone-*, concurrency-*,
# performance-* with documented opt-outs) over the same curated targets as the
# -fanalyzer tier, using the strict preset's compile_commands.json
# (CMAKE_EXPORT_COMPILE_COMMANDS=ON). Gcc-only CI images skip with a notice.
if command -v clang-tidy >/dev/null 2>&1; then
  clang-tidy -p build-strict --quiet \
    src/common/crc32.cc src/common/status.cc \
    src/core/plan_store.cc src/runtime/instructions.cc \
    src/service/event_loop.cc src/service/fault_injection.cc \
    src/service/frame.cc src/service/messages.cc src/service/transport.cc
else
  echo "check.sh: clang-tidy not found (gcc-only image), skipping .clang-tidy tier"
fi
echo "check.sh: all green"
