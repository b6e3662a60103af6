#!/usr/bin/env bash
# Tier-1 verification gate. Everything here must pass before a PR lands.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test --release -q --workspace
# The branch, snapshot, mem and dram crates again in the debug profile:
# overflow checks and the debug_asserts (compiled out of release) then
# cover the folded history's shift arithmetic, the snapshot encoder's
# section nesting and sequence lengths, and the set/way arithmetic of the
# lazily materialized cache, BTB-store and snoop-filter sets.
cargo test -q -p exynos-branch -p exynos-snapshot -p exynos-mem -p exynos-dram
# The benchmark package calls into the crates' public API; a break there
# must fail this gate, not the benchmark run.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

# Panic-site gate: library and binary code must propagate typed errors
# (SimError / PredictorError) instead of unwrapping or
# calling `panic!`; the few sites left carry an `#[allow]` with the
# reason. Tests, examples and benches are exempt (no --all-targets) —
# unwrap there is a legitimate assertion that the simulated trace is
# clean. The perf lint group guards the step-loop optimizations
# (needless clones/allocations creeping back into hot paths) at warn
# level.
cargo clippy --workspace -- -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic -W clippy::perf

# Spectre-v2 example smoke: `cargo test` builds the examples but never
# runs them. On the M4 front end with CONTEXT_HASH target encryption no
# cross-training trial may hijack the victim.
SPECTRE_OUT="$(cargo run --release -q --example spectre_mitigation)"
if ! grep -q '^encryption ON : 0/128 hijacks$' <<< "$SPECTRE_OUT"; then
  echo "tier1: encrypted cross-training hijacked the victim:" >&2
  echo "$SPECTRE_OUT" >&2
  exit 1
fi

# Example smokes: the other five examples must run to a zero exit
# (under a second together in release).
for example in quickstart fault_injection generation_sweep workload_zoo prefetch_explorer; do
  cargo run --release -q --example "$example" > /dev/null
done

# Telemetry smoke: the instrumented quick run must emit schema-valid
# JSONL covering the whole machine (>= 12 metrics from >= 5 crates).
cargo run --release -q -p exynos-bench --bin harness -- metrics --quick 2>/dev/null \
  | python3 scripts/check_telemetry_schema.py

# Figure smoke: every table and figure, the population sweep included,
# must run to a zero exit (a few seconds in release).
cargo run --release -q -p exynos-bench --bin harness -- all > /dev/null
# An unwritable --csv path must fail the harness before the population
# sweep runs.
if CSV_OUT="$(cargo run --release -q -p exynos-bench --bin harness -- fig9 --csv /nonexistent/dir/p.csv 2>&1)"; then
  echo "tier1: harness accepted an unwritable --csv path" >&2
  exit 1
fi
if grep -q 'population sweep' <<< "$CSV_OUT"; then
  echo "tier1: harness swept before failing on the --csv path:" >&2
  echo "$CSV_OUT" >&2
  exit 1
fi

# Checkpoint round-trip smoke: a resume from an on-disk image must emit
# byte-identical telemetry to the run that wrote it.
CKPT_DIR="$(mktemp -d)"
SVC_DIR="$(mktemp -d)"
SERVER_PID=0
# (kill -9 0 would signal the whole process group, so guard the pid.)
trap 'if [ "$SERVER_PID" != 0 ]; then kill -9 "$SERVER_PID" 2>/dev/null || true; fi; rm -rf "$CKPT_DIR" "$SVC_DIR"' EXIT
cargo run --release -q -p exynos-bench --bin harness -- checkpoint "$CKPT_DIR/warm.ckpt" --quick 2>/dev/null > "$CKPT_DIR/a.jsonl"
cargo run --release -q -p exynos-bench --bin harness -- resume "$CKPT_DIR/warm.ckpt" --quick 2>/dev/null > "$CKPT_DIR/b.jsonl"
test -s "$CKPT_DIR/a.jsonl"
cmp "$CKPT_DIR/a.jsonl" "$CKPT_DIR/b.jsonl"

# Service smoke: start the resilient job tier, run a job through the
# wire protocol, kill -9 the server mid-job, restart it on the same
# journal, and verify the recovered result is byte-identical to an
# uninterrupted run of the same spec. Then shut down gracefully.
HARNESS=target/release/harness
SOCK="$SVC_DIR/svc.sock"
WAL="$SVC_DIR/jobs.wal"

svc_call() { "$HARNESS" call "$1" --socket "$SOCK"; }
svc_field() { python3 -c "import json,sys; print(json.load(sys.stdin)[\"$1\"])"; }

svc_wait_up() {
  for _ in $(seq 1 100); do
    if svc_call '{"cmd":"ping"}' >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "tier1: service did not come up on $SOCK" >&2
  return 1
}

svc_wait_terminal() { # job id, timeout seconds
  local id="$1" tries=$(( $2 * 10 )) state=""
  for _ in $(seq 1 "$tries"); do
    state="$(svc_call "{\"cmd\":\"status\",\"id\":$id}" | svc_field state)"
    case "$state" in completed|failed) echo "$state"; return 0 ;; esac
    sleep 0.1
  done
  echo "tier1: job $id hung (last state: $state)" >&2
  return 1
}

"$HARNESS" serve --socket "$SOCK" --journal "$WAL" --workers 2 --queue 8 \
  2>"$SVC_DIR/server_a.log" &
SERVER_PID=$!
svc_wait_up

# A quick job end to end over the socket.
QUICK_ID="$(svc_call '{"cmd":"submit","job":{"kind":"checkpoint","gen":"m6","warmup":2000}}' | svc_field id)"
test "$(svc_wait_terminal "$QUICK_ID" 60)" = completed

# A longer sweep, then kill -9 mid-job. (If the job wins the race and
# completes first, the restart serves the journaled result — the
# byte-identity check below holds either way.)
SWEEP_JOB='{"cmd":"submit","job":{"kind":"sweep","scale":1,"warmup":20000,"detail":10000,"threads":1}}'
VICTIM_ID="$(svc_call "$SWEEP_JOB" | svc_field id)"
sleep 0.4
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true

# Restart on the same journal: the victim job must finish and match a
# fresh, uninterrupted run of the identical spec byte for byte.
"$HARNESS" serve --socket "$SOCK" --journal "$WAL" --workers 2 --queue 8 \
  2>"$SVC_DIR/server_b.log" &
SERVER_PID=$!
svc_wait_up
test "$(svc_wait_terminal "$VICTIM_ID" 120)" = completed
svc_call "{\"cmd\":\"result\",\"id\":$VICTIM_ID}" | svc_field payload > "$SVC_DIR/recovered.json"
FRESH_ID="$(svc_call "$SWEEP_JOB" | svc_field id)"
test "$(svc_wait_terminal "$FRESH_ID" 120)" = completed
svc_call "{\"cmd\":\"result\",\"id\":$FRESH_ID}" | svc_field payload > "$SVC_DIR/fresh.json"
test -s "$SVC_DIR/recovered.json"
cmp "$SVC_DIR/recovered.json" "$SVC_DIR/fresh.json"

# Observability smoke: the served sweep must expose a schema-valid span
# tree reaching from queue_wait to result_encode, the per-stage latency
# quantiles must carry a non-empty p99 for job_total, and the Prometheus
# rendering must cover the queue gauges and latency summaries.
"$HARNESS" spans "$FRESH_ID" --socket "$SOCK" > "$SVC_DIR/spans.jsonl"
test -s "$SVC_DIR/spans.jsonl"
python3 scripts/check_telemetry_schema.py --spans "$SVC_DIR/spans.jsonl"
for stage in queue_wait 'attempt\[1\]' warm_pool_fetch 'slice\[0\]' result_encode; do
  grep -q "\"name\":\"$stage\"" "$SVC_DIR/spans.jsonl"
done
svc_call '{"cmd":"quantiles"}' > "$SVC_DIR/quantiles.json"
python3 - "$SVC_DIR/quantiles.json" <<'PY'
import json, sys
q = json.load(open(sys.argv[1]))["quantiles"]
jt = q["service.latency.job_total"]
assert jt["count"] >= 1, f"job_total unobserved: {jt}"
assert jt["p99"] > 0, f"empty p99 for job_total: {jt}"
assert jt["p50"] <= jt["p90"] <= jt["p99"], f"quantiles out of order: {jt}"
for stage in ("queue_wait", "attempt", "slice", "result_encode"):
    assert q[f"service.latency.{stage}"]["count"] >= 1, f"{stage} unobserved"
PY
# Chunk-cache smoke: the same program job twice through the running
# server — the second run must be served from the shared chunk cache,
# and the cache counters must reach the Prometheus exposition.
PROG_JOB='{"cmd":"submit","job":{"kind":"program","program":"nested_loops","warmup":2000,"detail":6000}}'
P1_ID="$(svc_call "$PROG_JOB" | svc_field id)"
test "$(svc_wait_terminal "$P1_ID" 120)" = completed
P2_ID="$(svc_call "$PROG_JOB" | svc_field id)"
test "$(svc_wait_terminal "$P2_ID" 120)" = completed
svc_call "{\"cmd\":\"result\",\"id\":$P1_ID}" | svc_field payload > "$SVC_DIR/prog1.json"
svc_call "{\"cmd\":\"result\",\"id\":$P2_ID}" | svc_field payload > "$SVC_DIR/prog2.json"
cmp "$SVC_DIR/prog1.json" "$SVC_DIR/prog2.json"

"$HARNESS" call metrics --prom --socket "$SOCK" > "$SVC_DIR/metrics.prom"
grep -q '^service_queue_depth ' "$SVC_DIR/metrics.prom"
grep -q '^service_queue_shed_total ' "$SVC_DIR/metrics.prom"
grep -q 'service_latency_job_total{quantile="0.99"}' "$SVC_DIR/metrics.prom"
# Sheds and retries are exported once, as the queue counters above.
# (`if`, not `! grep`: set -e does not stop on a negated command.)
if grep -qE 'service_jobs_(sheds|retries)' "$SVC_DIR/metrics.prom"; then
  echo "tier1: sheds/retries exported under a second name" >&2
  exit 1
fi
python3 scripts/check_telemetry_schema.py --prom "$SVC_DIR/metrics.prom"
# The repeated program job above must have produced cache hits.
HITS="$(awk '$1 == "chunk_cache_hit_total" { print $2 }' "$SVC_DIR/metrics.prom")"
test -n "$HITS" && test "$HITS" -gt 0
svc_call '{"cmd":"postmortem"}' >/dev/null

# Graceful shutdown drains and removes the socket.
svc_call '{"cmd":"shutdown"}' >/dev/null
wait "$SERVER_PID"
SERVER_PID=0
test ! -e "$SOCK"

# Assembler smoke: every embedded corpus program must assemble and
# disassemble cleanly, and one program slice must run end to end across
# all six generations.
ASM_DIR="$(mktemp -d)"
for prog in nested_loops fib_recursive computed_goto pointer_chase \
            stride_copy parity_history call_tree matrix; do
  "$HARNESS" asm "$prog" > "$ASM_DIR/$prog.dis"
  test -s "$ASM_DIR/$prog.dis"
done
"$HARNESS" run --program fib_recursive --quick > "$ASM_DIR/run.txt"
for gen in M1 M2 M3 M4 M5 M6; do
  grep -q "^$gen " "$ASM_DIR/run.txt"
done

# A malformed program must surface as a typed diagnostic with exit
# status 2 — a usage error, never a panic.
printf 'main:\n    ldr x1\n' > "$ASM_DIR/bad.s"
set +e
"$HARNESS" asm "$ASM_DIR/bad.s" > "$ASM_DIR/bad.out" 2> "$ASM_DIR/bad.err"
RC=$?
set -e
test "$RC" -eq 2
grep -q 'asm error' "$ASM_DIR/bad.err"
if grep -q 'panicked' "$ASM_DIR/bad.err"; then
  echo "tier1: malformed program panicked" >&2
  exit 1
fi
rm -rf "$ASM_DIR"

# Format-version gate: the snapshot wire version and the documented one
# must move together (bump both or neither).
CODE_VER="$(sed -n 's/^pub const FORMAT_VERSION: u16 = \([0-9]*\);$/\1/p' crates/snapshot/src/lib.rs)"
test -n "$CODE_VER"
grep -q "format version: $CODE_VER" DESIGN.md
