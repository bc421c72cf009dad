#!/usr/bin/env bash
# The repo's verification gate: build, test, docs.
#
#   ./ci/check.sh          # everything (tier-1 + docs gate + bench compile)
#   ./ci/check.sh --quick  # tier-1 only (build + tests)
#
# Tier-1 (must stay green on every PR):
#   cargo build --release && cargo test -q --no-fail-fast
# `--no-fail-fast` runs every test binary even after one fails, so the
# report always says which suites passed, not only the first failure.
#
# Docs gate: `nn` and `splash` carry `#![deny(missing_docs)]`, and their
# rustdoc builds must be warning-free.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q --no-fail-fast"
cargo test -q --no-fail-fast

if [[ "${1:-}" == "--quick" ]]; then
    echo "==> quick mode: skipping docs gate and bench compile"
    exit 0
fi

echo "==> release-mode kernels: the fused inference bodies the server runs, bit for bit"
# Tier-1's `cargo test` is a debug build, so it never runs the vectorized
# code of the fused MLP kernel (nn::fused) that a release server runs.
# Here the kernel's own tests (every epilogue, remainder and fallback on
# every body the host supports, plus the golden hashes) and SLIM's
# infer ≡ forward bit tests run optimized; the proptests and the durable
# crash matrix then run once per body (NN_ISA picks it; a name the host
# cannot run falls back to its fastest body).
FUSED_LOG=$(mktemp)
cargo test --release -q -p nn fused -- --nocapture >"$FUSED_LOG" 2>&1 || { cat "$FUSED_LOG"; exit 1; }
grep -o 'fused bodies checked:.*' "$FUSED_LOG"
rm -f "$FUSED_LOG"
cargo test --release -q -p splash --lib slim::
for isa in portable avx2 avx512f; do
    echo "    NN_ISA=$isa"
    NN_ISA=$isa NN_THREADS=1 cargo test --release -q -p splash --test proptests --test durable
done

echo "==> lint gate: clippy warning-free across the workspace, tests included"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> docs gate: rustdoc warning-free on nn + splash"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p nn -p splash

echo "==> docs gate: doc examples execute (the service façade's docs can't rot)"
cargo test -q --doc

echo "==> examples: the serving-façade examples compile and run"
cargo build --release --examples
cargo run --release --example streaming_inference
cargo run --release --example hot_swap_serving
cargo run --release --example sharded_serving
cargo run --release --example online_learning
cargo run --release --example http_serving
cargo run --release --example durable_serving

echo "==> scenario matrix: smoke report bytes are deterministic for a fixed seed"
# Two independent smoke runs (drift + anomaly regimes × SPLASH, its online
# twin, and two baseline engines through the multi-tenant registry) must
# produce byte-identical report artifacts.
SCEN_DIR=$(mktemp -d)
TELEM_DIR=$(mktemp -d)
trap 'rm -rf "$SCEN_DIR" "$TELEM_DIR"' EXIT
cargo run --release -q -p cli -- scenarios --smoke true --seed 7 --out "$SCEN_DIR/a" >/dev/null
cargo run --release -q -p cli -- scenarios --smoke true --seed 7 --out "$SCEN_DIR/b" >/dev/null
cmp "$SCEN_DIR/a/report.json" "$SCEN_DIR/b/report.json"
cmp "$SCEN_DIR/a/report.md" "$SCEN_DIR/b/report.md"
grep -q '"regime":"drift"' "$SCEN_DIR/a/report.json"
grep -q '"regime":"anomaly"' "$SCEN_DIR/a/report.json"
grep -q '"model":"splash+online"' "$SCEN_DIR/a/report.json"

echo "==> telemetry: deterministic statz dumps + live /metrics exposition grammar"
# A tiny trained artifact to serve.
cargo run --release -q -p cli -- generate --dataset wiki --out "$TELEM_DIR" >/dev/null
cargo run --release -q -p cli -- run \
    --edges "$TELEM_DIR/wiki.edges.csv" --queries "$TELEM_DIR/wiki.queries.csv" \
    --task anomaly --epochs 1 --k 4 --dv 8 --hidden 16 \
    --save "$TELEM_DIR/wiki.bin" >/dev/null
# Two identical in-process replays write byte-identical registry dumps:
# --statz-out gates every timing-dependent field off.
for side in a b; do
    cargo run --release -q -p cli -- serve \
        --model-file "$TELEM_DIR/wiki.bin" \
        --edges "$TELEM_DIR/wiki.edges.csv" --queries "$TELEM_DIR/wiki.queries.csv" \
        --task anomaly --statz-out "$TELEM_DIR/statz.$side.json" >/dev/null
done
cmp "$TELEM_DIR/statz.a.json" "$TELEM_DIR/statz.b.json"
# A live server's /metrics must satisfy the Prometheus text-exposition
# grammar, scraped and validated by the in-repo promcheck binary. The
# fifo keeps stdin open (the server drains on stdin EOF).
mkfifo "$TELEM_DIR/ctl"
cargo run --release -q -p cli -- serve \
    --model-file "$TELEM_DIR/wiki.bin" \
    --edges "$TELEM_DIR/wiki.edges.csv" --queries "$TELEM_DIR/wiki.queries.csv" \
    --task anomaly --listen 127.0.0.1:0 --slow-ms 250 \
    > "$TELEM_DIR/serve.log" < "$TELEM_DIR/ctl" &
SERVE_PID=$!
exec 3> "$TELEM_DIR/ctl"
SERVE_ADDR=""
for _ in $(seq 1 100); do
    SERVE_ADDR=$(sed -n 's|^serving .* on http://\([0-9.:]*\) .*|\1|p' "$TELEM_DIR/serve.log")
    [[ -n "$SERVE_ADDR" ]] && break
    sleep 0.1
done
[[ -n "$SERVE_ADDR" ]] || { echo "server never announced its address"; exit 1; }
cargo run --release -q -p cli --bin promcheck -- scrape "$SERVE_ADDR" /healthz >/dev/null
cargo run --release -q -p cli --bin promcheck -- scrape "$SERVE_ADDR" /metrics --out "$TELEM_DIR/metrics.prom"
cargo run --release -q -p cli --bin promcheck -- grammar "$TELEM_DIR/metrics.prom"
grep -q '^splash_healthz_requests_total 1$' "$TELEM_DIR/metrics.prom"
grep -q '^# TYPE splash_request_latency_seconds histogram$' "$TELEM_DIR/metrics.prom"
exec 3>&-   # stdin EOF: the server drains and prints its telemetry summary
wait "$SERVE_PID"
grep -q '^telemetry      : ' "$TELEM_DIR/serve.log"

echo "==> serial fallback: nn alone without 'parallel'"
# nn must be tested by itself: any workspace sibling that depends on nn
# with default features would re-enable 'parallel' via feature unification.
cargo test -q -p nn --no-default-features

echo "==> serial fallback: splash without its 'parallel' chunking"
cargo test -q -p splash --no-default-features

echo "==> serial fallback: shard parity with the fan-out pinned off"
# Every shard count must give the unsharded engine's bits on the serial
# partition path too: with NN_THREADS=1 ingest writes owner rings
# straight from the witness and a batch is answered in place, even with
# the 'parallel' feature on.
NN_THREADS=1 cargo test -q -p splash --test shard --test proptests

echo "==> forced threading: the 1-core container never spawns by default"
# NN_THREADS=4 runs the threaded partition paths on any host: ingest
# through EdgeSnapshots with one thread per partition, and batched
# predicts scattered to one thread per partition and gathered back.
NN_THREADS=4 cargo test -q -p nn -p splash

echo "==> alloc regression: steady-state streaming stays off the allocator"
cargo test -q -p splash --test alloc

echo "==> corrupt-artifact fuzz-lite: crafted files load as typed errors, never aborts"
# Patched-byte artifacts (dimension bombs, invalid configs, damaged
# SAVEDOPT trailers) plus the full persist corruption matrix, serially.
NN_THREADS=1 cargo test -q -p splash --lib persist::

echo "==> resume equivalence: fine-tune → checkpoint → restart is bit-identical (serial)"
NN_THREADS=1 cargo test -q -p splash --test online

echo "==> crash recovery: snapshot+WAL restart is bit-identical at every kill offset (serial)"
# Fault-injected crash matrices (shards 1 and 3), WAL byte-level kill
# sweep, corrupt-WAL fuzz-lite, and the checkpoint-policy suite.
NN_THREADS=1 cargo test -q -p splash --test durable

echo "==> wire serving: socket-level suite (bit-identity, fuzz-lite, backpressure), serial"
# The server's engine thread is the only service owner either way;
# NN_THREADS=1 additionally pins the sharded wire-replay leg to the
# serial partition path, matching the in-process comparison run.
NN_THREADS=1 cargo test -q -p splash_repro --test server

echo "==> benches compile"
cargo bench --no-run -p bench

echo "==> splashbench: every workload's smoke mode, bit-identity checks and metric contract"
# The repo benchmark (BENCHMARK.json) at a tiny size: each workload runs
# untraced and traced, its correctness checks must pass, and its printed
# metric names and units must equal BENCHMARK.json's lists.
cargo test --release --manifest-path splashbench/Cargo.toml

echo "==> code size: non-test Rust lines per crate vs ci/loc_baseline.json (report only)"
ci/loc.sh | awk '
    { line = $0; gsub(/[", ]/, "", line); split(line, kv, ":") }
    NF < 2 { next }
    NR == FNR { base[kv[1]] = kv[2]; next }
    {
        seen[kv[1]] = 1
        d = kv[2] - base[kv[1]]; total_now += kv[2]; total_delta += d
        printf "  %-14s %7d  %+6d\n", kv[1], kv[2], d
    }
    END {
        for (c in base) if (!(c in seen)) {
            printf "  %-14s %7d  %+6d\n", c, 0, -base[c]; total_delta -= base[c]
        }
        printf "  %-14s %7d  %+6d\n", "total", total_now, total_delta
    }' ci/loc_baseline.json -

echo "==> all checks passed"
