#!/usr/bin/env bash
# Local CI: formatting, lints, and the tier-1 test suite.
# Usage: scripts/check.sh          (from the repo root)
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release --offline
cargo test -q --offline

echo "==> word substrate (fc-words lib + suffix-automaton/factor proptests + doc tests; release)"
cargo test -q --offline --release -p fc-words

echo "==> verdict-cascade suites (fc-games lib + batch/table/solver-vs-reference differentials + proptests, fc-serve engine + concurrency; release)"
cargo test -q --offline --release -p fc-games --lib --test batch_diff --test table_diff --test differential --test prop
cargo test -q --offline --release -p fc-serve

echo "==> planner suites (fc-logic lib + plan_diff differential + FC[REG] proptests; release)"
cargo test -q --offline --release -p fc-logic --lib --test plan_diff --test prop

echo "==> language, relation and spanner suites (fc-reglang, fc-relations, fc-spanners lib + proptests; fc-logic analysis corpus; release)"
cargo test -q --offline --release -p fc-reglang -p fc-relations -p fc-spanners
cargo test -q --offline --release -p fc-logic --test analysis_corpus

echo "==> solver perf smokes (E08 confirmation + batch classify on Σ^≤4 k=2 + E08/E09 scan tripwires, release, generous budgets)"
cargo test -q --offline --release -p fc-games --test perf_smoke -- --nocapture --skip pr10_

echo "==> PR10 tripwires (guided-ordering state budgets on the E08/E09 confirmations; shared-table hit-rate floor on the E09 reconfirmation; release)"
cargo test -q --offline --release -p fc-games --test perf_smoke pr10_ -- --nocapture

echo "==> arith-tier acceptance grid (u^p vs u^q, |u| <= 3, p,q <= 20, k <= 2, release; debug builds run the reduced grid in tier-1)"
cargo test -q --offline --release -p fc-games --test arith_diff

echo "==> eval + structure perf smokes (phi_fib n = 4 member; dense build of {a,b}^12 + 500 random 40-letter words; succinct backend on |w| = 10^4; release, generous budgets)"
cargo test -q --offline --release -p fc-logic --test perf_smoke -- --nocapture

echo "==> examples (release; each must run to completion, so an API change that makes one panic fails here)"
for example in quickstart game_explorer logic_workbench fooling_pairs unary_arithmetic spanner_pipeline; do
  cargo run -q --offline --release --example "$example" > /dev/null
done

echo "==> fc serve smoke (ephemeral port, small loadgen replay, plan-cache hits, clean shutdown)"
cargo build --release --offline -p fc-serve --bin fc-loadgen
PORT_FILE="$(mktemp)"
rm -f "$PORT_FILE" # fc serve creates it after binding; absence is the readiness signal
./target/release/fc serve --addr 127.0.0.1:0 --port-file "$PORT_FILE" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$PORT_FILE" ]] && break
  sleep 0.1
done
[[ -s "$PORT_FILE" ]] || { echo "fc serve never wrote its port file" >&2; kill "$SERVE_PID" 2>/dev/null; exit 1; }
ADDR="$(head -n1 "$PORT_FILE")"
./target/release/fc-loadgen --addr "$ADDR" --requests 2000 --clients 4 --expect-cache-hits --shutdown
wait "$SERVE_PID" # clean exit after the loadgen's shutdown request
rm -f "$PORT_FILE"

echo "==> perfbench builds against the current crates (outside the workspace, so clippy never sees it)"
cargo check --offline --locked --manifest-path perfbench/Cargo.toml --target-dir .bench_build

echo "All checks passed."
