#!/usr/bin/env bash
# Full verification: formatting, lints, build, tests and a throughput smoke.
# This is what CI runs; keep it green before every commit.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --no-deps (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== tier-1: cargo build --release && cargo test -q =="
cargo build --release
cargo test -q

echo "== repository benchmark (perfbench): build + tests =="
# perfbench/ is a workspace of its own that drives the public API; build
# and test it here so an API change that breaks the benchmark fails now,
# not when the benchmark runs (docs/BENCHMARKS.md). It has no external
# dependencies, so --offline is safe.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "== sampled-workload correctness smoke (perfbench) =="
# One short run of the sampled workload checks the grouped sampled path end
# to end: cold, warm and first-cycle reports byte-identical, and each cell's
# mean MPKI equal to `run_sampled_source`'s. The run ends in one JSON line;
# fail unless it is correct with 0 failures.
mkdir -p target
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload sampled_real_traces --seed 2 --seconds 1 > target/verify-sampled-smoke.txt
last=$(tail -n 1 target/verify-sampled-smoke.txt)
echo "$last"
if ! grep -q '"correct": true' <<<"$last" || ! grep -q '"failed": 0,' <<<"$last"; then
  cat target/verify-sampled-smoke.txt
  echo "sampled-workload smoke: perfbench reported incorrect output or failed operations" >&2
  exit 1
fi

echo "== throughput smoke (+ regression gate) =="
# --baseline seeds from the tracked milestone file while --out keeps routine
# runs on an untracked path (see docs/BENCHMARKS.md), so verification never
# dirties the working tree; --check-regression fails the run if the
# same-host SoA/reference speedup ratio drops below 0.5x the latest
# committed milestone's ratio (host-speed-immune, see docs/BENCHMARKS.md).
cargo run --release --bin throughput -- 50000 \
  --baseline BENCH_throughput.json --out target/BENCH_throughput.json \
  --check-regression

echo "== campaign smoke (tage-bench) =="
# Tiny default grid (2 predictors x 2 schemes x 1 suite); the --check pass
# validates the report's schema (see docs/CAMPAIGNS.md).
cargo run --release --bin tage-bench -- --branches 10000 --label verify \
  --out target/campaign-smoke.json
cargo run --release --bin tage-bench -- --check target/campaign-smoke.json

echo "== engine parity smoke (multilane vs scalar) =="
# Two grids through each engine; the timing-free schema-4 reports must
# byte-match — the multilane engine's bit-parity contract, observed end to
# end at the report level (docs/BENCHMARKS.md). The first grid's six cells
# form one group with estimator and shared-predictor cells, so its
# storage-free baseline cell rides the group's scalar pass on either
# engine. The second grid's cells all run on lanes under multilane: one
# lane pass per predictor, from which the recovery-energy and
# prefetch-throttle cells derive their metrics.
cargo run --release --bin tage-bench -- \
  --predictors tage-16k --schemes storage-free,jrs-enhanced \
  --scenario baseline,recovery-energy,shared-predictor --suites cbp1-mini \
  --branches 10000 --label verify-engine --engine multilane --no-timing \
  --out target/campaign-multilane.json
cargo run --release --bin tage-bench -- \
  --predictors tage-16k --schemes storage-free,jrs-enhanced \
  --scenario baseline,recovery-energy,shared-predictor --suites cbp1-mini \
  --branches 10000 --label verify-engine --engine scalar --no-timing \
  --out target/campaign-scalar.json
cmp target/campaign-multilane.json target/campaign-scalar.json
cargo run --release --bin tage-bench -- \
  --predictors tage-16k,tage-64k --schemes storage-free \
  --scenario baseline,recovery-energy,prefetch-throttle --suites cbp1-mini \
  --branches 10000 --label verify-engine-lanes --engine multilane --no-timing \
  --out target/campaign-lanes-multilane.json
cargo run --release --bin tage-bench -- \
  --predictors tage-16k,tage-64k --schemes storage-free \
  --scenario baseline,recovery-energy,prefetch-throttle --suites cbp1-mini \
  --branches 10000 --label verify-engine-lanes --engine scalar --no-timing \
  --out target/campaign-lanes-scalar.json
cmp target/campaign-lanes-multilane.json target/campaign-lanes-scalar.json

echo "== paper artefacts (tage-bench --paper) =="
# The paper's tables and figures from campaign cells (docs/CAMPAIGNS.md):
# docs/RESULTS.md must be exactly `--paper all` at its 200,000-branch
# default.
cargo run --release --bin tage-bench -- --paper all --out target/RESULTS.md
cmp target/RESULTS.md docs/RESULTS.md

echo "== scenario smoke (tage-bench --scenario) =="
# One cell per scenario kind (recovery-energy, shared-predictor,
# prefetch-throttle) and the schema-4 validation of the scenario_metrics
# the report must carry (docs/SCENARIOS.md).
cargo run --release --bin tage-bench -- \
  --predictors tage-16k --schemes storage-free --suites cbp1-mini \
  --scenario recovery-energy,shared-predictor,prefetch-throttle \
  --branches 10000 --label verify-scenarios \
  --out target/campaign-scenarios.json
cargo run --release --bin tage-bench -- --check target/campaign-scenarios.json

echo "== streaming smoke (BranchSource) =="
# Out-of-core pipeline: generator -> disk -> chunked BinaryFileSource ->
# engine, asserting bit-parity with the materialized run
# (docs/STREAMING.md).
cargo run --release --example streaming_ingestion
# File-backed campaign: export the mini suite as binary traces, run a 2x2
# grid over them through BinaryFileSource, validate the report schema.
rm -rf target/verify-traces
cargo run --release --bin tage-bench -- --export-traces target/verify-traces \
  --suites cbp1-mini --branches 10000
cargo run --release --bin tage-bench -- --trace-dir target/verify-traces \
  --predictors tage-16k,gshare --schemes storage-free,jrs-classic \
  --label verify-file --out target/campaign-file-smoke.json
cargo run --release --bin tage-bench -- --check target/campaign-file-smoke.json

echo "== snapshot round-trip (parity + corruption + fuzz suite) =="
# Versioned predictor-state snapshots: split-point parity for every
# predictor spec, precise corruption errors, multilane restores and the
# op-interleaving fuzz (docs/SNAPSHOTS.md).
cargo test --release -q --test snapshot_parity

echo "== checkpointed campaign smoke (kill + resume) =="
# Kill a grid after one executed cell (--max-cells), resume it from the
# checkpoint, and require the resumed timing-free report to byte-match a
# clean uninterrupted run's (docs/CAMPAIGNS.md).
rm -rf target/verify-ckpt
rm -f target/campaign-resumed.json target/campaign-clean.json
cargo run --release --bin tage-bench -- \
  --predictors tage-16k,gshare --schemes storage-free,jrs-classic \
  --branches 10000 --label verify-ckpt --no-timing \
  --checkpoint target/verify-ckpt --max-cells 1 \
  --out target/campaign-resumed.json
test ! -f target/campaign-resumed.json
cargo run --release --bin tage-bench -- \
  --predictors tage-16k,gshare --schemes storage-free,jrs-classic \
  --branches 10000 --label verify-ckpt --no-timing \
  --resume target/verify-ckpt --out target/campaign-resumed.json
cargo run --release --bin tage-bench -- \
  --predictors tage-16k,gshare --schemes storage-free,jrs-classic \
  --branches 10000 --label verify-ckpt --no-timing \
  --out target/campaign-clean.json
cmp target/campaign-resumed.json target/campaign-clean.json

echo "== explore smoke (tage-bench --explore, kill + resume) =="
# Design-space search under a 32 Kbit budget (<=8 geometries): validate the
# schema-4 report with its explore/Pareto section, then kill the same grid
# after one cell, resume it, and require the explore report to byte-match
# the uninterrupted run's (docs/GEOMETRY.md, docs/CAMPAIGNS.md).
rm -rf target/verify-explore-ckpt
rm -f target/explore-clean.json target/explore-resumed.json
cargo run --release --bin tage-bench -- \
  --explore --budget-bits 32768 --max-geometries 8 \
  --branches 10000 --label verify-explore --no-timing \
  --out target/explore-clean.json
cargo run --release --bin tage-bench -- --check target/explore-clean.json
grep -q '"explore":' target/explore-clean.json
cargo run --release --bin tage-bench -- \
  --explore --budget-bits 32768 --max-geometries 8 \
  --branches 10000 --label verify-explore --no-timing \
  --checkpoint target/verify-explore-ckpt --max-cells 1 \
  --out target/explore-resumed.json
test ! -f target/explore-resumed.json
cargo run --release --bin tage-bench -- \
  --explore --budget-bits 32768 --max-geometries 8 \
  --branches 10000 --label verify-explore --no-timing \
  --resume target/verify-explore-ckpt \
  --out target/explore-resumed.json
cmp target/explore-clean.json target/explore-resumed.json

echo "== sampling smoke (gzip export + phase-sampled campaign) =="
# Real-trace + phase-sampling pipeline end to end (docs/TRACES.md): export
# a 200k-branch suite as gzip-framed traces (read back through the
# std-only inflate), run the full-trace cell and the sampled cell
# (interval 250, k 8) over them, and require (a) the weighted
# reconstruction to land within 5% of the exact mean MPKI at >= 5x fewer
# measured branches, (b) byte-identical sampled reports across 1 vs 4
# workers, across the suite re-compressed by `gzip -9` and across a
# kill/--resume split.
rm -rf target/verify-sampling
cargo run --release --bin tage-bench -- --export-traces target/verify-sampling/traces \
  --gzip --suites cbp1-mini --branches 200000
cargo run --release --bin tage-bench -- --trace-dir target/verify-sampling/traces \
  --predictors tage-16k --schemes storage-free --branches 200000 \
  --label verify-sampling --no-timing \
  --out target/verify-sampling/full.json
cargo run --release --bin tage-bench -- --trace-dir target/verify-sampling/traces \
  --predictors tage-16k --schemes storage-free --branches 200000 \
  --sample-interval 250 --sample-k 8 --workers 1 \
  --label verify-sampling --no-timing \
  --out target/verify-sampling/sampled-w1.json
cargo run --release --bin tage-bench -- --check target/verify-sampling/sampled-w1.json
grep -q '"sampling":' target/verify-sampling/sampled-w1.json
full_mpki=$(grep -o '"mean_mpki": [0-9.]*' target/verify-sampling/full.json | head -1 | grep -o '[0-9.]*$')
sampled_mpki=$(grep -o '"mean_mpki": [0-9.]*' target/verify-sampling/sampled-w1.json | head -1 | grep -o '[0-9.]*$')
awk -v f="$full_mpki" -v s="$sampled_mpki" 'BEGIN {
  d = (s - f) / f; if (d < 0) d = -d;
  printf "reconstruction error: %.2f%% (full %s, sampled %s)\n", d * 100, f, s;
  exit (d < 0.05) ? 0 : 1
}'
measured=$(grep -o '"measured_branches": [0-9]*' target/verify-sampling/sampled-w1.json | grep -o '[0-9]*$')
total=$(grep -o '"total_records": [0-9]*' target/verify-sampling/sampled-w1.json | grep -o '[0-9]*$')
awk -v m="$measured" -v t="$total" 'BEGIN {
  printf "measured %s of %s records (%.1fx reduction)\n", m, t, t / m;
  exit (m * 5 <= t) ? 0 : 1
}'
cargo run --release --bin tage-bench -- --trace-dir target/verify-sampling/traces \
  --predictors tage-16k --schemes storage-free --branches 200000 \
  --sample-interval 250 --sample-k 8 --workers 4 --engine scalar \
  --label verify-sampling --no-timing \
  --out target/verify-sampling/sampled-w4.json
cmp target/verify-sampling/sampled-w1.json target/verify-sampling/sampled-w4.json
# --gzip writes stored blocks only. Re-compress the suite with `gzip -9 -n`
# (Huffman-coded blocks) into a sibling directory of the same name, which
# names the suite, and require the same full and sampled reports from it.
mkdir -p target/verify-sampling/gzip-9/traces
for f in target/verify-sampling/traces/*.trace.gz; do
  gzip -dc "$f" | gzip -9 -n > "target/verify-sampling/gzip-9/traces/$(basename "$f")"
done
cargo run --release --bin tage-bench -- --trace-dir target/verify-sampling/gzip-9/traces \
  --predictors tage-16k --schemes storage-free --branches 200000 \
  --label verify-sampling --no-timing \
  --out target/verify-sampling/gzip-9/full.json
cmp target/verify-sampling/full.json target/verify-sampling/gzip-9/full.json
cargo run --release --bin tage-bench -- --trace-dir target/verify-sampling/gzip-9/traces \
  --predictors tage-16k --schemes storage-free --branches 200000 \
  --sample-interval 250 --sample-k 8 --workers 1 \
  --label verify-sampling --no-timing \
  --out target/verify-sampling/gzip-9/sampled-w1.json
cmp target/verify-sampling/sampled-w1.json target/verify-sampling/gzip-9/sampled-w1.json
cargo run --release --bin tage-bench -- --trace-dir target/verify-sampling/traces \
  --predictors tage-16k,tage-64k --schemes storage-free --branches 200000 \
  --sample-interval 250 --sample-k 8 \
  --label verify-sampling-ckpt --no-timing \
  --checkpoint target/verify-sampling/ckpt --max-cells 1 \
  --out target/verify-sampling/sampled-resumed.json
test ! -f target/verify-sampling/sampled-resumed.json
cargo run --release --bin tage-bench -- --trace-dir target/verify-sampling/traces \
  --predictors tage-16k,tage-64k --schemes storage-free --branches 200000 \
  --sample-interval 250 --sample-k 8 \
  --label verify-sampling-ckpt --no-timing \
  --resume target/verify-sampling/ckpt \
  --out target/verify-sampling/sampled-resumed.json
cargo run --release --bin tage-bench -- --trace-dir target/verify-sampling/traces \
  --predictors tage-16k,tage-64k --schemes storage-free --branches 200000 \
  --sample-interval 250 --sample-k 8 \
  --label verify-sampling-ckpt --no-timing \
  --out target/verify-sampling/sampled-clean.json
cmp target/verify-sampling/sampled-resumed.json target/verify-sampling/sampled-clean.json

echo "== service smoke (tage-serve daemon: cache + kill/restart) =="
# The campaign daemon end to end (docs/SERVICE.md): submit a file-backed
# grid over exported binary traces, require the served report to byte-match
# a one-shot run, require a relabelled resubmission to be answered entirely
# from the cell cache (zero recompute), then SIGTERM the daemon mid-second-
# grid (graceful shutdown must exit 0), restart it over the same store +
# journal, and require the rehydrated campaign's report to byte-match a
# clean run too.
SERVE_URL=http://127.0.0.1:17421
# Fails unless the daemon exits within 10 s of its shutdown request, so a
# missed wake-up fails here in seconds instead of hanging. Bash reaps the
# exited daemon at once and keeps its status for `wait`.
exits_within_10s() {
  for _ in $(seq 1 100); do
    kill -0 "$1" 2>/dev/null || return 0
    sleep 0.1
  done
  echo "tage-serve (pid $1) still running 10 s after its shutdown request" >&2
  return 1
}
rm -rf target/verify-serve
mkdir -p target/verify-serve
cargo build --release --bin tage-serve --bin tage-bench
cargo run --release --bin tage-bench -- --export-traces target/verify-serve/traces \
  --suites cbp1-mini --branches 10000
./target/release/tage-serve --addr 127.0.0.1:17421 \
  --store target/verify-serve/cells --journal target/verify-serve/journal \
  >target/verify-serve/serve1.log 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
  curl -sf "$SERVE_URL/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
./target/release/tage-bench --submit "$SERVE_URL" \
  --trace-dir target/verify-serve/traces \
  --predictors tage-16k,gshare --schemes storage-free,jrs-classic \
  --branches 10000 --label verify-serve \
  --out target/verify-serve/report-served.json
./target/release/tage-bench --trace-dir target/verify-serve/traces \
  --predictors tage-16k,gshare --schemes storage-free,jrs-classic \
  --branches 10000 --label verify-serve --no-timing \
  --out target/verify-serve/report-clean.json
cmp target/verify-serve/report-served.json target/verify-serve/report-clean.json
computed=$(curl -sf "$SERVE_URL/metrics" | grep -o '"cells_computed": [0-9]*' | grep -o '[0-9]*$')
./target/release/tage-bench --submit "$SERVE_URL" \
  --trace-dir target/verify-serve/traces \
  --predictors tage-16k,gshare --schemes storage-free,jrs-classic \
  --branches 10000 --label verify-serve-relabelled \
  --out target/verify-serve/report-relabelled.json
recomputed=$(curl -sf "$SERVE_URL/metrics" | grep -o '"cells_computed": [0-9]*' | grep -o '[0-9]*$')
# The relabelled grid must be answered entirely from the cell cache.
test "$computed" = "$recomputed"
# A phase-sampled grid runs through the same cell executor as the CLI
# (predictor checkpoints under <store>/warm); its served report must
# byte-match the one-shot run too.
./target/release/tage-bench --submit "$SERVE_URL" \
  --predictors tage-16k --schemes storage-free --suites sample:cbp1-mini:500:4:1 \
  --branches 10000 --label verify-serve-sampled \
  --out target/verify-serve/report-sampled-served.json
./target/release/tage-bench \
  --predictors tage-16k --schemes storage-free --suites sample:cbp1-mini:500:4:1 \
  --branches 10000 --label verify-serve-sampled --no-timing \
  --out target/verify-serve/report-sampled-clean.json
cmp target/verify-serve/report-sampled-served.json target/verify-serve/report-sampled-clean.json
./target/release/tage-bench --submit "$SERVE_URL" --no-wait \
  --predictors tage-16k --schemes storage-free --suites cbp1-mini \
  --scenario baseline,recovery-energy,shared-predictor,prefetch-throttle \
  --branches 10000 --label verify-serve-2
kill -TERM "$SERVE_PID"
exits_within_10s "$SERVE_PID"
wait "$SERVE_PID"
./target/release/tage-serve --addr 127.0.0.1:17421 \
  --store target/verify-serve/cells --journal target/verify-serve/journal \
  >target/verify-serve/serve2.log 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  curl -sf "$SERVE_URL/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
./target/release/tage-bench --submit "$SERVE_URL" \
  --predictors tage-16k --schemes storage-free --suites cbp1-mini \
  --scenario baseline,recovery-energy,shared-predictor,prefetch-throttle \
  --branches 10000 --label verify-serve-2 \
  --out target/verify-serve/report-resumed.json
./target/release/tage-bench \
  --predictors tage-16k --schemes storage-free --suites cbp1-mini \
  --scenario baseline,recovery-energy,shared-predictor,prefetch-throttle \
  --branches 10000 --label verify-serve-2 --no-timing \
  --out target/verify-serve/report-resumed-clean.json
cmp target/verify-serve/report-resumed.json target/verify-serve/report-resumed-clean.json
curl -sf -X POST "$SERVE_URL/shutdown" >/dev/null
exits_within_10s "$SERVE_PID"
wait "$SERVE_PID"
trap - EXIT

echo "verify: OK"
