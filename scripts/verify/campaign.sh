#!/usr/bin/env bash
# CI job `campaign`: every tage-bench grid and the gates on its reports.
# Reports must pass `tage-bench --check`, timing-free reports must byte-match
# (`cmp`) across engines, trace encodings, worker counts and kill/--resume
# splits, and `--paper all` must equal docs/RESULTS.md. Needs `gzip` on
# PATH. Writes under target/verify-campaign (removed first).
set -euo pipefail
cd "$(dirname "$0")/../.."
out=target/verify-campaign
rm -rf "$out"
mkdir -p "$out"
cargo build --release --bin tage-bench
tb=./target/release/tage-bench
# The default 2 predictors x 2 schemes grid (docs/CAMPAIGNS.md).
grid=(--predictors tage-16k,gshare --schemes storage-free,jrs-classic --branches 20000)

echo "== campaign smoke (tage-bench grid + schema check) =="
"$tb" "${grid[@]}" --suites cbp1-mini --label verify-smoke \
  --out "$out/campaign-smoke.json"
"$tb" --check "$out/campaign-smoke.json"

echo "== engine parity (multilane vs scalar) =="
# Two grids through each engine; the timing-free reports must byte-match,
# the multilane bit-parity contract observed at the report level. The first
# grid's six cells form one group with estimator and shared-predictor
# cells, so its storage-free baseline cell rides the group's scalar pass on
# either engine. The second grid's cells all run on lanes under multilane:
# one lane pass per predictor, from which the recovery-energy and
# prefetch-throttle cells derive their metrics.
parity=(--predictors tage-16k --schemes storage-free,jrs-enhanced
  --scenario baseline,recovery-energy,shared-predictor --suites cbp1-mini
  --branches 20000 --label verify-engine --no-timing)
"$tb" "${parity[@]}" --engine multilane --out "$out/campaign-multilane.json"
"$tb" "${parity[@]}" --engine scalar --out "$out/campaign-scalar.json"
cmp "$out/campaign-multilane.json" "$out/campaign-scalar.json"
lanes=(--predictors tage-16k,tage-64k --schemes storage-free
  --scenario baseline,recovery-energy,prefetch-throttle --suites cbp1-mini
  --branches 20000 --label verify-engine-lanes --no-timing)
"$tb" "${lanes[@]}" --engine multilane --out "$out/campaign-lanes-multilane.json"
"$tb" "${lanes[@]}" --engine scalar --out "$out/campaign-lanes-scalar.json"
cmp "$out/campaign-lanes-multilane.json" "$out/campaign-lanes-scalar.json"

echo "== scenario smoke (tage-bench --scenario) =="
# One cell per scenario kind and the schema-4 validation of the
# scenario_metrics the report must carry (docs/SCENARIOS.md).
"$tb" --predictors tage-16k --schemes storage-free --suites cbp1-mini \
  --scenario recovery-energy,shared-predictor,prefetch-throttle \
  --branches 20000 --label verify-scenarios --out "$out/campaign-scenarios.json"
"$tb" --check "$out/campaign-scenarios.json"

echo "== file-backed campaign (BinaryFileSource) =="
# The default grid streamed from the mini suite exported as binary trace
# files (bounded-memory chunked ingestion, docs/STREAMING.md).
"$tb" --export-traces "$out/traces" --suites cbp1-mini --branches 20000
"$tb" --trace-dir "$out/traces" "${grid[@]}" --label verify-file \
  --out "$out/campaign-smoke-file.json"
"$tb" --check "$out/campaign-smoke-file.json"

echo "== checkpointed campaign (kill + resume) =="
# Kill a grid after one executed cell (--max-cells), resume it from the
# checkpoint, and require the resumed timing-free report to byte-match a
# clean uninterrupted run's (docs/CAMPAIGNS.md).
ckpt=("${grid[@]}" --suites cbp1-mini --label verify-ckpt --no-timing)
"$tb" "${ckpt[@]}" --checkpoint "$out/ckpt" --max-cells 1 \
  --out "$out/campaign-resumed.json"
test ! -f "$out/campaign-resumed.json"
"$tb" "${ckpt[@]}" --resume "$out/ckpt" --out "$out/campaign-resumed.json"
"$tb" "${ckpt[@]}" --out "$out/campaign-clean.json"
cmp "$out/campaign-resumed.json" "$out/campaign-clean.json"

echo "== explore smoke (tage-bench --explore, kill + resume) =="
# Design-space search under a 32 Kbit budget (<=8 geometries): validate the
# schema-4 report with its explore/Pareto section, then kill the same grid
# after one cell, resume it, and require the explore report to byte-match
# the uninterrupted run's (docs/GEOMETRY.md, docs/CAMPAIGNS.md).
explore=(--explore --budget-bits 32768 --max-geometries 8
  --branches 20000 --label verify-explore --no-timing)
"$tb" "${explore[@]}" --out "$out/explore-clean.json"
"$tb" --check "$out/explore-clean.json"
grep -q '"explore":' "$out/explore-clean.json"
"$tb" "${explore[@]}" --checkpoint "$out/explore-ckpt" --max-cells 1 \
  --out "$out/explore-resumed.json"
test ! -f "$out/explore-resumed.json"
"$tb" "${explore[@]}" --resume "$out/explore-ckpt" --out "$out/explore-resumed.json"
cmp "$out/explore-clean.json" "$out/explore-resumed.json"

echo "== sampling smoke (gzip export + phase-sampled campaign) =="
# Real-trace + phase-sampling pipeline end to end (docs/TRACES.md): export
# a 200k-branch suite as gzip-framed traces (read back through the std-only
# inflate), run the full-trace cell and the sampled cell (interval 250, k 8)
# over them, and require (a) the weighted reconstruction to land within 5%
# of the exact mean MPKI at >= 5x fewer measured branches, (b) byte-identical
# sampled reports across 1 vs 4 workers, across the suite re-compressed by
# `gzip -9` and across a kill/--resume split.
s=$out/sampling
"$tb" --export-traces "$s/traces" --gzip --suites cbp1-mini --branches 200000
full=(--predictors tage-16k --schemes storage-free --branches 200000
  --label verify-sampling --no-timing)
sampled=("${full[@]}" --sample-interval 250 --sample-k 8)
"$tb" --trace-dir "$s/traces" "${full[@]}" --out "$s/full.json"
"$tb" --trace-dir "$s/traces" "${sampled[@]}" --workers 1 --out "$s/sampled-w1.json"
"$tb" --check "$s/sampled-w1.json"
grep -q '"sampling":' "$s/sampled-w1.json"
full_mpki=$(grep -o '"mean_mpki": [0-9.]*' "$s/full.json" | head -1 | grep -o '[0-9.]*$')
sampled_mpki=$(grep -o '"mean_mpki": [0-9.]*' "$s/sampled-w1.json" | head -1 | grep -o '[0-9.]*$')
awk -v f="$full_mpki" -v s="$sampled_mpki" 'BEGIN {
  d = (s - f) / f; if (d < 0) d = -d;
  printf "reconstruction error: %.2f%% (full %s, sampled %s)\n", d * 100, f, s;
  exit (d < 0.05) ? 0 : 1
}'
measured=$(grep -o '"measured_branches": [0-9]*' "$s/sampled-w1.json" | grep -o '[0-9]*$')
total=$(grep -o '"total_records": [0-9]*' "$s/sampled-w1.json" | grep -o '[0-9]*$')
awk -v m="$measured" -v t="$total" 'BEGIN {
  printf "measured %s of %s records (%.1fx reduction)\n", m, t, t / m;
  exit (m * 5 <= t) ? 0 : 1
}'
"$tb" --trace-dir "$s/traces" "${sampled[@]}" --workers 4 --engine scalar \
  --out "$s/sampled-w4.json"
cmp "$s/sampled-w1.json" "$s/sampled-w4.json"
# --gzip writes stored blocks only. Re-compress the suite with `gzip -9 -n`
# (Huffman-coded blocks) into a sibling directory of the same name, which
# names the suite, and require the same full and sampled reports from it.
mkdir -p "$s/gzip-9/traces"
for f in "$s"/traces/*.trace.gz; do
  gzip -dc "$f" | gzip -9 -n > "$s/gzip-9/traces/$(basename "$f")"
done
"$tb" --trace-dir "$s/gzip-9/traces" "${full[@]}" --out "$s/gzip-9/full.json"
cmp "$s/full.json" "$s/gzip-9/full.json"
"$tb" --trace-dir "$s/gzip-9/traces" "${sampled[@]}" --workers 1 \
  --out "$s/gzip-9/sampled-w1.json"
cmp "$s/sampled-w1.json" "$s/gzip-9/sampled-w1.json"
resume=(--trace-dir "$s/traces" --predictors tage-16k,tage-64k --schemes storage-free
  --branches 200000 --sample-interval 250 --sample-k 8
  --label verify-sampling-ckpt --no-timing)
"$tb" "${resume[@]}" --checkpoint "$s/ckpt" --max-cells 1 --out "$s/sampled-resumed.json"
test ! -f "$s/sampled-resumed.json"
"$tb" "${resume[@]}" --resume "$s/ckpt" --out "$s/sampled-resumed.json"
"$tb" "${resume[@]}" --out "$s/sampled-clean.json"
cmp "$s/sampled-resumed.json" "$s/sampled-clean.json"

echo "== streaming smoke (BranchSource) =="
# Out-of-core pipeline: generator -> disk -> chunked BinaryFileSource ->
# engine, asserting bit-parity with the materialized run
# (docs/STREAMING.md).
cargo run --release --example streaming_ingestion

echo "== snapshot round-trip (parity + corruption + fuzz suite) =="
# Versioned predictor-state snapshots: split-point parity for every
# predictor spec, precise corruption errors, multilane restores and the
# op-interleaving fuzz (docs/SNAPSHOTS.md), built with optimizations.
cargo test --release -q --test snapshot_parity

echo "== paper artefacts (tage-bench --paper) =="
# The paper's tables and figures from campaign cells (docs/CAMPAIGNS.md):
# docs/RESULTS.md must be exactly `--paper all` at its 200,000-branch
# default.
"$tb" --paper all --out "$out/RESULTS.md"
cmp "$out/RESULTS.md" docs/RESULTS.md
