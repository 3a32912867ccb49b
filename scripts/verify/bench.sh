#!/usr/bin/env bash
# CI job `bench` (stable only): the repository benchmark's build and tests,
# its sampled-workload correctness smoke, and the throughput regression
# gate. Writes under target/verify-bench (removed first).
set -euo pipefail
cd "$(dirname "$0")/../.."
out=target/verify-bench
rm -rf "$out"
mkdir -p "$out"

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
# fail unless it is correct with 0 failures. Needs `gzip` on PATH.
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload sampled_real_traces --seed 2 --seconds 1 > "$out/sampled-smoke.txt"
last=$(tail -n 1 "$out/sampled-smoke.txt")
echo "$last"
if ! grep -q '"correct": true' <<<"$last" || ! grep -q '"failed": 0,' <<<"$last"; then
  cat "$out/sampled-smoke.txt"
  echo "sampled-workload smoke: perfbench reported incorrect output or failed operations" >&2
  exit 1
fi

echo "== throughput smoke (+ regression gate) =="
# --baseline seeds from the tracked milestone file while --out writes to an
# untracked path (CI uploads it), so verification never dirties the working
# tree; --check-regression fails the run if a same-host speedup ratio (the
# median of interleaved trials) drops below 0.5x the latest committed
# milestone's (docs/BENCHMARKS.md).
cargo run --release --bin throughput -- 50000 \
  --baseline BENCH_throughput.json --out "$out/BENCH_throughput.json" \
  --check-regression
