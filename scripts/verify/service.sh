#!/usr/bin/env bash
# CI job `service`: the tage-serve campaign daemon end to end
# (docs/SERVICE.md). A file-backed grid served over HTTP must byte-match a
# one-shot CLI run; a relabelled resubmission must be answered entirely from
# the cell cache (zero recompute); after one trace is rewritten in place at
# the same length, a resubmission must recompute and byte-match a fresh
# one-shot run over the rewritten traces; a phase-sampled grid served must
# byte-match its one-shot run; a SIGTERM mid-grid must exit 0, and the
# daemon restarted over the same store and journal must finish the
# rehydrated campaign to a byte-identical report. Writes under
# target/verify-serve (removed first; CI uploads it with the daemon logs).
set -euo pipefail
cd "$(dirname "$0")/../.."
out=target/verify-serve
url=http://127.0.0.1:17421
rm -rf "$out"
mkdir -p "$out"
cargo build --release --bin tage-serve --bin tage-bench
tb=./target/release/tage-bench

# Starts the daemon over the store and journal, logging to serve$1.log, and
# waits up to 10 s for it to answer.
start_daemon() {
  ./target/release/tage-serve --addr 127.0.0.1:17421 \
    --store "$out/cells" --journal "$out/journal" >"$out/serve$1.log" 2>&1 &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    curl -sf "$url/healthz" >/dev/null 2>&1 && break
    sleep 0.1
  done
}
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
cells_computed() {
  curl -sf "$url/metrics" | grep -o '"cells_computed": [0-9]*' | grep -o '[0-9]*$'
}

"$tb" --export-traces "$out/traces" --suites cbp1-mini --branches 20000
start_daemon 1
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
grid=(--trace-dir "$out/traces" --predictors tage-16k,gshare
  --schemes storage-free,jrs-classic --branches 20000)
"$tb" --submit "$url" "${grid[@]}" --label verify-serve --out "$out/report-served.json"
"$tb" "${grid[@]}" --label verify-serve --no-timing --out "$out/report-clean.json"
cmp "$out/report-served.json" "$out/report-clean.json"
computed=$(cells_computed)
"$tb" --submit "$url" "${grid[@]}" --label verify-serve-relabelled \
  --out "$out/report-relabelled.json"
recomputed=$(cells_computed)
test "$computed" = "$recomputed"
# Overwrite FP-1.trace's records in place with INT-2.trace's first records:
# valid records, the same total length. A native header is 20 bytes plus
# the trace name; each record is 21 bytes. The daemon hashed the old bytes,
# so this checks that its memo sees the new modification time.
victim="$out/traces/FP-1.trace"
size=$(stat -c %s "$victim")
dd if="$out/traces/INT-2.trace" of="$victim" iflag=skip_bytes,count_bytes \
  oflag=seek_bytes skip=25 seek=24 count=$((size - 24)) conv=notrunc status=none
test "$(stat -c %s "$victim")" = "$size"
"$tb" --submit "$url" "${grid[@]}" --label verify-serve-rewritten \
  --out "$out/report-rewritten.json"
test "$(cells_computed)" -gt "$recomputed"
"$tb" "${grid[@]}" --label verify-serve-rewritten --no-timing \
  --out "$out/report-rewritten-clean.json"
cmp "$out/report-rewritten.json" "$out/report-rewritten-clean.json"
if cmp -s <(grep -v '^ "label": ' "$out/report-served.json") \
  <(grep -v '^ "label": ' "$out/report-rewritten.json"); then
  echo "the rewritten trace was served its old cells" >&2
  exit 1
fi
# A phase-sampled grid runs through the same cell executor as the CLI
# (predictor checkpoints under <store>/warm).
sampled=(--predictors tage-16k --schemes storage-free --suites sample:cbp1-mini:500:4:1
  --branches 20000 --label verify-serve-sampled)
"$tb" --submit "$url" "${sampled[@]}" --out "$out/report-sampled-served.json"
"$tb" "${sampled[@]}" --no-timing --out "$out/report-sampled-clean.json"
cmp "$out/report-sampled-served.json" "$out/report-sampled-clean.json"
scenarios=(--predictors tage-16k --schemes storage-free --suites cbp1-mini
  --scenario baseline,recovery-energy,shared-predictor,prefetch-throttle
  --branches 20000 --label verify-serve-2)
"$tb" --submit "$url" --no-wait "${scenarios[@]}"
kill -TERM "$SERVE_PID"
exits_within_10s "$SERVE_PID"
wait "$SERVE_PID"
start_daemon 2
"$tb" --submit "$url" "${scenarios[@]}" --out "$out/report-resumed.json"
"$tb" "${scenarios[@]}" --no-timing --out "$out/report-resumed-clean.json"
cmp "$out/report-resumed.json" "$out/report-resumed-clean.json"
curl -sf -X POST "$url/shutdown" >/dev/null
exits_within_10s "$SERVE_PID"
wait "$SERVE_PID"
trap - EXIT
