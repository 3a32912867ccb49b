#!/usr/bin/env bash
# Full verification: runs every CI job's script under scripts/verify/, in
# CI's order. Each script is one job of .github/workflows/ci.yml, which
# runs it and holds no command of its own, so every check exists once:
#   check.sh     fmt, clippy, rustdoc, the release build and tier-1 tests
#   bench.sh     perfbench build + tests, its sampled smoke, throughput gate
#   campaign.sh  every tage-bench grid with its gates, --paper vs RESULTS.md
#   service.sh   the tage-serve daemon smoke
# Each script also runs alone and needs no other script's output. Keep
# this green before every commit.
set -euo pipefail
cd "$(dirname "$0")/verify"
for job in check bench campaign service; do
  "./$job.sh"
done
echo "verify: OK"
