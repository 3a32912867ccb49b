#!/usr/bin/env bash
# CI job `check` (stable and beta): formatting, lints, rustdoc, the release
# build and the tier-1 tests.
set -euo pipefail
cd "$(dirname "$0")/../.."

echo "== ci.yml runs job scripts only =="
# Every command and gate lives once, in scripts/verify/. A command written
# into the workflow would be a second copy that drifts from this one.
if grep -nE 'cargo |cmp |curl |\./target/' .github/workflows/ci.yml |
  grep -vE '^[0-9]+:[[:space:]]*#'; then
  echo "ci.yml: the lines above hold commands; move them into a scripts/verify/ job script" >&2
  exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --no-deps (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== tier-1: cargo build --release && cargo test -q =="
cargo build --release
cargo test -q
