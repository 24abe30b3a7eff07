#!/bin/sh
# Repeatability check: the whole untraced set twice on one commit and seed,
# every end-to-end metric's change printed beside its bound (non-zero exit on
# a breach), then seed 8 once to show the exact metrics keep their shape.
set -e
cd "$(dirname "$0")/.."
run="cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --"
$run --all --repeat 2 --seed 7 "$@"
$run --all --seed 8 "$@"
