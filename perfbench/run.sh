#!/usr/bin/env bash
# Build the benchmark and the query daemon from source, then run it.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh compare BASE NEW
#
# Run from the root of the repository. Build output goes to
# $CARGO_TARGET_DIR (default .bench_build); spans of traced runs are
# written under it too.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml \
    -p perfbench -p stamp_queryd >&2
bin="$CARGO_TARGET_DIR/release"
if [ "${1:-}" = compare ]; then
    exec "$bin/perfbench" "$@"
fi
exec "$bin/perfbench" --queryd-bin "$bin/stamp_queryd" --out-dir "$CARGO_TARGET_DIR/perfbench" "$@"
