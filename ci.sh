#!/usr/bin/env bash
# Tier-1 gate + hermeticity guard.
#
# The workspace must build and test offline, with an empty registry
# cache, forever. Two guards keep it that way:
#   1. no Cargo.toml may name a dependency outside the stamp_* workspace;
#   2. no source file may import one of the excised external crates.
set -euo pipefail
cd "$(dirname "$0")"

fail=0

# --- Guard 1: manifests are workspace-only -------------------------------
# Collect dependency names from every [dependencies]/[dev-dependencies]/
# [build-dependencies] section of every manifest.
for manifest in Cargo.toml crates/*/Cargo.toml; do
    deps=$(awk '
        /^\[/ { in_deps = ($0 ~ /^\[(workspace\.)?(dev-|build-)?dependencies/) }
        in_deps && /^[[:space:]]*[A-Za-z0-9_-]+[[:space:]]*=/ {
            name = $1; sub(/[[:space:]]*=.*/, "", name); print name
        }
    ' "$manifest")
    for dep in $deps; do
        case "$dep" in
            stamp_*) ;;
            *)
                echo "HERMETICITY VIOLATION: $manifest names external dependency '$dep'" >&2
                fail=1
                ;;
        esac
    done
done

# --- Guard 2: no imports of the excised crates ---------------------------
if grep -rEn "use (rand|serde|bytes|parking_lot|criterion|proptest)(::|;)|(^|[^a-z_])crossbeam::" \
        --include='*.rs' crates src tests examples; then
    echo "HERMETICITY VIOLATION: source imports an excised external crate" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "hermeticity guards passed"

# --- simlint: determinism & hot-path lints -------------------------------
# The in-repo lint engine (crates/simlint): zero findings at Deny severity
# across the simulation crates, or the build stops here. See DESIGN.md §11
# for the rule catalog and the suppression syntax.
cargo run --release --offline -q -p simlint
echo "simlint passed (no deny findings)"

# --- Formatting ----------------------------------------------------------
cargo fmt --check
echo "formatting check passed"

# --- Lints ---------------------------------------------------------------
cargo clippy --offline --workspace --all-targets -- -D warnings
echo "clippy passed (workspace, all targets, -D warnings)"

# --- Tier-1 gate, strictly offline ---------------------------------------
cargo build --release --offline
cargo build --examples --offline
cargo build --benches --offline
cargo test -q --offline
# The crate-level doctest is the sim-facade quickstart — a gate of its own.
cargo test --doc --offline
echo "tier-1 gate passed (offline, incl. doctests)"

# --- perfbench: builds and unit-tests against the current API -------------
# perfbench/ is a package and workspace of its own that drives the crates
# through their public functions (Sim::{checkpoint, restore},
# populate_baselines, run_campaign_with_cache, ...). Building and testing it
# here makes a break of that API stop CI instead of the next benchmark run.
cargo test -q --offline --manifest-path perfbench/Cargo.toml
echo "perfbench build + unit tests passed (offline)"

# --- Policy DSL round-trip gate -------------------------------------------
# Every built-in regime must print a canonical .pol document that parses
# back to the same value and re-prints byte-identically, compile to dense
# tables, and keep a distinct fingerprint; malformed documents must come
# back as typed errors. The binary exits non-zero on any violation.
cargo run --release --offline -q -p stamp_bench --bin polcheck
echo "policy .pol round-trip gate passed"

# --- Golden table gate -----------------------------------------------------
# Every grid of the golden table (`GOLDENS` in
# crates/workload/src/goldens.rs: smoke, adversarial, campaign at 500
# ASes, campaign_2000, and the policy sweep under each built-in regime),
# each run cold at 1 worker, cold at N workers and warm (every cell forked
# from a cached converged baseline, a frozen `Sim`). The binary asserts the
# three passes hash identically and that each aggregate equals its table
# entry, and exits non-zero naming the grid, the golden and the hash it got
# on the first mismatch — so a fork that misses some state and shifts
# results stops CI even if it shifts them *consistently*. Naming the
# default regime (`--policy gao-rexford`) must be a no-op: the run is the
# pinned default. `--check` leaves BENCH_campaign.json untouched.
cargo run --release --offline -q -p stamp_bench --bin campaign -- --policy gao-rexford --check
echo "golden table gate passed (every GOLDENS entry, release)"

# --- Divergence watchdog gate ---------------------------------------------
# A known-diverging configuration (Griffin's BAD GADGET under the
# naive-prefer-peer regime) must terminate with a *typed* Diverged outcome
# in bounded sim time: the binary exits non-zero if the run converges,
# exhausts its budget, or reaches the sim-time deadline — i.e. if the
# convergence watchdog ever stops turning divergence into data.
div_out=$(cargo run --release --offline -q -p stamp_bench --bin divergence)
case "$div_out" in
    *Diverged*) ;;
    *)
        echo "WATCHDOG VIOLATION: divergence gate output lacked a Diverged report: $div_out" >&2
        exit 1
        ;;
esac
echo "divergence watchdog gate passed (typed Diverged in bounded sim time)"

# --- queryd daemon smoke gate ---------------------------------------------
# Launch the resident what-if daemon on the smoke topology, pipe the
# scripted transcript through it, and require the response stream to match
# the golden byte for byte — exercising startup convergence, every query
# verb, typed refusals, and clean shutdown on EOF/QUIT in one shot.
queryd_out=$(cargo run --release --offline -q -p stamp_queryd -- --smoke \
    < crates/queryd/transcripts/smoke.in)
if ! diff <(printf '%s\n' "$queryd_out") crates/queryd/transcripts/smoke.golden; then
    echo "QUERYD VIOLATION: daemon transcript diverged from crates/queryd/transcripts/smoke.golden" >&2
    exit 1
fi
echo "queryd daemon smoke gate passed (golden transcript byte-identical)"

# --- Debug-vs-release determinism cross-check ----------------------------
# The smoke grid must hash to the same golden under the debug profile: a
# divergence means results depend on debug_assertions-gated code, an
# overflow that release wraps silently, or float evaluation differences —
# all determinism bugs. `--smoke` asserts the table's `smoke` entry, the
# one the release gate above and tests/determinism.rs check too.
cargo run --offline -q -p stamp_bench --bin campaign -- --smoke
echo "debug-vs-release determinism cross-check passed (smoke golden, debug)"
