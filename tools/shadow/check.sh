#!/usr/bin/env bash
# Offline verification harness for the protocol crates.
#
# The dev container has no crates.io access, so the real workspace (which
# pulls rand/bytes/serde/... from the registry) cannot build there. This
# script copies the protocol, observability, runtime and RSM crates, the
# experiment harness (tw-bench) and the root facade's suites and examples
# into tools/shadow/build/, rewrites their manifests against the
# API-compatible stub crates in tools/shadow/stubs/ (including crossbeam
# channels and parking_lot mutexes for the threaded executors), and runs
# `cargo check` + their tests fully offline. CI and any networked checkout
# still use the real dependencies; nothing under tools/shadow participates
# in the real build.
#
# Usage: tools/shadow/check.sh [extra cargo test args]

set -euo pipefail

repo="$(cd "$(dirname "$0")/../.." && pwd)"
build="$repo/tools/shadow/build"
stubs="../../stubs" # relative to each copied crate

rm -rf "$build"
mkdir -p "$build"

# Keep compiled artifacts across runs (the build tree itself is wiped
# and re-copied each time, so a cached target dir only skips rebuilding
# crates whose sources are unchanged).
export CARGO_TARGET_DIR="$repo/tools/shadow/target-cache"

copy_crate() {
  local name="$1"
  mkdir -p "$build/$name"
  # -p keeps mtimes so the cached CARGO_TARGET_DIR stays valid for
  # crates whose sources did not change between runs.
  cp -rp "$repo/crates/$name/src" "$build/$name/src"
  # Integration tests ride along except the proptest-based ones (proptest
  # cannot be stubbed meaningfully).
  if [ -d "$repo/crates/$name/tests" ]; then
    mkdir -p "$build/$name/tests"
    find "$repo/crates/$name/tests" -maxdepth 1 -name '*.rs' ! -name 'prop_*.rs' \
      -exec cp -p {} "$build/$name/tests/" \;
  fi
}

copy_crate proto
copy_bench() {
  # tw-bench: the library and every experiment binary except the three
  # that build their output with serde_json::json! (not stubbed) — those
  # stay CI-only.
  copy_crate bench
  rm "$build"/bench/src/bin/{exp_obs_baseline,exp_obs_recorder,rec_crash_run}.rs
}
copy_bench
copy_facade() {
  # The root facade crate: its simulator suites and every example. Only
  # tests/properties.rs (proptest) stays CI-only.
  mkdir -p "$build/facade/tests"
  cp -rp "$repo/src" "$repo/examples" "$build/facade/"
  cp -p "$repo"/tests/{membership,broadcast,soak}.rs "$build/facade/tests/"
}
copy_facade
copy_crate obs
copy_crate clock
copy_crate sim
copy_crate core
copy_crate runtime
copy_crate rsm
copy_crate xtask

cat > "$build/xtask/Cargo.toml" <<EOF
[package]
name = "xtask"
version = "0.1.0"
edition = "2021"

[dependencies]

[lib]
path = "src/lib.rs"

[[bin]]
name = "xtask"
path = "src/main.rs"
EOF

cat > "$build/proto/Cargo.toml" <<EOF
[package]
name = "tw-proto"
version = "0.1.0"
edition = "2021"

[dependencies]
bytes = { path = "$stubs/bytes" }
serde = { path = "$stubs/serde", features = ["derive"] }
EOF

cat > "$build/obs/Cargo.toml" <<EOF
[package]
name = "tw-obs"
version = "0.1.0"
edition = "2021"

[dependencies]
tw-proto = { path = "../proto" }
bytes = { path = "$stubs/bytes" }
EOF

cat > "$build/clock/Cargo.toml" <<EOF
[package]
name = "tw-clock"
version = "0.1.0"
edition = "2021"

[dependencies]
tw-proto = { path = "../proto" }
serde = { path = "$stubs/serde", features = ["derive"] }
EOF

cat > "$build/sim/Cargo.toml" <<EOF
[package]
name = "tw-sim"
version = "0.1.0"
edition = "2021"

[dependencies]
tw-proto = { path = "../proto" }
tw-obs = { path = "../obs" }
rand = { path = "$stubs/rand" }
serde = { path = "$stubs/serde", features = ["derive"] }
EOF

cat > "$build/core/Cargo.toml" <<EOF
[package]
name = "timewheel"
version = "0.1.0"
edition = "2021"

[dependencies]
tw-proto = { path = "../proto" }
tw-obs = { path = "../obs" }
tw-clock = { path = "../clock" }
tw-sim = { path = "../sim" }
bytes = { path = "$stubs/bytes" }
serde = { path = "$stubs/serde", features = ["derive"] }
rand = { path = "$stubs/rand" }
EOF

cat > "$build/runtime/Cargo.toml" <<EOF
[package]
name = "tw-runtime"
version = "0.1.0"
edition = "2021"

[dependencies]
timewheel = { path = "../core" }
tw-proto = { path = "../proto" }
tw-obs = { path = "../obs" }
bytes = { path = "$stubs/bytes" }
crossbeam = { path = "$stubs/crossbeam" }
parking_lot = { path = "$stubs/parking_lot" }

[target.'cfg(loom)'.dependencies]
loom = { path = "$stubs/loom" }

[lints.rust]
unexpected_cfgs = { level = "warn", check-cfg = ["cfg(loom)"] }
EOF

cat > "$build/rsm/Cargo.toml" <<EOF
[package]
name = "tw-rsm"
version = "0.1.0"
edition = "2021"

[dependencies]
timewheel = { path = "../core" }
tw-proto = { path = "../proto" }
tw-sim = { path = "../sim" }
tw-runtime = { path = "../runtime" }
bytes = { path = "$stubs/bytes" }
parking_lot = { path = "$stubs/parking_lot" }
crossbeam = { path = "$stubs/crossbeam" }
serde = { path = "$stubs/serde", features = ["derive"] }
EOF

cat > "$build/bench/Cargo.toml" <<EOF
[package]
name = "tw-bench"
version = "0.1.0"
edition = "2021"

[dependencies]
timewheel = { path = "../core" }
tw-proto = { path = "../proto" }
tw-obs = { path = "../obs" }
tw-sim = { path = "../sim" }
tw-runtime = { path = "../runtime" }
bytes = { path = "$stubs/bytes" }
EOF

cat > "$build/facade/Cargo.toml" <<EOF
[package]
name = "timewheel-repro"
version = "0.1.0"
edition = "2021"

[dependencies]
timewheel = { path = "../core" }
tw-proto = { path = "../proto" }
tw-clock = { path = "../clock" }
tw-sim = { path = "../sim" }
tw-runtime = { path = "../runtime" }
tw-rsm = { path = "../rsm" }
bytes = { path = "$stubs/bytes" }
EOF

cat > "$build/Cargo.toml" <<EOF
[workspace]
resolver = "2"
members = ["proto", "obs", "clock", "sim", "core", "runtime", "rsm", "xtask", "bench", "facade"]
EOF

cd "$build"
# The shadow copy lives outside the repo layout, so point the lint (and
# its workspace-lints-clean test) back at the real sources.
export TW_XTASK_ROOT="$repo"
cargo check --offline --workspace --all-targets

# The real-time cluster suites (cluster.rs, chaos_cluster.rs,
# ops_cluster.rs) spawn actual node threads and wait on wall-clock
# protocol deadlines; they run in release mode below, mirroring CI, so
# keep them out of this debug-mode workspace pass.
rm -f runtime/tests/cluster.rs runtime/tests/chaos_cluster.rs runtime/tests/ops_cluster.rs
# The soak suite compiles here but is not run: its liveness floors are
# tuned to the real `rand` stream, and under the stub generator the same
# seed is a different fault schedule (p1 delivers 45 < 80 — also at the
# commit that first compiled it offline). CI runs it.
cargo test --offline --workspace "$@" -- --skip "cluster::tests::" \
  --skip two_minute_adversarial_soak_converges_clean

# The end-to-end benchmark is its own package over the real crates (not
# the copies above), built against the same stubs through
# [patch.crates-io]. Nothing else builds it, so an API change under
# crates/ would break it unseen: run its tests, run one short workload,
# and check the build did not rewrite anything it tracks (its lock file).
cargo test --offline --manifest-path "$repo/benchmark/Cargo.toml"
cargo run --release --offline --quiet --manifest-path "$repo/benchmark/Cargo.toml" -- \
  --workload ladder_weak --seconds 1 --trace 0
if ! git -C "$repo" diff --quiet -- benchmark; then
  echo "benchmark/: building it rewrote a tracked file (Cargo.lock?)" >&2
  exit 1
fi

# Real-time cluster suites, release mode as on CI. These were
# unrunnable offline while the `select!` stub slept between polls (on
# one vCPU the coarse sleep timer stretched every message hop to
# milliseconds and clusters never formed); the stub now blocks on the
# hot channel, so groups form in milliseconds and the full suites pass
# here.
cp -p "$repo/crates/runtime/tests/cluster.rs" \
      "$repo/crates/runtime/tests/chaos_cluster.rs" \
      "$repo/crates/runtime/tests/ops_cluster.rs" runtime/tests/
cargo test --offline --release -p tw-runtime \
  --test cluster --test chaos_cluster --test ops_cluster

# Concurrency static analysis over the real sources (TW_XTASK_ROOT above):
# the lock-order, blocking-call and unsafe-surface rules must report the
# workspace clean, mirroring CI's concurrency-analysis job.
cargo run --offline -q -p xtask --bin xtask -- lint-concurrency

# Loom model tests. Offline this is a smoke run — the loom stub executes
# each model body once under the OS schedule; networked CI substitutes
# the real crate and explores every interleaving. RUSTFLAGS differ from
# the main build, so a separate target cache keeps both incremental.
CARGO_TARGET_DIR="$repo/tools/shadow/target-cache/loom" \
  RUSTFLAGS="--cfg loom" \
  cargo test --offline -p tw-runtime --test loom

# The tw-trace analyzer CLI must build and run offline (its end-to-end
# behaviour is covered by core's recorder_analyze test above; this
# exercises the binary itself: usage text, and exit 2 on unreadable
# input).
cargo run --offline -q -p tw-obs --bin tw-trace -- --help
if cargo run --offline -q -p tw-obs --bin tw-trace -- /nonexistent.twrec 2>/dev/null; then
  echo "tw-trace: expected exit 2 on unreadable input" >&2
  exit 1
fi

# The live-telemetry plane probe runs a real cluster at a smoke-sized
# update count — its numbers are meaningless on one vCPU and nothing
# compares them; the point is that flood, ops scrape, live tail and JSON
# emission all work end to end.
cargo run --offline -q --release -p tw-bench --bin exp_obs_live -- \
  --updates 2000 --out "$build"/shadow-obs-live.json

# T7 hosts the same load on both executors through the one shared
# dispatch path and reads both `dispatch_latency_us` histograms. Like the
# probe above its numbers mean little on one vCPU (both executors are
# bimodal here); the point is that it runs end to end.
cargo run --offline -q --release -p tw-bench --bin exp_t7_event_vs_thread
