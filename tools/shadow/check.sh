#!/usr/bin/env bash
# Every check that needs no registry, run on the tree as committed: the
# root Cargo.toml patches its six external crates onto the in-tree
# implementations in tools/shadow/stubs/ and both lock files are
# committed, so this is the same build with or without a network. CI's
# `test` job runs this file.

set -euo pipefail
cd "$(dirname "$0")/../.."
export CARGO_NET_OFFLINE=true

# Tier-1 (ROADMAP.md). The one test it leaves out is known to fail and
# runs as the last step, so that it cannot end the script early.
cargo build --locked --release
cargo test --locked -q -- --skip two_minute_adversarial_soak_converges_clean

# The pinned delivery histories again, optimised. Debug builds assert
# core's compact state against the full-history structures it replaced
# (delivered set, never-pruned ordinals, full-window sync); release
# builds carry none of them, so this is where the build that ships has
# to reproduce the pins on its own.
cargo test --locked --release -q -p timewheel \
  --test frontier_differential --test rejoin_total_order

# The real-time cluster suites again, optimised: their deadlines are
# wall-clock, and release is what the experiments and CI's chaos job run.
# backpressure runs in release only (debug builds check core against
# O(window) scans): 60 000 proposals queued at once on a UDP cluster
# must all deliver with no view change and no refused decision.
# chaos_cluster's crash/restart test misses its envelope about 3 runs in
# 7 on two vCPUs; re-run.
cargo test --locked --release -p tw-runtime \
  --test cluster --test chaos_cluster --test ops_cluster --test backpressure

# Determinism and concurrency lints over crates/.
cargo --locked xtask lint --all

# The schedule explorer is a release build, so on its own it never runs
# the cursor-vs-scan assertions of try_deliver / maybe_nack. Explore the
# standard scenarios with them compiled in (same schedule counts as
# without: 111039 / 28 / 72). RUSTFLAGS differ from the main build, so a
# target dir of its own keeps both incremental.
RUSTFLAGS="-C debug-assertions=on" CARGO_TARGET_DIR=target/explore-checked \
  cargo --locked xtask explore --members 3 --faults 1

# Loom models. The in-tree loom runs each model body once under the OS
# schedule; CI's concurrency-analysis job swaps in the published crate,
# which explores every interleaving. Own target dir, as above.
CARGO_TARGET_DIR=target/loom RUSTFLAGS="--cfg loom" \
  cargo test --locked -p tw-runtime --test loom

# benchmark/ is a package of its own over the same crates and the same
# patch table; nothing above builds it, so an API change under crates/
# would break it unseen. Its tests, one short workload, and a check that
# building it rewrote nothing it tracks (its lock file).
cargo test --locked --manifest-path benchmark/Cargo.toml
cargo run --locked --release --quiet --manifest-path benchmark/Cargo.toml -- \
  --workload ladder_weak --seconds 1 --trace 0
if ! git diff --quiet -- benchmark; then
  echo "benchmark/: building it rewrote a tracked file (Cargo.lock?)" >&2
  exit 1
fi

# The binaries end to end. tw-trace: usage text, exit 2 on unreadable
# input (core's recorder_analyze test covers the analysis itself).
# experiments: one row passes its claim, an unknown ID exits 2 (tier-1
# already ran every row against EXPERIMENTS.md, in debug).
# exp_obs_live and T7 run live clusters at smoke size: their numbers
# mean little here and nothing compares them; the point is that flood,
# ops scrape, live tail, both executors and JSON emission all work.
cargo run --locked -q -p tw-obs --bin tw-trace -- --help
if cargo run --locked -q -p tw-obs --bin tw-trace -- /nonexistent.twrec 2>/dev/null; then
  echo "tw-trace: expected exit 2 on unreadable input" >&2
  exit 1
fi
cargo run --locked -q --release -p tw-bench --bin experiments -- FIG2 >/dev/null
status=0
cargo run --locked -q --release -p tw-bench --bin experiments -- NOPE 2>/dev/null || status=$?
if [ "$status" -ne 2 ]; then
  echo "experiments: expected exit 2 on an unknown ID, got $status" >&2
  exit 1
fi
cargo run --locked -q --release -p tw-bench --bin exp_obs_live -- \
  --updates 2000 --out target/obs-live-smoke.json
cargo run --locked -q --release -p tw-bench --bin exp_t7_event_vs_thread

# Known failing: ROADMAP 1 (see the header of tests/soak.rs). It runs and
# reports; it does not decide this script's exit status. Once it passes,
# delete this step and the --skip above.
cargo test --locked -q -p timewheel-repro --test soak ||
  echo "known failing: ROADMAP 1 — tests/soak.rs, 156 ordinal-prefix findings at assert_all; behind them, rejoined p1 delivers 45 of 600 (floor 80)" >&2
