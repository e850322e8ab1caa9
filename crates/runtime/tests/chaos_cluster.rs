//! Real-time chaos tests: a live cluster under partitions and crashes
//! must exhibit the paper's guarantees — minority fail-awareness (§6),
//! majority progress (§4.2), rejoin via the §5 join path — and its
//! flight recordings must pass the offline cross-node audit
//! (view overlap, oal-prefix agreement, ε-causality).
//!
//! Like `cluster.rs`, these spawn real node threads against wall-clock
//! deadlines; `tools/shadow/check.sh` and CI also run them in release
//! mode.

use bytes::Bytes;
use std::time::{Duration as StdDuration, Instant};
use timewheel::Config;
use tw_obs::{analyze, Recording, TraceSet};
use tw_proto::{Duration, ProcessId, Semantics};
use tw_runtime::{ChaosCluster, ChaosOp, ClusterBuilder, ExecutorKind, RecorderSetup};

fn cfg(n: usize) -> Config {
    Config::for_team(n, Duration::from_millis(10))
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tw-chaos-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn form(cluster: &ChaosCluster, n: usize) {
    for rank in 0..n {
        let node = cluster.node(rank).expect("node running");
        assert!(
            node.wait_for_view(n, StdDuration::from_secs(30)).is_some(),
            "rank {rank} never saw the full view"
        );
    }
}

/// Poll `pred` every 25 ms until it holds or `secs` elapse.
fn wait_for(secs: u64, mut pred: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + StdDuration::from_secs(secs);
    while Instant::now() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(StdDuration::from_millis(25));
    }
    false
}

fn analysis_of(paths: &[std::path::PathBuf]) -> tw_obs::Analysis {
    let recordings: Vec<Recording> = paths
        .iter()
        .map(|p| Recording::load(p).expect("load recording"))
        .collect();
    analyze(&TraceSet::new(recordings).expect("trace set"))
}

#[test]
fn partitioned_minority_is_fail_aware_and_rejoins_after_heal() {
    let n = 5;
    let dir = scratch_dir("partition");
    let mut cluster = ClusterBuilder::new(cfg(n))
        .record(&RecorderSetup::new(&dir))
        .chaos(11)
        .expect("spawn recorded chaos cluster");
    form(&cluster, n);

    let minority = ProcessId(4);
    cluster.apply(
        &ChaosOp::Partition(vec![(0..4).map(ProcessId).collect(), vec![minority]]),
        0,
    );

    // §6 fail-awareness: the minority member itself notices — from its
    // own watchdog and clock, no oracle — that it is out of date.
    assert!(
        wait_for(10, || cluster
            .status(minority.rank())
            .is_some_and(|s| !s.up_to_date)),
        "minority member never reported out-of-date locally"
    );
    // §4.2 progress: the majority side keeps installing views — here,
    // the view that excludes the unreachable member.
    assert!(
        wait_for(10, || (0..4)
            .all(|r| cluster.status(r).is_some_and(|s| s.view_len == n - 1))),
        "majority never installed the minority-free view"
    );
    // Traffic in the majority view, so the oal advances while the
    // minority is away (exercises the oal-prefix cross-check).
    for k in 0..5 {
        if let Some(node) = cluster.node(k % 4) {
            node.propose(Bytes::from(format!("during-{k}")), Semantics::TOTAL_STRONG);
        }
        std::thread::sleep(StdDuration::from_millis(30));
    }

    cluster.apply(&ChaosOp::HealAll, 1);

    // The healed minority member finds itself excluded and rejoins via
    // the §5 join path; everyone converges back to the full view.
    assert!(
        wait_for(30, || (0..n).all(|r| cluster
            .status(r)
            .is_some_and(|s| s.up_to_date && s.view_len == n))),
        "cluster never reconverged to the full view after heal"
    );

    cluster.flush_recorders();
    let paths = cluster.recording_paths();
    cluster.shutdown();

    let a = analysis_of(&paths);
    assert!(
        a.audits_clean(),
        "offline audit must be clean (incl. oal-prefix): {:?} {:?}",
        a.audit,
        a.cross
    );
    assert!(a.faults.contains_key("cut-link"), "faults: {:?}", a.faults);
    assert!(a.faults.contains_key("heal-link"), "faults: {:?}", a.faults);
}

#[test]
fn crashed_node_restarts_as_fresh_incarnation_and_rejoins() {
    let n = 5;
    let dir = scratch_dir("crash");
    let config = cfg(n);
    let mut cluster = ClusterBuilder::new(config)
        .executor(ExecutorKind::Threaded)
        .record(&RecorderSetup::new(&dir))
        .chaos(12)
        .expect("spawn recorded chaos cluster");
    form(&cluster, n);

    let victim = ProcessId(2);
    cluster.apply(&ChaosOp::Crash(victim), 0);
    assert!(cluster.node(victim.rank()).is_none(), "victim must be down");

    // Survivors reconfigure to a 4-member view.
    let survivors: Vec<usize> = (0..n).filter(|&r| r != victim.rank()).collect();
    assert!(
        wait_for(15, || survivors
            .iter()
            .all(|&r| cluster.status(r).is_some_and(|s| s.view_len == n - 1))),
        "survivors never removed the crashed node"
    );

    cluster.apply(&ChaosOp::Restart(victim), 1);
    assert_eq!(cluster.incarnation(victim.rank()), 1, "fresh incarnation");

    assert!(
        wait_for(30, || (0..n).all(|r| cluster
            .status(r)
            .is_some_and(|s| s.up_to_date && s.view_len == n))),
        "restarted node never rejoined the full view"
    );

    cluster.flush_recorders();
    let paths = cluster.recording_paths();
    cluster.shutdown();

    let a = analysis_of(&paths);
    assert!(
        a.audits_clean(),
        "offline audit must be clean: {:?} {:?}",
        a.audit,
        a.cross
    );
    assert!(a.faults.contains_key("crash"), "faults: {:?}", a.faults);
    assert!(a.faults.contains_key("restart"), "faults: {:?}", a.faults);
    // §4.2: the survivors' recovery (suspicion → last install of the
    // victim-free view) fits the analytic envelope; 2× allows for CI
    // scheduler noise on the wall-clock measurement.
    let completed: Vec<_> = a.recoveries.iter().filter_map(|r| r.total()).collect();
    assert!(
        !completed.is_empty(),
        "the crash must produce a completed recovery span"
    );
    let allowed = config.recovery_envelope() * 2;
    for t in completed {
        assert!(
            t <= allowed,
            "recovery took {} us, envelope×2 is {} us",
            t.as_micros(),
            allowed.as_micros()
        );
    }
}
