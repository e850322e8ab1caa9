//! A replicated key-value store — the full "dependable service by a team
//! of replicated servers" stack from the paper's introduction, on real
//! threads:
//!
//!   client command → timewheel atomic broadcast (total/strong)
//!     → every replica applies it in the same order
//!     → membership protocol masks crashes and re-integrates recoveries.
//!
//! Run with: `cargo run --example kv_store`

use std::time::Duration as StdDuration;
use timewheel::Config;
use tw_proto::Duration;
use tw_rsm::{spawn_rsm_cluster, KvCmd, KvResponse, KvStore};
use tw_runtime::ExecutorKind;

fn main() {
    let n = 3;
    let cfg = Config::for_team(n, Duration::from_millis(10));
    println!("starting a replicated KV store on {n} replicas…");
    let replicas = spawn_rsm_cluster(ExecutorKind::EventLoop, cfg, KvStore::new);
    for r in &replicas {
        assert!(r.wait_for_view(n, StdDuration::from_secs(20)));
    }
    println!("group formed; serving.");
    let to = StdDuration::from_secs(10);

    // Writes land at different replicas; reads see them from anywhere.
    let ops = [
        (
            0,
            KvCmd::Put {
                key: "user:1".into(),
                value: "ada".into(),
            },
        ),
        (
            1,
            KvCmd::Put {
                key: "user:2".into(),
                value: "edsger".into(),
            },
        ),
        (
            2,
            KvCmd::Get {
                key: "user:1".into(),
            },
        ),
        (
            0,
            KvCmd::Cas {
                key: "user:1".into(),
                expect: Some("ada".into()),
                new: "ada lovelace".into(),
            },
        ),
        (
            1,
            KvCmd::Get {
                key: "user:1".into(),
            },
        ),
        (
            2,
            KvCmd::Del {
                key: "user:2".into(),
            },
        ),
    ];
    for (replica, cmd) in ops {
        let resp = replicas[replica]
            .execute(cmd.to_bytes(), to)
            .expect("execute");
        let decoded = KvResponse::from_bytes(&resp).unwrap();
        println!("  replica {replica}: {cmd:?}\n    → {decoded:?}");
    }

    // Every replica holds the identical store.
    std::thread::sleep(StdDuration::from_millis(300));
    for (i, r) in replicas.iter().enumerate() {
        r.with_machine(|m| {
            println!(
                "replica {i}: {} keys, user:1 = {:?}, applied {} commands",
                m.machine().len(),
                m.machine().get("user:1"),
                m.applied()
            );
            assert_eq!(m.machine().get("user:1"), Some(&"ada lovelace".to_string()));
            assert_eq!(m.machine().get("user:2"), None);
        });
    }
    println!("all replicas identical — the service state is consistent.");
    for r in replicas {
        r.shutdown();
    }
}
