//! Per-thread CPU time from `/proc/self/task/*/schedstat`.
//!
//! The live workloads attribute CPU to the runtime's threads by name
//! (`tw-node-*` executors, `udp-rx-*` receivers), leaving out the load
//! generator. Where the files do not exist (no procfs, no schedstats in
//! the kernel) the reader returns `None` and the CPU metrics are left
//! out of the report instead of reading as zero.

use std::path::Path;

/// On-CPU nanoseconds of one thread, with its name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadCpu {
    pub name: String,
    pub on_cpu_ns: u64,
}

/// Read every thread under `task_dir` (normally `/proc/self/task`).
/// `None` when the directory or every schedstat file is unreadable.
pub fn read_threads(task_dir: &Path) -> Option<Vec<ThreadCpu>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(task_dir).ok()? {
        let Ok(entry) = entry else { continue };
        let dir = entry.path();
        // A thread may exit between readdir and read: skip it.
        let Ok(stat) = std::fs::read_to_string(dir.join("schedstat")) else {
            continue;
        };
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        let Some(on_cpu_ns) = stat.split_whitespace().next().and_then(|f| f.parse().ok()) else {
            continue;
        };
        out.push(ThreadCpu {
            name: comm.trim_end().to_string(),
            on_cpu_ns,
        });
    }
    (!out.is_empty()).then_some(out)
}

/// Total on-CPU nanoseconds of the threads whose name starts with
/// `prefix`.
pub fn cpu_ns_of(threads: &[ThreadCpu], prefix: &str) -> u64 {
    threads
        .iter()
        .filter(|t| t.name.starts_with(prefix))
        .map(|t| t.on_cpu_ns)
        .sum()
}

/// Executor and receiver CPU of this process right now: `(node, rx)`.
pub fn runtime_cpu_ns() -> Option<(u64, u64)> {
    let threads = read_threads(Path::new("/proc/self/task"))?;
    Some((
        cpu_ns_of(&threads, "tw-node-"),
        cpu_ns_of(&threads, "udp-rx-"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fake_thread(root: &Path, tid: u32, comm: &str, schedstat: Option<&str>) {
        let d = root.join(tid.to_string());
        std::fs::create_dir_all(&d).unwrap();
        std::fs::write(d.join("comm"), format!("{comm}\n")).unwrap();
        if let Some(s) = schedstat {
            std::fs::write(d.join("schedstat"), s).unwrap();
        }
    }

    #[test]
    fn absent_directory_gives_none_not_zero() {
        assert_eq!(read_threads(Path::new("/nonexistent/task")), None);
    }

    #[test]
    fn absent_schedstat_files_give_none() {
        let root = scratch("nostat");
        fake_thread(&root, 1, "tw-node-p0", None);
        assert_eq!(read_threads(&root), None);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn sums_by_thread_name_prefix() {
        let root = scratch("sum");
        fake_thread(&root, 1, "tw-benchmark", Some("900 5 3\n"));
        fake_thread(&root, 2, "tw-node-p0", Some("100 5 3\n"));
        fake_thread(&root, 3, "tw-node-p1", Some("250 0 1\n"));
        fake_thread(&root, 4, "udp-rx-p0", Some("40 0 1\n"));
        fake_thread(&root, 5, "udp-rx-p1", Some("garbage\n"));
        let threads = read_threads(&root).unwrap();
        assert_eq!(threads.len(), 4);
        assert_eq!(cpu_ns_of(&threads, "tw-node-"), 350);
        assert_eq!(cpu_ns_of(&threads, "udp-rx-"), 40);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn live_procfs_reports_this_thread_when_present() {
        // On Linux with schedstats this finds at least the test thread;
        // elsewhere the reader must say None, which is also accepted.
        if let Some(threads) = read_threads(Path::new("/proc/self/task")) {
            assert!(!threads.is_empty());
        }
    }
}
