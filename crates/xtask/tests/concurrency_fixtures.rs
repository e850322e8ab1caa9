//! The concurrency lint must (a) catch each rule on a deliberately
//! broken fixture, (b) stay silent on the sanctioned shapes those
//! fixtures imitate, (c) respect justified allows, and (d) pass on the
//! real workspace — the acceptance gate CI runs.

use std::path::{Path, PathBuf};
use xtask::concurrency::{lint_files, lint_workspace};
use xtask::lint::{repo_root, Finding};

fn lint_one(src: &str) -> Vec<Finding> {
    lint_files(vec![(PathBuf::from("fixture.rs"), src.to_string())])
}

fn rules_hit(src: &str) -> Vec<String> {
    let mut r: Vec<String> = lint_one(src).into_iter().map(|f| f.rule).collect();
    r.sort();
    r.dedup();
    r
}

// -------------------------------------------------------------------
// double-lock
// -------------------------------------------------------------------

#[test]
fn double_acquisition_of_one_lock_is_flagged() {
    let src = r#"
        fn bad(m: &Mutex<u32>) {
            let a = m.lock().unwrap();
            let b = m.lock().unwrap();
        }
    "#;
    let f = lint_one(src);
    assert_eq!(rules_hit(src), ["double-lock"], "{f:?}");
    assert_eq!(f[0].line, 4, "{f:?}");
}

#[test]
fn reacquisition_after_drop_is_fine() {
    let src = r#"
        fn ok(m: &Mutex<u32>) {
            let a = m.lock().unwrap();
            drop(a);
            let b = m.lock().unwrap();
        }
    "#;
    assert_eq!(lint_one(src), Vec::new());
}

#[test]
fn reacquisition_after_scope_end_is_fine() {
    let src = r#"
        fn ok(m: &Mutex<u32>) {
            {
                let a = m.lock().unwrap();
            }
            let b = m.lock().unwrap();
        }
    "#;
    assert_eq!(lint_one(src), Vec::new());
}

#[test]
fn double_lock_through_a_call_is_flagged() {
    let src = r#"
        struct S { state: Mutex<u32> }
        impl S {
            fn outer(&self) {
                let g = self.state.lock().unwrap();
                self.helper_step();
            }
            fn helper_step(&self) {
                let g = self.state.lock().unwrap();
            }
        }
    "#;
    let f = lint_one(src);
    assert!(
        f.iter().any(|f| f.rule == "double-lock" && f.line == 6),
        "the call site is the finding: {f:?}"
    );
}

// -------------------------------------------------------------------
// lock-order
// -------------------------------------------------------------------

#[test]
fn seeded_deadlock_cycle_is_caught() {
    let src = r#"
        fn path_one(a: &Mutex<u32>, b: &Mutex<u32>) {
            let ga = lock_a.lock().unwrap();
            let gb = lock_b.lock().unwrap();
        }
        fn path_two(a: &Mutex<u32>, b: &Mutex<u32>) {
            let gb = lock_b.lock().unwrap();
            let ga = lock_a.lock().unwrap();
        }
    "#;
    let f = lint_one(src);
    let cycle: Vec<&Finding> = f.iter().filter(|f| f.rule == "lock-order").collect();
    assert_eq!(cycle.len(), 2, "both edges of the cycle report: {f:?}");
}

#[test]
fn consistent_lock_order_is_fine() {
    let src = r#"
        fn path_one() {
            let ga = lock_a.lock().unwrap();
            let gb = lock_b.lock().unwrap();
        }
        fn path_two() {
            let ga = lock_a.lock().unwrap();
            let gb = lock_b.lock().unwrap();
        }
    "#;
    assert_eq!(lint_one(src), Vec::new());
}

#[test]
fn three_lock_cycle_across_functions_is_caught() {
    let src = r#"
        fn f1() { let a = la.lock().unwrap(); let b = lb.lock().unwrap(); }
        fn f2() { let b = lb.lock().unwrap(); let c = lc.lock().unwrap(); }
        fn f3() { let c = lc.lock().unwrap(); let a = la.lock().unwrap(); }
    "#;
    let f = lint_one(src);
    assert_eq!(
        f.iter().filter(|f| f.rule == "lock-order").count(),
        3,
        "every edge of the a→b→c→a cycle reports: {f:?}"
    );
}

// -------------------------------------------------------------------
// blocking-under-lock
// -------------------------------------------------------------------

#[test]
fn sleep_under_lock_is_flagged() {
    let src = r#"
        fn bad(m: &Mutex<u32>) {
            let g = m.lock().unwrap();
            std::thread::sleep(Duration::from_millis(50));
        }
    "#;
    assert_eq!(rules_hit(src), ["blocking-under-lock"]);
}

#[test]
fn sleep_after_guard_drop_is_fine() {
    let src = r#"
        fn ok(m: &Mutex<u32>) {
            let g = m.lock().unwrap();
            drop(g);
            std::thread::sleep(Duration::from_millis(50));
        }
    "#;
    assert_eq!(lint_one(src), Vec::new());
}

/// The shape of the real finding this lint surfaced in `ChaosNet::drop`:
/// an `if let` scrutinee's guard temporary lives across the body
/// (edition 2021 temporary-scope rules), so the join blocks under the
/// lock even though no guard is named.
#[test]
fn guard_temporary_in_if_let_scrutinee_spans_the_body() {
    let src = r#"
        struct S { worker: Mutex<Option<JoinHandle<()>>> }
        impl S {
            fn stop(&self) {
                if let Some(h) = self.worker.lock().unwrap().take() {
                    let _ = h.join();
                }
            }
        }
    "#;
    let f = lint_one(src);
    assert_eq!(rules_hit(src), ["blocking-under-lock"], "{f:?}");
    assert!(f[0].message.contains("S::worker"), "{f:?}");
}

/// …and the fix shape: hoisting the take into its own statement ends
/// the temporary at the semicolon.
#[test]
fn hoisted_take_then_join_is_fine() {
    let src = r#"
        struct S { worker: Mutex<Option<JoinHandle<()>>> }
        impl S {
            fn stop(&self) {
                let handle = self.worker.lock().unwrap().take();
                if let Some(h) = handle {
                    let _ = h.join();
                }
            }
        }
    "#;
    assert_eq!(lint_one(src), Vec::new());
}

#[test]
fn unbounded_recv_and_file_io_under_lock_are_flagged() {
    let recv = r#"
        fn bad(m: &Mutex<u32>, rx: &Receiver<u32>) {
            let g = m.lock().unwrap();
            let v = rx.recv().unwrap();
        }
    "#;
    assert_eq!(rules_hit(recv), ["blocking-under-lock"]);
    let io = r#"
        fn bad(m: &Mutex<State>) {
            let g = m.lock().unwrap();
            g.writer.write_all(&buf).unwrap();
        }
    "#;
    assert_eq!(rules_hit(io), ["blocking-under-lock"]);
}

#[test]
fn bounded_recv_timeout_under_lock_is_still_flagged() {
    let src = r#"
        fn bad(m: &Mutex<u32>, rx: &Receiver<u32>) {
            let g = m.lock().unwrap();
            let v = rx.recv_timeout(Duration::from_millis(20));
        }
    "#;
    assert_eq!(rules_hit(src), ["blocking-under-lock"]);
}

/// The condvar idiom hands its own guard to the wait — that guard is
/// released for the duration, so it must not count as held.
#[test]
fn condvar_wait_on_its_own_guard_is_fine() {
    let src = r#"
        struct Gate { paused: Mutex<bool>, cv: Condvar }
        impl Gate {
            fn block_while_paused(&self) {
                let mut paused = self.paused.lock().unwrap();
                while *paused {
                    paused = self.cv.wait_timeout(paused, TICK).unwrap().0;
                }
            }
        }
    "#;
    assert_eq!(lint_one(src), Vec::new());
}

/// …but waiting on a condvar while holding a *different* lock is real.
#[test]
fn condvar_wait_under_another_lock_is_flagged() {
    let src = r#"
        struct S { a: Mutex<u32>, b: Mutex<u32>, cv: Condvar }
        impl S {
            fn bad(&self) {
                let ga = self.a.lock().unwrap();
                let gb = self.b.lock().unwrap();
                let gb = self.cv.wait(gb).unwrap();
            }
        }
    "#;
    let f = lint_one(src);
    assert!(
        f.iter()
            .any(|f| f.rule == "blocking-under-lock" && f.message.contains("S::a")),
        "{f:?}"
    );
}

#[test]
fn blocking_through_a_resolved_call_is_flagged_at_the_call_site() {
    let src = r#"
        struct S { state: Mutex<u32> }
        impl S {
            fn outer(&self) {
                let g = self.state.lock().unwrap();
                slow_helper();
            }
        }
        fn slow_helper() {
            std::thread::sleep(Duration::from_secs(1));
        }
    "#;
    let f = lint_one(src);
    assert!(
        f.iter()
            .any(|f| f.rule == "blocking-under-lock" && f.line == 6),
        "finding lands on the call under the guard: {f:?}"
    );
}

/// A guard-returning helper (`fn lock(&self) -> MutexGuard<…>`) is the
/// repo's pervasive poisoning-tolerant idiom; acquisition through it
/// must resolve to the underlying field.
#[test]
fn guard_returning_helper_resolves_to_the_underlying_lock() {
    let src = r#"
        struct Pump { state: Mutex<u32>, cv: Condvar }
        impl Pump {
            fn lock(&self) -> MutexGuard<'_, u32> {
                self.state.lock().unwrap_or_else(|e| e.into_inner())
            }
            fn bad(&self) {
                let st = self.lock();
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    "#;
    let f = lint_one(src);
    assert!(
        f.iter()
            .any(|f| f.rule == "blocking-under-lock" && f.message.contains("Pump::state")),
        "{f:?}"
    );
}

// -------------------------------------------------------------------
// blocking-in-event-loop
// -------------------------------------------------------------------

#[test]
fn unbounded_blocking_reachable_from_event_loop_is_flagged() {
    let files = vec![
        (
            PathBuf::from("event_loop.rs"),
            r#"
                pub fn run(parts: NodeParts) {
                    loop { dispatch_step(); }
                }
            "#
            .to_string(),
        ),
        (
            PathBuf::from("helpers.rs"),
            r#"
                pub fn dispatch_step() {
                    std::thread::sleep(Duration::from_millis(1));
                }
            "#
            .to_string(),
        ),
    ];
    let f = lint_files(files);
    assert!(
        f.iter().any(|f| {
            f.rule == "blocking-in-event-loop"
                && f.file == Path::new("helpers.rs")
                && f.message.contains("run")
        }),
        "{f:?}"
    );
}

#[test]
fn bounded_waits_in_the_event_loop_are_fine() {
    // The tick *should* park on a deadline-bounded select; only
    // unbounded ops are findings on the reachability path.
    let files = vec![(
        PathBuf::from("event_loop.rs"),
        r#"
            pub fn run(rx: &Receiver<Msg>) {
                loop {
                    let m = rx.recv_timeout(Duration::from_micros(500));
                }
            }
        "#
        .to_string(),
    )];
    assert_eq!(lint_files(files), Vec::new());
}

#[test]
fn same_blocking_op_outside_event_loop_files_is_fine() {
    let files = vec![(
        PathBuf::from("worker.rs"),
        r#"
            pub fn tick_thread() {
                std::thread::sleep(Duration::from_millis(1));
            }
        "#
        .to_string(),
    )];
    assert_eq!(lint_files(files), Vec::new());
}

// -------------------------------------------------------------------
// unsafe-surface audit
// -------------------------------------------------------------------

#[test]
fn ungated_unsafe_is_flagged() {
    let src = r#"
        // SAFETY: documented but not gated.
        fn f() { unsafe { syscall() } }
    "#;
    assert_eq!(rules_hit(src), ["unsafe-gate"]);
}

#[test]
fn undocumented_unsafe_block_is_flagged() {
    let src = r#"
        #[allow(unsafe_code)]
        mod imp {
            fn f() {
                let rc = unsafe { libc_call() };
            }
        }
    "#;
    assert_eq!(rules_hit(src), ["unsafe-doc"]);
}

#[test]
fn gated_and_documented_unsafe_is_fine() {
    let src = r#"
        #[allow(unsafe_code)]
        mod imp {
            fn f() {
                // SAFETY: fd is owned by `sock` and outlives the call;
                // the buffers are live for the duration.
                let rc = unsafe { libc_call() };
            }
        }
    "#;
    assert_eq!(lint_one(src), Vec::new());
}

#[test]
fn unsafe_in_test_modules_is_out_of_scope() {
    let src = r#"
        mod tests {
            fn probe() { unsafe { poke() } }
        }
    "#;
    assert_eq!(lint_one(src), Vec::new());
}

// -------------------------------------------------------------------
// test-module and allow-annotation behaviour
// -------------------------------------------------------------------

#[test]
fn test_modules_may_sleep_under_lock() {
    let src = r#"
        mod tests {
            fn harness(m: &Mutex<u32>) {
                let g = m.lock().unwrap();
                std::thread::sleep(Duration::from_millis(50));
                let h = worker.join();
            }
        }
    "#;
    assert_eq!(lint_one(src), Vec::new());
}

#[test]
fn justified_allow_silences_the_site() {
    let src = r#"
        fn contract(m: &Mutex<State>) {
            let g = m.lock().unwrap();
            // tw-lint: allow(blocking-under-lock) -- spill contract: buffer and writer move together
            g.writer.write_all(&buf).unwrap();
        }
    "#;
    assert_eq!(lint_one(src), Vec::new());
}

#[test]
fn unjustified_allow_is_a_finding_and_does_not_suppress() {
    let src = r#"
        fn bad(m: &Mutex<u32>) {
            let g = m.lock().unwrap();
            // tw-lint: allow(blocking-under-lock)
            std::thread::sleep(Duration::from_millis(50));
        }
    "#;
    let rules = rules_hit(src);
    assert!(
        rules.contains(&"blocking-under-lock".to_string()),
        "{rules:?}"
    );
    assert!(rules.contains(&"lint-annotation".to_string()), "{rules:?}");
}

/// Cross-pass annotation validation: a determinism-rule allow in a
/// concurrency-scoped file (tw-obs is in both scopes) must not read as
/// an unknown rule.
#[test]
fn determinism_rule_allows_are_known_to_the_concurrency_pass() {
    let src = r#"
        // tw-lint: allow-file(actor-io) -- recorder writes trace files by design
        fn f() {}
    "#;
    assert_eq!(lint_one(src), Vec::new());
}

// -------------------------------------------------------------------
// acceptance gate
// -------------------------------------------------------------------

/// The real workspace passes with only justified allows — any new lock
/// ordering or blocking-under-guard regression in tw-runtime/tw-obs
/// fails CI from now on.
#[test]
fn real_workspace_concurrency_clean() {
    let findings = lint_workspace(&repo_root()).expect("scoped dirs readable");
    assert!(
        findings.is_empty(),
        "concurrency lint found {} issue(s):\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
