//! The lint must (a) flag each rule on a deliberately-bad fixture,
//! (b) respect justified allow annotations, and (c) pass on the real
//! workspace — which is the acceptance gate CI runs.

use std::path::Path;
use xtask::lint::{lint_source, lint_workspace, repo_root, Finding};

fn lint(src: &str) -> Vec<Finding> {
    lint_source(Path::new("fixture.rs"), src)
}

fn rules_hit(src: &str) -> Vec<String> {
    let mut r: Vec<String> = lint(src).into_iter().map(|f| f.rule).collect();
    r.dedup();
    r
}

#[test]
fn wall_clock_fixture_is_flagged() {
    let src = r#"
        use std::time::Instant;
        fn bad() { let t = Instant::now(); }
    "#;
    let f = lint(src);
    assert!(f.iter().all(|f| f.rule == "wall-clock"), "{f:?}");
    assert_eq!(f.len(), 2, "both the use and the call site: {f:?}");
    assert_eq!(
        rules_hit("let x = std::time::SystemTime::now();"),
        ["wall-clock"]
    );
}

#[test]
fn ambient_rng_fixture_is_flagged() {
    assert_eq!(
        rules_hit("let mut r = rand::thread_rng();"),
        ["ambient-rng"]
    );
    assert_eq!(
        rules_hit("let r = StdRng::from_entropy();"),
        ["ambient-rng"]
    );
    assert_eq!(rules_hit("use rand::rngs::OsRng;"), ["ambient-rng"]);
    assert_eq!(rules_hit("let x: u8 = rand::random();"), ["ambient-rng"]);
    // Seeded construction is the sanctioned path.
    assert_eq!(
        rules_hit("let r = StdRng::seed_from_u64(42);"),
        Vec::<String>::new()
    );
}

#[test]
fn hash_container_fixture_is_flagged() {
    let src = "use std::collections::HashMap;\nlet s: HashSet<u32> = HashSet::new();";
    let rules = rules_hit(src);
    assert_eq!(rules, ["hash-container"]);
    assert_eq!(lint(src).len(), 3);
    // The deterministic alternatives stay silent.
    assert_eq!(
        rules_hit("use std::collections::{BTreeMap, BTreeSet};"),
        Vec::<String>::new()
    );
}

#[test]
fn float_state_fixture_is_flagged() {
    assert_eq!(rules_hit("pub struct S { pub skew: f64 }"), ["float-state"]);
    assert_eq!(rules_hit("fn f(x: f32) -> f32 { x }"), ["float-state"]);
    // Numeric literals with suffixes are not type mentions.
    assert_eq!(
        rules_hit("let micros = 1_000_000u64;"),
        Vec::<String>::new()
    );
}

#[test]
fn actor_io_fixture_is_flagged() {
    assert_eq!(rules_hit(r#"fn f() { println!("hi"); }"#), ["actor-io"]);
    assert_eq!(rules_hit("use std::net::UdpSocket;"), ["actor-io"]);
    assert_eq!(rules_hit(r#"let d = std::fs::read("x");"#), ["actor-io"]);
    assert_eq!(rules_hit(r#"let v = std::env::var("SEED");"#), ["actor-io"]);
    assert_eq!(rules_hit("let x = dbg!(1 + 1);"), ["actor-io"]);
    // `print` as a plain identifier (no `!`) is someone's function name.
    assert_eq!(
        rules_hit("fn print(x: u8) {} fn g() { print(1); }"),
        Vec::<String>::new()
    );
}

#[test]
fn needles_in_strings_and_comments_do_not_fire() {
    let src = r##"
        // HashMap would be wrong here, Instant::now() too
        /* thread_rng(), SystemTime, f64 */
        let doc = "uses std::env::var and println! at runtime";
        let raw = r#"OsRng HashSet f32"#;
    "##;
    assert_eq!(lint(src), Vec::new());
}

#[test]
fn line_allow_with_justification_silences_only_that_line() {
    let src = "\
// tw-lint: allow(float-state) -- simulated clock drift rate, not protocol state
pub drift: f64,
pub other: f64,
";
    let f = lint(src);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].line, 3);
}

#[test]
fn same_line_allow_works() {
    let src = "pub rho: f64, // tw-lint: allow(float-state) -- bound parameter from the paper";
    assert_eq!(lint(src), Vec::new());
}

#[test]
fn file_allow_silences_the_whole_file_for_that_rule_only() {
    let src = "\
// tw-lint: allow-file(float-state) -- time-unit conversion helpers
fn a(x: f64) -> f64 { x }
fn b(y: f32) -> f32 { y }
use std::collections::HashMap;
";
    let f = lint(src);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "hash-container");
}

#[test]
fn allow_without_justification_is_itself_a_finding() {
    let src = "// tw-lint: allow(float-state)\npub x: f64,";
    let f = lint(src);
    assert!(f.iter().any(|f| f.rule == "lint-annotation"), "{f:?}");
    assert!(
        f.iter().any(|f| f.rule == "float-state"),
        "unjustified allow must not suppress: {f:?}"
    );
}

#[test]
fn allow_of_unknown_rule_is_reported() {
    let src = "// tw-lint: allow(hash-map) -- oops, renamed rule\nlet x = 1;";
    let f = lint(src);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "lint-annotation");
    assert!(f[0].message.contains("hash-map"));
}

#[test]
fn multi_rule_allow_parses() {
    let src = "\
// tw-lint: allow(float-state, actor-io) -- debug-only diagnostics
fn f(x: f64) { eprintln!(\"{x}\"); }
";
    assert_eq!(lint(src), Vec::new());
}

#[test]
fn findings_carry_file_line_and_rationale() {
    let f = lint("let t = Instant::now();");
    assert_eq!(f[0].file, Path::new("fixture.rs"));
    assert_eq!(f[0].line, 1);
    assert!(f[0].message.contains("Ctx::now_hw"), "{f:?}");
}

/// `src/bin/` entry points are host-side (argv, report printing), not
/// actor code: file discovery must skip them.
#[test]
fn bin_subtrees_are_out_of_scope() {
    let root = std::env::temp_dir().join(format!("tw-lint-binscope-{}", std::process::id()));
    let bin = root.join("bin");
    std::fs::create_dir_all(&bin).unwrap();
    std::fs::write(root.join("actor.rs"), "pub fn f() {}\n").unwrap();
    std::fs::write(bin.join("cli.rs"), "fn main() { println!(\"report\"); }\n").unwrap();
    let files = xtask::lint::rust_files(&root).unwrap();
    std::fs::remove_dir_all(&root).unwrap();
    assert_eq!(files, vec![root.join("actor.rs")]);
}

/// The acceptance gate: the real protocol crates lint clean. Every
/// exception they need is a justified `tw-lint: allow` at the site.
#[test]
fn real_workspace_lints_clean() {
    let findings = lint_workspace(&repo_root()).expect("scoped dirs readable");
    assert!(
        findings.is_empty(),
        "determinism lint found {} issue(s):\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
