//! Every experiment, one test each: its claim must hold and its text must
//! be the ```` ```text ```` block under `## <ID>` in EXPERIMENTS.md, byte
//! for byte. When a change moves a number on purpose, paste the block the
//! failing test printed into EXPERIMENTS.md.

use tw_bench::experiments::{find, ALL};

const DOC: &str = include_str!("../../../EXPERIMENTS.md");

/// The ```` ```text ```` block of `doc`'s `## <id>` section, through the
/// newline before its closing fence.
fn expected<'a>(doc: &'a str, id: &str) -> Result<&'a str, String> {
    let (_, section) = (doc.split_once(&format!("\n## {id} ")))
        .ok_or_else(|| format!("EXPERIMENTS.md has no `## {id}` section"))?;
    let section = section.split("\n## ").next().unwrap_or_default();
    let (_, block) = (section.split_once("```text\n"))
        .ok_or_else(|| format!("`## {id}` has no ```text block"))?;
    let end = block
        .find("\n```")
        .ok_or_else(|| format!("`## {id}`'s block is not closed"))?;
    Ok(&block[..=end])
}

fn matches_doc(doc: &str, id: &str, actual: &str) -> Result<(), String> {
    let want = expected(doc, id)?;
    if want == actual {
        return Ok(());
    }
    Err(format!(
        "{id}: EXPERIMENTS.md expects\n{want}\n{id}: the run printed (paste it into \
         EXPERIMENTS.md if the change is intended)\n```text\n{actual}```"
    ))
}

fn check(id: &str) {
    let outcome = (find(id).expect("a row of ALL").run)();
    let text = matches_doc(DOC, id, outcome.text.trim_start_matches('\n'));
    let claim = outcome
        .verdict
        .map_err(|why| format!("{id}: the paper's claim failed: {why}"));
    let failures: Vec<String> = [text, claim].into_iter().filter_map(Result::err).collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

macro_rules! rows {
    ($($test:ident => $id:literal),* $(,)?) => {
        $(#[test] fn $test() { check($id) })*
        const TESTED: &[&str] = &[$($id),*];
    };
}

rows! {
    t1 => "T1", t2 => "T2", t3 => "T3", t4 => "T4", t5 => "T5", t6 => "T6", t8 => "T8",
    t9 => "T9", t10 => "T10", t11 => "T11", a1 => "A1", a2 => "A2", fig1 => "FIG1", fig2 => "FIG2",
}

#[test]
fn every_row_has_a_test_and_a_block() {
    let ids: Vec<&str> = ALL.iter().map(|e| e.id).collect();
    assert_eq!(ids, TESTED);
    for id in ids {
        expected(DOC, id).unwrap();
    }
}

const FIXTURE: &str =
    "# doc\n\n## T1 — one\n\nprose\n\n```text\n== T1 ==\na  \n```\n\n## T10 — ten\n";

#[test]
fn a_missing_section_is_an_error_naming_the_id() {
    let err = expected(FIXTURE, "T9").unwrap_err();
    assert!(err.contains("## T9"), "{err}");
    let err = expected(FIXTURE, "T10").unwrap_err();
    assert!(err.contains("no ```text block"), "{err}");
}

#[test]
fn a_differing_block_shows_both_versions() {
    assert_eq!(matches_doc(FIXTURE, "T1", "== T1 ==\na  \n"), Ok(()));
    let err = matches_doc(FIXTURE, "T1", "== T1 ==\nb  \n").unwrap_err();
    assert!(
        err.contains("== T1 ==\na  \n") && err.contains("== T1 ==\nb  \n"),
        "{err}"
    );
}

#[test]
fn trailing_spaces_count() {
    assert!(matches_doc(FIXTURE, "T1", "== T1 ==\na\n").is_err());
}
