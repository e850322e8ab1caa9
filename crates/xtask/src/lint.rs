//! The determinism lint: vocabulary rules over the protocol crates.
//!
//! The simulator's whole value proposition is bit-for-bit reproducible
//! runs: every experiment, every soak seed, every explored schedule is
//! trusted because actors are *pure* state machines whose only inputs
//! are messages, timers and the seeded RNG threaded through
//! [`Ctx`](../../sim/src/engine.rs). That purity is a convention, and
//! conventions rot. This pass turns the convention into a build gate.
//!
//! Rules (scoped to `tw-proto`, `timewheel`, `tw-clock`, `tw-sim`):
//!
//! | rule           | forbids                                            |
//! |----------------|----------------------------------------------------|
//! | `wall-clock`   | `Instant`, `SystemTime` — real time leaks          |
//! | `ambient-rng`  | `thread_rng`, `from_entropy`, `OsRng`, `rand::random` |
//! | `hash-container` | `HashMap`, `HashSet`, `RandomState` — iteration order varies run-to-run |
//! | `float-state`  | `f32`, `f64` — non-portable rounding in protocol state |
//! | `actor-io`     | `println!`/`eprintln!`/`dbg!`, `std::{net,fs,io,env,process}` |
//!
//! ## Escape hatch
//!
//! A finding can be silenced with a justified annotation on the same
//! line or the line above:
//!
//! ```text
//! // tw-lint: allow(float-state) -- link model probabilities, env not protocol state
//! pub drop_prob: f64,
//! ```
//!
//! or for a whole file (conversion-heavy modules):
//!
//! ```text
//! // tw-lint: allow-file(float-state) -- hw-clock drift model, simulation env only
//! ```
//!
//! The `-- justification` is mandatory; a bare `allow` is itself
//! reported. Unknown rule names are reported too, so annotations can't
//! silently rot when rules are renamed.

use crate::lexer::{tokenize, Token};
use std::fmt;
use std::path::{Path, PathBuf};

/// A lint rule: a name, the token vocabulary it forbids, and why.
pub struct Rule {
    /// Rule name, as used in `tw-lint: allow(<name>)`.
    pub name: &'static str,
    /// Forbidden vocabulary.
    pub needles: &'static [Needle],
    /// One-line rationale, shown with findings.
    pub why: &'static str,
}

/// One forbidden token pattern.
pub enum Needle {
    /// A bare identifier, matched as a whole token.
    Ident(&'static str),
    /// A `::`-separated path prefix, e.g. `std::env`.
    Path(&'static [&'static str]),
    /// A macro invocation: identifier immediately followed by `!`.
    MacroCall(&'static str),
}

impl fmt::Display for Needle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Needle::Ident(s) => write!(f, "{s}"),
            Needle::Path(p) => write!(f, "{}", p.join("::")),
            Needle::MacroCall(m) => write!(f, "{m}!"),
        }
    }
}

/// The rule set. Order is presentation order in reports.
pub const RULES: &[Rule] = &[
    Rule {
        name: "wall-clock",
        needles: &[Needle::Ident("Instant"), Needle::Ident("SystemTime")],
        why: "actors read time only via Ctx::now_hw(); wall clocks make runs unreproducible",
    },
    Rule {
        name: "ambient-rng",
        needles: &[
            Needle::Ident("thread_rng"),
            Needle::Ident("from_entropy"),
            Needle::Ident("OsRng"),
            Needle::Path(&["rand", "random"]),
        ],
        why: "randomness must flow from the world's seeded StdRng (Ctx::rng), never from OS entropy",
    },
    Rule {
        name: "hash-container",
        needles: &[
            Needle::Ident("HashMap"),
            Needle::Ident("HashSet"),
            Needle::Ident("RandomState"),
        ],
        why: "hash iteration order varies across runs/builds; use BTreeMap/BTreeSet in protocol and engine state",
    },
    Rule {
        name: "float-state",
        needles: &[Needle::Ident("f32"), Needle::Ident("f64")],
        why: "floating point in protocol state risks platform-dependent rounding; keep protocol time/counters integral",
    },
    Rule {
        name: "actor-io",
        needles: &[
            Needle::MacroCall("println"),
            Needle::MacroCall("eprintln"),
            Needle::MacroCall("print"),
            Needle::MacroCall("eprint"),
            Needle::MacroCall("dbg"),
            Needle::Path(&["std", "net"]),
            Needle::Path(&["std", "fs"]),
            Needle::Path(&["std", "io"]),
            Needle::Path(&["std", "env"]),
            Needle::Path(&["std", "process"]),
        ],
        why: "actors talk to the world only through Ctx effects; direct I/O and ambient env reads escape the simulation",
    },
];

/// Crate source roots the lint applies to, relative to the repo root.
/// `tw-runtime` and the bench/examples trees intentionally sit
/// outside: they bridge to real time and real sockets by design.
pub const SCOPED_DIRS: &[&str] = &[
    "crates/proto/src",
    "crates/core/src",
    "crates/clock/src",
    "crates/sim/src",
    "crates/obs/src",
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Rule name (`"lint-annotation"` for malformed allows).
    pub rule: String,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Every rule name an annotation may legally reference: the
/// determinism rules here plus the concurrency rules. Both passes
/// validate annotations against this union so an allow for one pass
/// doesn't read as a typo to the other.
pub fn all_rule_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = RULES.iter().map(|r| r.name).collect();
    names.extend(
        crate::concurrency::CONCURRENCY_RULES
            .iter()
            .map(|(n, _)| *n),
    );
    names
}

/// Parsed allow annotations for one file.
#[derive(Default)]
pub(crate) struct Allows {
    /// (line, rule) pairs: silence `rule` on `line` and `line + 1`.
    line_allows: Vec<(usize, String)>,
    /// Rules silenced for the whole file.
    file_allows: Vec<String>,
    /// Malformed annotations, reported as findings.
    errors: Vec<(usize, String)>,
}

pub(crate) fn parse_allows(src: &str, known_rules: &[&'static str]) -> Allows {
    let mut a = Allows::default();
    for (idx, raw) in src.lines().enumerate() {
        let line_no = idx + 1;
        let Some(pos) = raw.find("tw-lint:") else {
            continue;
        };
        let rest = raw[pos + "tw-lint:".len()..].trim();
        let (kind, rest) = if let Some(r) = rest.strip_prefix("allow-file(") {
            ("file", r)
        } else if let Some(r) = rest.strip_prefix("allow(") {
            ("line", r)
        } else {
            a.errors.push((
                line_no,
                format!("unrecognized tw-lint annotation: `{}`", rest),
            ));
            continue;
        };
        let Some(close) = rest.find(')') else {
            a.errors
                .push((line_no, "unclosed tw-lint allow(...)".to_string()));
            continue;
        };
        let rules: Vec<&str> = rest[..close]
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        let tail = rest[close + 1..].trim();
        let justification = tail.strip_prefix("--").map(str::trim).unwrap_or("");
        if justification.is_empty() {
            a.errors.push((
                line_no,
                "tw-lint allow without a `-- justification`".to_string(),
            ));
            continue;
        }
        for r in rules {
            if !known_rules.contains(&r) {
                a.errors
                    .push((line_no, format!("tw-lint allow of unknown rule `{r}`")));
                continue;
            }
            match kind {
                "file" => a.file_allows.push(r.to_string()),
                _ => a.line_allows.push((line_no, r.to_string())),
            }
        }
    }
    a
}

impl Allows {
    /// Malformed-annotation findings collected during parsing.
    pub(crate) fn errors(&self) -> &[(usize, String)] {
        &self.errors
    }

    pub(crate) fn covers(&self, rule: &str, line: usize) -> bool {
        self.file_allows.iter().any(|r| r == rule)
            || self
                .line_allows
                .iter()
                .any(|(l, r)| r == rule && (line == *l || line == *l + 1))
    }
}

/// Lint one source text. `file` is only used to label findings.
pub fn lint_source(file: &Path, src: &str) -> Vec<Finding> {
    let allows = parse_allows(src, &all_rule_names());
    let tokens = tokenize(src);
    let mut out = Vec::new();
    for (line, msg) in &allows.errors {
        out.push(Finding {
            file: file.to_path_buf(),
            line: *line,
            rule: "lint-annotation".into(),
            message: msg.clone(),
        });
    }
    for rule in RULES {
        for needle in rule.needles {
            for line in match_needle(&tokens, needle) {
                if allows.covers(rule.name, line) {
                    continue;
                }
                out.push(Finding {
                    file: file.to_path_buf(),
                    line,
                    rule: rule.name.into(),
                    message: format!("forbidden `{}` — {}", needle, rule.why),
                });
            }
        }
    }
    out.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    out
}

fn match_needle(tokens: &[Token], needle: &Needle) -> Vec<usize> {
    let mut lines = Vec::new();
    match needle {
        Needle::Ident(name) => {
            for (i, t) in tokens.iter().enumerate() {
                if t.is_ident && t.text == *name && !is_path_member_access(tokens, i) {
                    lines.push(t.line);
                }
            }
        }
        Needle::MacroCall(name) => {
            for (i, t) in tokens.iter().enumerate() {
                if t.is_ident && t.text == *name && tokens.get(i + 1).is_some_and(|n| n.text == "!")
                {
                    lines.push(t.line);
                }
            }
        }
        Needle::Path(parts) => {
            'outer: for (i, t) in tokens.iter().enumerate() {
                if !(t.is_ident && t.text == parts[0]) {
                    continue;
                }
                // A path needle must start a path: `foo::std::env` is a
                // different `std`.
                if i >= 2 && tokens[i - 1].text == "::" && tokens[i - 2].is_ident {
                    continue;
                }
                let mut j = i;
                for part in &parts[1..] {
                    if tokens.get(j + 1).map(|x| x.text.as_str()) != Some("::")
                        || tokens.get(j + 2).map(|x| x.text.as_str()) != Some(*part)
                    {
                        continue 'outer;
                    }
                    j += 2;
                }
                lines.push(t.line);
            }
        }
    }
    lines
}

/// `foo.f64` / `x.Instant` style field accesses can't occur for our
/// needles, but `self.f64`-like false positives are cheap to rule out:
/// skip idents immediately preceded by `.`.
fn is_path_member_access(tokens: &[Token], i: usize) -> bool {
    i > 0 && tokens[i - 1].text == "."
}

/// Recursively collect `.rs` files under `dir`, sorted for stable
/// report order. `bin/` subtrees are skipped: binaries under a scoped
/// crate are host-side entry points (CLIs reading argv, printing
/// reports), not actor code — the discipline applies to what the
/// simulator runs.
pub fn rust_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let p = entry?.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n == "bin") {
                    continue;
                }
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lint every scoped crate under `repo_root`; returns all findings.
pub fn lint_workspace(repo_root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut out = Vec::new();
    for dir in SCOPED_DIRS {
        let full = repo_root.join(dir);
        if !full.is_dir() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("lint scope dir missing: {}", full.display()),
            ));
        }
        for file in rust_files(&full)? {
            let src = std::fs::read_to_string(&file)?;
            let rel = file.strip_prefix(repo_root).unwrap_or(&file);
            out.extend(lint_source(rel, &src));
        }
    }
    Ok(out)
}

/// The repo root, located from this crate's manifest dir (works both
/// under `cargo run -p xtask` and in `cargo test -p xtask`).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask has two ancestors")
        .to_path_buf()
}
