//! A minimal Rust lexer: good enough to strip comments, string/char
//! literals and to split the remaining code into identifier/punctuation
//! tokens, line by line.
//!
//! The determinism lint does not need a full AST — every rule it
//! enforces is a *vocabulary* rule ("this name must not appear in
//! protocol code"), so matching identifier tokens (with `::`-path
//! sequences) after literal/comment removal is exact, not heuristic.
//! Hand-rolling this keeps `xtask` dependency-free, which is what lets
//! the lint run in offline and minimal CI environments. If a future
//! rule needs real scoping (e.g. "only inside `impl Actor`"), that is
//! the point to reconsider a `syn`-based pass.

/// One code token, tagged with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// 1-based line the token starts on.
    pub line: usize,
    /// Identifier text, or punctuation (`::`, `!`, `(`, …).
    pub text: String,
    /// True for identifier/keyword tokens, false for punctuation.
    pub is_ident: bool,
}

/// Tokenize Rust source, discarding comments and the *contents* of
/// string/char literals (so `"HashMap"` in a string never matches a
/// lint needle). Numeric literals are consumed as single non-ident
/// tokens, so the `f64` in `1.0f64` stays part of the number and only a
/// freestanding `f64` type token matches the float rule.
pub fn tokenize(src: &str) -> Vec<Token> {
    let b: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            '/' if b.get(i + 1) == Some(&'/') => {
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
            }
            '/' if b.get(i + 1) == Some(&'*') => {
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            // Raw strings: r"…", r#"…"#, br#"…"# — find the opening
            // quote, count the #s, skip to the matching close.
            'r' | 'b' if is_raw_string_start(&b, i) => {
                let mut j = i;
                while b[j] != 'r' {
                    j += 1; // skip the leading b of br
                }
                j += 1;
                let mut hashes = 0;
                while b.get(j) == Some(&'#') {
                    hashes += 1;
                    j += 1;
                }
                debug_assert_eq!(b.get(j), Some(&'"'));
                j += 1;
                // scan for `"` followed by `hashes` #s
                'scan: while j < b.len() {
                    if b[j] == '\n' {
                        line += 1;
                    }
                    if b[j] == '"' {
                        let mut k = 0;
                        while k < hashes && b.get(j + 1 + k) == Some(&'#') {
                            k += 1;
                        }
                        if k == hashes {
                            j += 1 + hashes;
                            break 'scan;
                        }
                    }
                    j += 1;
                }
                i = j;
            }
            '"' => {
                i += 1;
                while i < b.len() {
                    match b[i] {
                        '\\' => {
                            // `\` + newline continues the string on the next line.
                            if b.get(i + 1) == Some(&'\n') {
                                line += 1;
                            }
                            i += 2;
                        }
                        '"' => {
                            i += 1;
                            break;
                        }
                        '\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
            }
            'b' if b.get(i + 1) == Some(&'"') => {
                // byte string: delegate to the string arm next loop
                out.push(Token {
                    line,
                    text: "b".into(),
                    is_ident: false, // not a real ident occurrence
                });
                i += 1;
            }
            '\'' => {
                // Char literal or lifetime. `'\…'` and `'x'` are chars;
                // `'ident` (no closing quote right after) is a lifetime.
                if b.get(i + 1) == Some(&'\\') {
                    i += 2;
                    while i < b.len() && b[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                } else if b.get(i + 2) == Some(&'\'') && b.get(i + 1).is_some_and(|c| *c != '\'') {
                    i += 3;
                } else {
                    // lifetime: skip the quote, let the ident lex as a
                    // plain token (lifetime names never collide with
                    // lint needles, which are all multi-char type/fn
                    // names).
                    i += 1;
                }
            }
            _ if c == '_' || c.is_ascii_alphabetic() => {
                let start = i;
                while i < b.len() && (b[i] == '_' || b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                out.push(Token {
                    line,
                    text: b[start..i].iter().collect(),
                    is_ident: true,
                });
            }
            _ if c.is_ascii_digit() => {
                // Number (incl. suffixed like 10u64, 1.0f64, 0x_ff).
                while i < b.len() && (b[i] == '_' || b[i] == '.' || b[i].is_ascii_alphanumeric()) {
                    // Don't swallow a second `.` (range `0..n`).
                    if b[i] == '.' && b.get(i + 1) == Some(&'.') {
                        break;
                    }
                    i += 1;
                }
            }
            ':' if b.get(i + 1) == Some(&':') => {
                out.push(Token {
                    line,
                    text: "::".into(),
                    is_ident: false,
                });
                i += 2;
            }
            _ if c.is_whitespace() => {
                i += 1;
            }
            _ => {
                out.push(Token {
                    line,
                    text: c.to_string(),
                    is_ident: false,
                });
                i += 1;
            }
        }
    }
    out
}

fn is_raw_string_start(b: &[char], i: usize) -> bool {
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
    }
    if b.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while b.get(j) == Some(&'#') {
        j += 1;
    }
    b.get(j) == Some(&'"')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .into_iter()
            .filter(|t| t.is_ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_are_invisible() {
        let src = r##"
            // HashMap in a comment
            /* Instant::now() in /* a nested */ block */
            let s = "thread_rng inside a string";
            let r = r#"SystemTime raw"#;
            let c = 'x';
            real_ident();
        "##;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "s", "let", "r", "let", "c", "real_ident"]);
    }

    #[test]
    fn number_suffixes_do_not_leak_idents() {
        assert_eq!(idents("let x = 1.0f64 + 0xff_u32;"), vec!["let", "x"]);
        assert!(idents("for i in 0..n {}").contains(&"n".to_string()));
    }

    #[test]
    fn lines_are_tracked_through_multiline_constructs() {
        let src = "a\n/* x\ny */\nb";
        let toks = tokenize(src);
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 4);
    }

    #[test]
    fn a_string_continued_past_a_newline_counts_the_newline() {
        let toks = tokenize("let s = \"a\\\n  b\";\nnext");
        let next = toks
            .iter()
            .find(|t| t.text == "next")
            .expect("token after the string");
        assert_eq!(next.line, 3);
    }

    #[test]
    fn lifetimes_and_char_escapes() {
        let ids = idents("fn f<'a>(x: &'a str) { let c = '\\n'; }");
        assert!(ids.contains(&"str".to_string()));
        assert!(!ids.contains(&"n".to_string()));
    }

    #[test]
    fn path_separator_is_one_token() {
        let toks = tokenize("std::env::var");
        let texts: Vec<_> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["std", "::", "env", "::", "var"]);
    }
}
