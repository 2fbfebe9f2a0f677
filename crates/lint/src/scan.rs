//! A hand-written Rust line scanner — the lexical substrate the rules in
//! [`crate::rules`] run on: a small, dependency-free, fully-owned piece
//! of the trusted base instead of an external parser the linter would
//! then have to trust.
//!
//! The scanner does **not** parse Rust. It performs exactly the lexical
//! separation the rules need and nothing more:
//!
//! * **masking** — string literals (plain, raw, byte, C), char literals,
//!   and comments are replaced by spaces in the per-line `code` text, so a
//!   rule that greps `code` for `unwrap()` can never fire on a doc
//!   sentence or an error message;
//! * **comment capture** — the text of every comment is kept per line, so
//!   annotation rules (`LINT-ALLOW`, `SAFETY:`, `RELAXED:`) can look it up
//!   without re-lexing;
//! * **test-region tracking** — any item under a `#[cfg(test)]` attribute
//!   (in this repo: the conventional `mod tests`) is brace-matched and its
//!   lines flagged `in_test`, and a file under an inner `#![cfg(test)]`
//!   (a test module in a file of its own) is flagged throughout, so
//!   production-only rules skip unit tests without path heuristics.
//!
//! Lifetimes (`'scope`) are distinguished from char literals (`'s'`) by
//! one character of lookahead, and block comments nest, as in real Rust.

/// One scanned source line.
#[derive(Debug, Clone)]
pub struct Line {
    /// The line's code with every literal and comment blanked to spaces.
    /// Column positions are preserved (the mask is length-preserving), so
    /// byte offsets into `code` are byte offsets into the original line.
    pub code: String,
    /// Concatenated text of every comment (or comment fragment) on the
    /// line, `//` / `/*` / `*/` delimiters stripped.
    pub comment: String,
    /// True when the line sits inside a `#[cfg(test)]` item or a file
    /// under `#![cfg(test)]`.
    pub in_test: bool,
}

/// A whole file, scanned. Lines are 0-indexed here; diagnostics add 1.
#[derive(Debug)]
pub struct ScannedFile {
    pub lines: Vec<Line>,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Code,
    /// Inside `/* ... */`, tracking nesting depth.
    Block(u32),
    /// Inside `"..."`.
    Str,
    /// Inside `r##"..."##` with the given `#` count.
    RawStr(u32),
}

/// Scans `source` into masked lines with captured comments and test
/// regions. Never fails: unterminated constructs simply mask to the end
/// of the file (rustc will reject the file anyway; the linter's job is
/// only to not mis-fire on it).
pub fn scan(source: &str) -> ScannedFile {
    let mut lines = Vec::new();
    let mut mode = Mode::Code;
    for raw in source.lines() {
        let (line, next) = scan_line(raw, mode);
        mode = next;
        lines.push(line);
    }
    mark_test_regions(&mut lines);
    ScannedFile { lines }
}

/// Scans one line starting in `mode`; returns the scanned line and the
/// mode the next line starts in.
fn scan_line(raw: &str, mut mode: Mode) -> (Line, Mode) {
    let bytes = raw.as_bytes();
    let mut code = vec![b' '; bytes.len()];
    let mut comment = String::new();
    let mut i = 0;
    while i < bytes.len() {
        match mode {
            Mode::Block(depth) => {
                if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    i += 2;
                    mode = if depth > 1 {
                        Mode::Block(depth - 1)
                    } else {
                        Mode::Code
                    };
                } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    i += 2;
                    mode = Mode::Block(depth + 1);
                } else {
                    comment.push(raw[i..].chars().next().unwrap_or(' '));
                    i += raw[i..].chars().next().map_or(1, char::len_utf8);
                }
            }
            Mode::Str => {
                if bytes[i] == b'\\' {
                    i += 2; // escape: skip the escaped byte too
                } else if bytes[i] == b'"' {
                    i += 1;
                    mode = Mode::Code;
                } else {
                    i += raw[i..].chars().next().map_or(1, char::len_utf8);
                }
            }
            Mode::RawStr(hashes) => {
                if bytes[i] == b'"'
                    && raw[i + 1..]
                        .bytes()
                        .take(hashes as usize)
                        .eq(std::iter::repeat_n(b'#', hashes as usize))
                {
                    i += 1 + hashes as usize;
                    mode = Mode::Code;
                } else {
                    i += raw[i..].chars().next().map_or(1, char::len_utf8);
                }
            }
            Mode::Code => {
                let b = bytes[i];
                match b {
                    b'/' if bytes.get(i + 1) == Some(&b'/') => {
                        // Line comment: capture the rest, stop lexing.
                        let text = raw[i + 2..].trim_start_matches(['/', '!']);
                        comment.push_str(text);
                        i = bytes.len();
                    }
                    b'/' if bytes.get(i + 1) == Some(&b'*') => {
                        i += 2;
                        mode = Mode::Block(1);
                    }
                    b'"' => {
                        i += 1;
                        mode = Mode::Str;
                    }
                    b'r' | b'b' | b'c' if is_raw_or_literal_prefix(bytes, i) => {
                        // One of r"..", r#"..", b"..", br#"..", c"..:
                        // consume the prefix, classify what follows.
                        let start = i;
                        while i < bytes.len()
                            && matches!(bytes[i], b'r' | b'b' | b'c')
                            && i - start < 2
                        {
                            i += 1;
                        }
                        let mut hashes = 0u32;
                        while bytes.get(i) == Some(&b'#') {
                            hashes += 1;
                            i += 1;
                        }
                        if bytes.get(i) == Some(&b'"') {
                            i += 1;
                            mode = if hashes > 0 || raw[start..i].contains('r') {
                                Mode::RawStr(hashes)
                            } else {
                                Mode::Str
                            };
                        } else {
                            // Not a literal after all (e.g. `r#type` raw
                            // ident, or plain identifiers): keep as code.
                            let end = i.min(bytes.len());
                            code[start..end].copy_from_slice(&bytes[start..end]);
                        }
                    }
                    b'\'' => {
                        // Char literal vs lifetime: `'x'` / `'\n'` are
                        // literals, `'scope` is a lifetime label.
                        if bytes.get(i + 1) == Some(&b'\\') {
                            // Escaped char literal: skip to closing quote.
                            i += 2;
                            while i < bytes.len() && bytes[i] != b'\'' {
                                i += 1;
                            }
                            i += 1;
                        } else {
                            let next_len = raw[i + 1..].chars().next().map_or(1, char::len_utf8);
                            if bytes.get(i + 1 + next_len) == Some(&b'\'') {
                                i += 2 + next_len; // 'x'
                            } else {
                                code[i] = b; // lifetime: keep the tick
                                i += 1;
                            }
                        }
                    }
                    _ => {
                        let len = raw[i..].chars().next().map_or(1, char::len_utf8);
                        let end = (i + len).min(bytes.len());
                        code[i..end].copy_from_slice(&bytes[i..end]);
                        i += len;
                    }
                }
            }
        }
    }
    let code = String::from_utf8_lossy(&code).into_owned();
    // Strings, raw strings, and block comments carry over to the next
    // line (multi-line constructs); line comments ended with the line.
    (
        Line {
            code,
            comment,
            in_test: false,
        },
        mode,
    )
}

/// Is the `r`/`b`/`c` at `i` the start of a (raw/byte/C) string literal,
/// and not just the first letter of an identifier like `result`?
fn is_raw_or_literal_prefix(bytes: &[u8], i: usize) -> bool {
    // Previous char must not be part of an identifier.
    if i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        return false;
    }
    // Look ahead past at most two prefix letters and any `#`s for a
    // quote. `r#ident` (raw identifier) has hashes but no quote, so the
    // quote requirement rejects it; hashes without an `r` in the prefix
    // (not valid Rust) are rejected too.
    let mut j = i;
    let mut saw_r = false;
    while j < bytes.len() && matches!(bytes[j], b'r' | b'b' | b'c') && j - i < 2 {
        saw_r |= bytes[j] == b'r';
        j += 1;
    }
    let mut hashes = 0;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    bytes.get(j) == Some(&b'"') && (hashes == 0 || saw_r)
}

/// Flags every line inside a `#[cfg(test)]` item by brace-matching the
/// item that follows the attribute, or every line of a file under an
/// inner `#![cfg(test)]`.
fn mark_test_regions(lines: &mut [Line]) {
    if lines.iter().any(|l| l.code.trim() == "#![cfg(test)]") {
        lines.iter_mut().for_each(|l| l.in_test = true);
        return;
    }
    let mut i = 0;
    while i < lines.len() {
        if lines[i].code.contains("#[cfg(test)]") {
            // Find the opening brace of the attributed item, then match.
            let mut depth = 0i64;
            let mut opened = false;
            let mut j = i;
            while j < lines.len() {
                for b in lines[j].code.bytes() {
                    match b {
                        b'{' => {
                            depth += 1;
                            opened = true;
                        }
                        b'}' => depth -= 1,
                        _ => {}
                    }
                }
                lines[j].in_test = true;
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_masked_out() {
        let f = scan("let x = \"unwrap() inside\"; // unwrap() in comment\n");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].comment.contains("unwrap() in comment"));
        assert!(f.lines[0].code.contains("let x ="));
    }

    #[test]
    fn raw_strings_and_escapes_mask() {
        let f = scan("let a = r#\"panic! \"quoted\" \"#; let b = \"\\\"panic!\\\"\"; b;\n");
        assert!(!f.lines[0].code.contains("panic"));
        assert!(f.lines[0].code.contains("let b ="));
    }

    #[test]
    fn multiline_strings_and_block_comments_carry_over() {
        let src = "let s = \"line one\nstill a string unwrap()\";\n/* block\nstill comment unwrap() */ code();\n";
        let f = scan(src);
        assert!(!f.lines[1].code.contains("unwrap"));
        assert!(!f.lines[3].code.contains("unwrap"));
        assert!(f.lines[3].code.contains("code()"));
        assert!(f.lines[3].comment.contains("still comment"));
    }

    #[test]
    fn nested_block_comments() {
        let f = scan("/* outer /* inner */ still outer unwrap() */ after();\n");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("after()"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let f = scan("fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; g(x) }\n");
        let code = &f.lines[0].code;
        assert!(code.contains("fn f<'a>"), "lifetime kept: {code}");
        assert!(!code.contains("'x'"), "char literal masked: {code}");
        assert!(code.contains("g(x)"));
    }

    #[test]
    fn cfg_test_regions_are_flagged() {
        let src = "fn prod() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn prod2() {}\n";
        let f = scan(src);
        assert!(!f.lines[0].in_test);
        assert!(
            f.lines[1].in_test && f.lines[2].in_test && f.lines[3].in_test && f.lines[4].in_test
        );
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn a_file_under_an_inner_cfg_test_is_test_code() {
        let src = "//! Tests in a file of their own.\n#![cfg(test)]\n\nfn t() { y.unwrap(); }\n";
        assert!(scan(src).lines.iter().all(|l| l.in_test));
        // The outer attribute still marks only the item it precedes.
        let src = "#[cfg(test)]\nfn t() {}\nfn prod() { x.unwrap(); }\n";
        assert!(!scan(src).lines[2].in_test);
    }
}
