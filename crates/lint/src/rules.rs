//! The project invariants, enforced as typed, file:line-addressed
//! diagnostics over [`crate::scan`]ned source (DESIGN.md §13).
//!
//! | rule key     | invariant                                                        |
//! |--------------|------------------------------------------------------------------|
//! | `panic`      | no `unwrap()`/`expect()`/`panic!`/`unreachable!`/`todo!`/        |
//! |              | `unimplemented!` in serving-path modules                          |
//! | `safety`     | every `unsafe` block is preceded by a `// SAFETY:` comment        |
//! | `ordering`   | every atomic load/store/RMW names an explicit `Ordering`          |
//! | `relaxed`    | every `Ordering::Relaxed` carries a `// RELAXED:` justification   |
//! | `wallclock`  | no `Instant::now`/`SystemTime::now` in deterministic modules      |
//! | `float-eq`   | no direct `f64`/`f32` `==`/`!=` comparisons outside test code     |
//!
//! Annotation grammar (also §13):
//!
//! * `// LINT-ALLOW(panic): some reason` — suppresses `panic`, `wallclock`,
//!   or `float-eq` on the same line, or (as the conventional placement)
//!   anywhere in the contiguous comment block directly above the line.
//!   The reason is mandatory; an empty reason is itself a diagnostic.
//! * `// SAFETY: <why this is sound>` — same placement as `LINT-ALLOW`;
//!   discharges `safety`.
//! * `// RELAXED: <why no ordering is needed>` — covers every
//!   `Ordering::Relaxed` on its own line and the following
//!   [`RELAXED_WINDOW`] lines, so one justification can cover a cluster
//!   of counter operations.
//!
//! The scanner is lexical, not semantic: `ordering` and `float-eq` use
//! documented heuristics (see [`AMBIGUOUS_ATOMIC_METHODS`] and the
//! `float_operand` check) chosen so they are exact on this codebase's idiom.

use crate::scan::{ScannedFile, scan};

/// How many lines below a `// RELAXED:` comment it still covers.
pub const RELAXED_WINDOW: usize = 10;

/// Modules on the serving path: a panic here is an availability bug, so
/// the panic family is banned outside explicit annotated allowances
/// (DESIGN.md §13). Matched against `/`-normalized workspace-relative
/// paths: a file as a path suffix, a directory (ending in `/`) as every
/// file under it.
pub const SERVING_MODULES: &[&str] = &[
    "crates/engine/src/server.rs",
    "crates/engine/src/proto.rs",
    "crates/engine/src/engine.rs",
    "crates/core/src/pool.rs",
    "crates/core/src/prefetch.rs",
    "crates/core/src/sync.rs",
    "crates/core/src/diversify.rs",
    "crates/text/src/mode.rs",
    "crates/text/src/persist/",
];

/// Modules whose outputs must be bit-reproducible from their seeds: any
/// wall-clock read here is a determinism bug waiting for a refactor.
pub const DETERMINISTIC_MODULES: &[&str] = &[
    "crates/bench/src/workload.rs",
    "crates/bench/src/quality.rs",
    "crates/core/src/testgen.rs",
    "crates/core/src/rng.rs",
];

/// Atomic RMW methods that are unambiguous — no other std type has them,
/// so they are checked in every file.
pub const UNAMBIGUOUS_ATOMIC_METHODS: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Methods that exist on non-atomic types too (`Vec::swap`,
/// `Iterator::... load`-alikes): only checked in files that import
/// `std::sync::atomic`, which is where a bare call is plausibly atomic.
pub const AMBIGUOUS_ATOMIC_METHODS: &[&str] = &["load", "store", "swap"];

/// One finding: a file:line-addressed, rule-typed diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule key (`panic`, `safety`, `ordering`, `relaxed`,
    /// `wallclock`, `float-eq`, `annotation`).
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Whether `path` is one of `modules`, matched as [`SERVING_MODULES`]
/// describes.
fn in_modules(path: &str, modules: &[&str]) -> bool {
    modules.iter().any(|m| {
        if m.ends_with('/') {
            path.starts_with(m) || path.contains(&format!("/{m}"))
        } else {
            path.ends_with(m)
        }
    })
}

/// Lints one file's source text under its workspace-relative path.
/// This is the whole linter; the binary and the workspace walker are
/// just loops around it.
pub fn lint_source(path: &str, source: &str) -> Vec<Diagnostic> {
    let file = scan(source);
    let mut out = Vec::new();
    check_annotations(path, &file, &mut out);
    if in_modules(path, SERVING_MODULES) {
        check_panics(path, &file, &mut out);
    }
    check_unsafe(path, &file, &mut out);
    check_atomics(path, source, &file, &mut out);
    if in_modules(path, DETERMINISTIC_MODULES) {
        check_wallclock(path, &file, &mut out);
    }
    check_float_eq(path, &file, &mut out);
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// True if `code[at..]` starts with `word` at an identifier boundary on
/// both sides.
fn word_at(code: &str, at: usize, word: &str) -> bool {
    if !code[at..].starts_with(word) {
        return false;
    }
    let before_ok = at == 0
        || !code.as_bytes()[at - 1].is_ascii_alphanumeric() && code.as_bytes()[at - 1] != b'_';
    let after = at + word.len();
    let after_ok = after >= code.len()
        || !code.as_bytes()[after].is_ascii_alphanumeric() && code.as_bytes()[after] != b'_';
    before_ok && after_ok
}

/// All identifier-boundary occurrences of `word` in `code`.
fn word_positions(code: &str, word: &str) -> Vec<usize> {
    let mut positions = Vec::new();
    let mut from = 0;
    while let Some(rel) = code[from..].find(word) {
        let at = from + rel;
        if word_at(code, at, word) {
            positions.push(at);
        }
        from = at + word.len();
    }
    positions
}

/// Does the contiguous comment block directly above `line` (or the line
/// itself) contain `token`? "Contiguous" means the scan walks upward over
/// lines with no code (comments, blanks, masked literals) and stops at
/// the first line carrying code.
fn annotated_above(file: &ScannedFile, line: usize, token: &str) -> bool {
    if file.lines[line].comment.contains(token) {
        return true;
    }
    let mut i = line;
    while i > 0 {
        i -= 1;
        let l = &file.lines[i];
        if l.comment.contains(token) {
            return true;
        }
        if !l.code.trim().is_empty() {
            return false;
        }
    }
    false
}

/// Walks from `line` up to the first line of the statement it belongs
/// to: while the previous code line visibly continues into this one
/// (ends with `=`, an opening delimiter, an operator, or a dot-chain),
/// the statement started earlier. A heuristic, but a conservative one —
/// it only ever *widens* where an annotation may sit.
fn statement_anchor(file: &ScannedFile, line: usize) -> usize {
    let mut i = line;
    while i > 0 {
        let prev = file.lines[i - 1].code.trim_end();
        let cur = file.lines[i].code.trim_start();
        // Continuation either way round: the previous line visibly dangles
        // (`let x =`), or this line visibly chains (`.expect(..)`).
        let continues = ["=", "(", "[", ",", "+", "&&", "||", "->", "."]
            .iter()
            .any(|suffix| prev.ends_with(suffix))
            || cur.starts_with('.')
            || cur.starts_with('?');
        if !continues {
            return i;
        }
        i -= 1;
    }
    i
}

/// Is this `Ordering::Relaxed` use covered by a `// RELAXED:` comment on
/// the same line or within the preceding [`RELAXED_WINDOW`] lines?
fn relaxed_justified(file: &ScannedFile, line: usize) -> bool {
    let lo = line.saturating_sub(RELAXED_WINDOW);
    (lo..=line).any(|i| file.lines[i].comment.contains("RELAXED:"))
}

/// Per-rule suppression-comment lookup for `line`.
fn lint_allowed(file: &ScannedFile, line: usize, rule: &str) -> bool {
    annotated_above(file, line, &format!("LINT-ALLOW({rule}):"))
}

/// Rule `annotation`: every `LINT-ALLOW` must name a known rule and give
/// a non-empty reason — an unexplained suppression is itself a violation.
fn check_annotations(path: &str, file: &ScannedFile, out: &mut Vec<Diagnostic>) {
    const KNOWN: &[&str] = &["panic", "wallclock", "float-eq"];
    for (idx, l) in file.lines.iter().enumerate() {
        let comment = &l.comment;
        let mut from = 0;
        while let Some(rel) = comment[from..].find("LINT-ALLOW") {
            let after = from + rel + "LINT-ALLOW".len();
            if !comment[after..].starts_with('(') {
                // The marker followed by a bare `rule:` is an attempted
                // annotation that forgot the parens. A prose mention (no
                // trailing `word:`) is fine; docs talk about the grammar.
                let attempted = comment[after..]
                    .trim_start()
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
                    .count()
                    > 0
                    && comment[after..]
                        .trim_start()
                        .trim_start_matches(|c: char| {
                            c.is_ascii_alphanumeric() || c == '-' || c == '_'
                        })
                        .starts_with(':');
                if attempted {
                    out.push(Diagnostic {
                        path: path.to_owned(),
                        line: idx + 1,
                        rule: "annotation",
                        message: "malformed LINT-ALLOW: rule must be parenthesized, \
                                  `LINT-ALLOW(<rule>): <reason>`"
                            .to_owned(),
                    });
                }
                from = after;
                continue;
            }
            let at = after + 1;
            from = at;
            let Some(close) = comment[at..].find(')') else {
                out.push(Diagnostic {
                    path: path.to_owned(),
                    line: idx + 1,
                    rule: "annotation",
                    message: "malformed LINT-ALLOW: missing `)`".to_owned(),
                });
                continue;
            };
            let rule = &comment[at..at + close];
            let rest = &comment[at + close + 1..];
            if !KNOWN.contains(&rule) {
                out.push(Diagnostic {
                    path: path.to_owned(),
                    line: idx + 1,
                    rule: "annotation",
                    message: format!(
                        "LINT-ALLOW names unknown rule `{rule}` (known: {})",
                        KNOWN.join(", ")
                    ),
                });
            }
            let reason = rest.strip_prefix(':').map(str::trim);
            if reason.is_none_or(str::is_empty) {
                out.push(Diagnostic {
                    path: path.to_owned(),
                    line: idx + 1,
                    rule: "annotation",
                    message: format!("LINT-ALLOW({rule}) must carry `: <reason>`"),
                });
            }
        }
    }
}

/// Rule `panic`: the panic family is banned in serving-path modules
/// outside test code, except behind `// LINT-ALLOW(panic): <reason>`.
fn check_panics(path: &str, file: &ScannedFile, out: &mut Vec<Diagnostic>) {
    const CALLS: &[&str] = &["unwrap", "expect"];
    const MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
    for (idx, l) in file.lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        let mut hits: Vec<&str> = Vec::new();
        for &call in CALLS {
            for at in word_positions(&l.code, call) {
                // Must be a call: `unwrap()` / `expect(` — this is what
                // keeps `unwrap_or_else` and friends out of scope.
                let rest = l.code[at + call.len()..].trim_start();
                let is_call = match call {
                    "unwrap" => rest.starts_with("()"),
                    _ => rest.starts_with('('),
                };
                if is_call {
                    hits.push(call);
                }
            }
        }
        for &mac in MACROS {
            for at in word_positions(&l.code, mac) {
                if l.code[at + mac.len()..].trim_start().starts_with('!') {
                    hits.push(mac);
                }
            }
        }
        for name in hits {
            // Anchor at the statement start so a chained `.expect(..)` on
            // its own line is covered by the comment above the chain.
            let anchor = statement_anchor(file, idx);
            if !lint_allowed(file, idx, "panic") && !lint_allowed(file, anchor, "panic") {
                out.push(Diagnostic {
                    path: path.to_owned(),
                    line: idx + 1,
                    rule: "panic",
                    message: format!(
                        "`{name}` in a serving-path module — return a typed error, use \
                         divtopk_core::sync, or justify with `// LINT-ALLOW(panic): <reason>`"
                    ),
                });
            }
        }
    }
}

/// Rule `safety`: every `unsafe` **block** (not `unsafe fn`/`unsafe
/// impl` signatures) needs a `// SAFETY:` comment directly above or on
/// the same line. Applies everywhere, test code included — soundness
/// arguments do not get weekends off.
fn check_unsafe(path: &str, file: &ScannedFile, out: &mut Vec<Diagnostic>) {
    for (idx, l) in file.lines.iter().enumerate() {
        for at in word_positions(&l.code, "unsafe") {
            let rest = l.code[at + "unsafe".len()..].trim_start();
            // An unsafe *block* is `unsafe {`; `unsafe fn`/`unsafe impl`/
            // `unsafe trait` declare obligations rather than discharge
            // them, and a brace-on-next-line layout still shows `unsafe`
            // at end of line (rest is empty) — treat that as a block too.
            let is_block = rest.starts_with('{') || rest.is_empty();
            // Anchor at the start of the enclosing statement: in
            // `let x: T =\n    unsafe { .. };` the SAFETY comment sits
            // above the `let`, which is where a reader looks for it.
            let anchor = statement_anchor(file, idx);
            if is_block && !annotated_above(file, anchor, "SAFETY:") {
                out.push(Diagnostic {
                    path: path.to_owned(),
                    line: idx + 1,
                    rule: "safety",
                    message: "`unsafe` block without a `// SAFETY:` comment explaining why \
                              every obligation holds"
                        .to_owned(),
                });
            }
        }
    }
}

/// Rules `ordering` + `relaxed` (see module docs for the heuristics).
fn check_atomics(path: &str, source: &str, file: &ScannedFile, out: &mut Vec<Diagnostic>) {
    let imports_atomics = source.contains("sync::atomic");
    for (idx, l) in file.lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        let unambiguous = UNAMBIGUOUS_ATOMIC_METHODS.iter().flat_map(|m| {
            word_positions(&l.code, m)
                .into_iter()
                .map(move |at| (*m, at))
        });
        let ambiguous = AMBIGUOUS_ATOMIC_METHODS
            .iter()
            .filter(|_| imports_atomics)
            .flat_map(|m| {
                word_positions(&l.code, m)
                    .into_iter()
                    .map(move |at| (*m, at))
            });
        for (method, at) in unambiguous.chain(ambiguous) {
            // Must be a method call: `.method(`.
            let before = l.code[..at].trim_end();
            let rest = l.code[at + method.len()..].trim_start();
            if !before.ends_with('.') || !rest.starts_with('(') {
                continue;
            }
            if !call_args_contain(file, idx, at + method.len(), "Ordering::") {
                out.push(Diagnostic {
                    path: path.to_owned(),
                    line: idx + 1,
                    rule: "ordering",
                    message: format!(
                        "`.{method}(...)` looks atomic but names no explicit `Ordering`"
                    ),
                });
            }
        }
        for at in word_positions(&l.code, "Relaxed") {
            let is_ordering = l.code[..at].trim_end().ends_with("Ordering::");
            if is_ordering && !relaxed_justified(file, idx) {
                out.push(Diagnostic {
                    path: path.to_owned(),
                    line: idx + 1,
                    rule: "relaxed",
                    message: format!(
                        "`Ordering::Relaxed` without a `// RELAXED:` justification on this line \
                         or within the {RELAXED_WINDOW} lines above"
                    ),
                });
            }
        }
    }
}

/// Scans forward from the `(` at or after (`line`, `col`) to its matching
/// `)` (across lines), checking whether the argument text contains
/// `needle`. Unterminated calls (never on rustc-accepted code) scan to
/// end of file.
fn call_args_contain(file: &ScannedFile, line: usize, col: usize, needle: &str) -> bool {
    let mut depth = 0i64;
    let mut started = false;
    let mut args = String::new();
    for (idx, l) in file.lines.iter().enumerate().skip(line) {
        let code = if idx == line { &l.code[col..] } else { &l.code };
        for ch in code.chars() {
            match ch {
                '(' => {
                    depth += 1;
                    started = true;
                }
                ')' => depth -= 1,
                _ => {}
            }
            if started {
                args.push(ch);
                if depth <= 0 {
                    return args.contains(needle);
                }
            }
        }
        args.push(' ');
    }
    args.contains(needle)
}

/// Rule `wallclock`: no `Instant::now`/`SystemTime::now` in
/// deterministic modules outside test code, except behind
/// `// LINT-ALLOW(wallclock): <reason>`.
fn check_wallclock(path: &str, file: &ScannedFile, out: &mut Vec<Diagnostic>) {
    for (idx, l) in file.lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        for pattern in ["Instant::now", "SystemTime::now"] {
            if l.code.contains(pattern) && !lint_allowed(file, idx, "wallclock") {
                out.push(Diagnostic {
                    path: path.to_owned(),
                    line: idx + 1,
                    rule: "wallclock",
                    message: format!(
                        "`{pattern}` in a deterministic module — outputs here must be a pure \
                         function of the seed; justify measurement-only uses with \
                         `// LINT-ALLOW(wallclock): <reason>`"
                    ),
                });
            }
        }
    }
}

/// Rule `float-eq`: `==`/`!=` where an operand is lexically a float —
/// a float literal (`0.0`, `1e-9`, `1.5f64`) or an `f64::`/`f32::`/
/// `as f64`/`as f32` expression. Type-blind by design: it catches the
/// sentinel-comparison idiom that actually appears in review, and the
/// committed annotations document the sound exceptions.
fn check_float_eq(path: &str, file: &ScannedFile, out: &mut Vec<Diagnostic>) {
    for (idx, l) in file.lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        let code = &l.code;
        let bytes = code.as_bytes();
        for at in 0..bytes.len().saturating_sub(1) {
            let two = &code[at..at + 2];
            if two != "==" && two != "!=" {
                continue;
            }
            // Reject `<=`, `>=`, `===`-like runs and pattern `=>`.
            let prev = if at == 0 { b' ' } else { bytes[at - 1] };
            if two == "==" && matches!(prev, b'=' | b'!' | b'<' | b'>') {
                continue;
            }
            if bytes.get(at + 2) == Some(&b'=') {
                continue;
            }
            let lhs = operand_text(&code[..at], false);
            let rhs = operand_text(&code[at + 2..], true);
            if (float_operand(&lhs) || float_operand(&rhs)) && !lint_allowed(file, idx, "float-eq")
            {
                out.push(Diagnostic {
                    path: path.to_owned(),
                    line: idx + 1,
                    rule: "float-eq",
                    message: "direct float `==`/`!=` comparison — use an epsilon, compare \
                              `to_bits()`, or justify with `// LINT-ALLOW(float-eq): <reason>`"
                        .to_owned(),
                });
            }
        }
    }
}

/// The operand text adjacent to a comparison operator: the span up to
/// the nearest expression separator.
fn operand_text(side: &str, forward: bool) -> String {
    const SEPARATORS: &[char] = &[',', ';', '{', '}', '&', '|', '(', ')'];
    if forward {
        let end = side.find(SEPARATORS).unwrap_or(side.len());
        side[..end].trim().to_owned()
    } else {
        let start = side.rfind(SEPARATORS).map_or(0, |i| i + 1);
        side[start..].trim().to_owned()
    }
}

/// Lexically float: contains a float literal (`digit . digit`, not a
/// tuple-field chain like `x.0.1`, optionally with exponent/suffix), an
/// exponent literal (`1e-9`), or an `f64`/`f32` marker.
fn float_operand(text: &str) -> bool {
    if text.contains("f64") || text.contains("f32") {
        return true;
    }
    if text.contains("0x") || text.contains("0X") {
        // Hex literals (`0x1E3`) would otherwise satisfy the exponent
        // heuristic below; hex is integral, never float.
        return false;
    }
    let bytes = text.as_bytes();
    for i in 0..bytes.len() {
        if bytes[i] != b'.' {
            continue;
        }
        let digit_before = i > 0 && bytes[i - 1].is_ascii_digit();
        let digit_after = i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit();
        if !(digit_before && digit_after) {
            continue;
        }
        // Walk back over the integer part; `x.0.1` (tuple fields) has a
        // `.` or identifier char in front of it — not a literal.
        let mut j = i - 1;
        while j > 0 && (bytes[j - 1].is_ascii_digit() || bytes[j - 1] == b'_') {
            j -= 1;
        }
        let lead = if j == 0 { b' ' } else { bytes[j - 1] };
        if lead != b'.' && !lead.is_ascii_alphabetic() && lead != b'_' {
            return true;
        }
    }
    // Exponent form without a dot: `1e9`, `2E-3`.
    for i in 0..bytes.len() {
        if (bytes[i] == b'e' || bytes[i] == b'E')
            && i > 0
            && bytes[i - 1].is_ascii_digit()
            && i + 1 < bytes.len()
        {
            let next = bytes[i + 1];
            let exp_start = if next == b'+' || next == b'-' {
                i + 2
            } else {
                i + 1
            };
            if exp_start < bytes.len() && bytes[exp_start].is_ascii_digit() {
                return true;
            }
        }
    }
    false
}
