//! Per-rule fixtures for the invariant linter: for every rule, a snippet
//! where it fires, a snippet where the blessed annotation suppresses it,
//! and a snippet that is out of the rule's scope (wrong module, test
//! code, or a lookalike token the lexer must not confuse).

use divtopk_lint::rules::lint_source;

/// Rules fired on `source` when linted under `path`, as `(line, rule)`.
fn fired(path: &str, source: &str) -> Vec<(usize, &'static str)> {
    lint_source(path, source)
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect()
}

fn rules(path: &str, source: &str) -> Vec<&'static str> {
    fired(path, source).into_iter().map(|(_, r)| r).collect()
}

// ------------------------------------------------------------------ panic

#[test]
fn panic_rule_fires_in_serving_modules() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    assert_eq!(
        fired("crates/engine/src/server.rs", src),
        vec![(2, "panic")]
    );
    let src = "fn f() {\n    panic!(\"boom\");\n}\n";
    assert_eq!(fired("crates/core/src/pool.rs", src), vec![(2, "panic")]);
    let src = "fn f(x: Result<u8, u8>) -> u8 {\n    x.expect(\"must\")\n}\n";
    assert_eq!(fired("crates/engine/src/proto.rs", src), vec![(2, "panic")]);
}

#[test]
fn panic_rule_covers_every_file_under_the_persist_directory() {
    // The snapshot loader reads untrusted bytes in every module of
    // `persist/`, so the rule names the directory, not one file.
    let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    for path in [
        "crates/text/src/persist/segment.rs",
        "crates/text/src/persist/mod.rs",
    ] {
        assert_eq!(fired(path, src), vec![(2, "panic")], "{path}");
    }
    // A sibling file whose name merely starts the same is not under it.
    assert_eq!(
        rules("crates/text/src/persistence.rs", src),
        Vec::<&str>::new()
    );
    // A test module in a file of its own under `#![cfg(test)]` is test
    // code.
    let src = "#![cfg(test)]\nfn t(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    assert_eq!(
        rules("crates/text/src/persist/tests.rs", src),
        Vec::<&str>::new()
    );
}

#[test]
fn panic_rule_suppressed_by_annotation() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    // LINT-ALLOW(panic): structurally infallible here\n    x.unwrap()\n}\n";
    assert_eq!(
        rules("crates/engine/src/engine.rs", src),
        Vec::<&str>::new()
    );
    // Same-line form.
    let src =
        "fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // LINT-ALLOW(panic): checked above\n}\n";
    assert_eq!(
        rules("crates/engine/src/engine.rs", src),
        Vec::<&str>::new()
    );
    // A chained call on its own line is covered by the comment above the
    // statement the chain belongs to.
    let src = "fn f(x: Option<u32>) -> u32 {\n    // LINT-ALLOW(panic): slot always filled\n    x.map(|v| v + 1)\n        .unwrap()\n}\n";
    assert_eq!(
        rules("crates/engine/src/engine.rs", src),
        Vec::<&str>::new()
    );
}

#[test]
fn panic_rule_out_of_scope() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    // Not a serving-path module.
    assert_eq!(rules("crates/core/src/graph.rs", src), Vec::<&str>::new());
    // Test code inside a serving module.
    let src = "#[cfg(test)]\nmod tests {\n    fn t(x: Option<u32>) -> u32 { x.unwrap() }\n}\n";
    assert_eq!(
        rules("crates/engine/src/server.rs", src),
        Vec::<&str>::new()
    );
    // `unwrap_or_else` is not `unwrap`; doc text and strings never fire.
    let src = "fn f(x: Option<u32>) -> u32 {\n    let s = \"call unwrap() later\";\n    let _ = s;\n    x.unwrap_or_else(|| 0)\n}\n// unwrap() in a comment\n";
    assert_eq!(
        rules("crates/engine/src/server.rs", src),
        Vec::<&str>::new()
    );
}

// ----------------------------------------------------------------- safety

#[test]
fn safety_rule_fires_on_uncommented_unsafe_block() {
    let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    assert_eq!(fired("crates/core/src/pool.rs", src), vec![(2, "safety")]);
}

#[test]
fn safety_rule_suppressed_by_safety_comment() {
    let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p }\n}\n";
    assert_eq!(rules("crates/core/src/pool.rs", src), Vec::<&str>::new());
    // Two-line statement: comment above the `let`, unsafe on line 2.
    let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid\n    let v: u8 =\n        unsafe { *p };\n    v\n}\n";
    assert_eq!(rules("crates/core/src/pool.rs", src), Vec::<&str>::new());
}

#[test]
fn safety_rule_out_of_scope() {
    // `unsafe fn` / `unsafe impl` declare obligations; only blocks
    // discharge them. (The rule applies in test code too, so in_test is
    // not an exemption here — out-of-scope means non-block uses.)
    let src = "unsafe fn f(p: *const u8) -> *const u8 {\n    p\n}\nunsafe impl Send for X {}\nstruct X;\n";
    assert_eq!(rules("crates/core/src/pool.rs", src), Vec::<&str>::new());
}

// ------------------------------------------------------- ordering/relaxed

#[test]
fn ordering_rule_fires_on_orderingless_atomic_call() {
    let src = "use std::sync::atomic::AtomicUsize;\nfn f(c: &AtomicUsize, o: u8) -> usize {\n    c.fetch_add(1, order_of(o))\n}\n";
    assert_eq!(
        fired("crates/core/src/metrics.rs", src),
        vec![(3, "ordering")]
    );
}

#[test]
fn ordering_rule_accepts_explicit_ordering_even_multiline() {
    let src = "use std::sync::atomic::{AtomicUsize, Ordering};\nfn f(c: &AtomicUsize) -> usize {\n    c.fetch_add(\n        1,\n        Ordering::SeqCst,\n    )\n}\n";
    assert_eq!(rules("crates/core/src/metrics.rs", src), Vec::<&str>::new());
}

#[test]
fn ordering_rule_out_of_scope_for_non_atomic_lookalikes() {
    // `Vec::swap` and a `load` method on a plain struct: ambiguous names
    // only count in files that import sync::atomic.
    let src = "fn f(v: &mut Vec<u32>, s: &Shard) -> u32 {\n    v.swap(0, 1);\n    s.load(3)\n}\n";
    assert_eq!(rules("crates/core/src/rng.rs", src), Vec::<&str>::new());
}

#[test]
fn relaxed_rule_fires_and_is_justified_by_window_comment() {
    let src = "use std::sync::atomic::{AtomicUsize, Ordering};\nfn f(c: &AtomicUsize) -> usize {\n    c.fetch_add(1, Ordering::Relaxed)\n}\n";
    assert_eq!(
        fired("crates/engine/src/histogram.rs", src),
        vec![(3, "relaxed")]
    );
    let src = "use std::sync::atomic::{AtomicUsize, Ordering};\nfn f(c: &AtomicUsize) -> usize {\n    // RELAXED: monotonic counter, no ordering needed\n    c.fetch_add(1, Ordering::Relaxed)\n}\n";
    assert_eq!(
        rules("crates/engine/src/histogram.rs", src),
        Vec::<&str>::new()
    );
    // One comment covers a cluster within the window.
    let src = "use std::sync::atomic::{AtomicUsize, Ordering};\nfn f(a: &AtomicUsize, b: &AtomicUsize) -> usize {\n    // RELAXED: stats snapshot, torn reads fine\n    a.load(Ordering::Relaxed) + b.load(Ordering::Relaxed)\n}\n";
    assert_eq!(
        rules("crates/engine/src/histogram.rs", src),
        Vec::<&str>::new()
    );
}

#[test]
fn relaxed_rule_ignores_cmp_ordering_and_test_code() {
    let src = "fn f(a: u32, b: u32) -> std::cmp::Ordering {\n    a.cmp(&b)\n}\n";
    assert_eq!(rules("crates/core/src/score.rs", src), Vec::<&str>::new());
    let src = "#[cfg(test)]\nmod tests {\n    use std::sync::atomic::{AtomicUsize, Ordering};\n    fn t(c: &AtomicUsize) -> usize { c.load(Ordering::Relaxed) }\n}\n";
    assert_eq!(rules("crates/core/src/metrics.rs", src), Vec::<&str>::new());
}

// -------------------------------------------------------------- wallclock

#[test]
fn wallclock_rule_fires_in_deterministic_modules() {
    let src = "fn f() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    assert_eq!(
        fired("crates/bench/src/workload.rs", src),
        vec![(2, "wallclock")]
    );
    let src = "fn f() -> std::time::SystemTime {\n    std::time::SystemTime::now()\n}\n";
    assert_eq!(
        fired("crates/core/src/testgen.rs", src),
        vec![(2, "wallclock")]
    );
}

#[test]
fn wallclock_rule_suppressed_and_out_of_scope() {
    let src = "fn f() -> std::time::Instant {\n    // LINT-ALLOW(wallclock): latency measurement only\n    std::time::Instant::now()\n}\n";
    assert_eq!(
        rules("crates/bench/src/quality.rs", src),
        Vec::<&str>::new()
    );
    // Timing is the whole point outside the deterministic modules.
    let src = "fn f() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    assert_eq!(rules("crates/bench/src/lib.rs", src), Vec::<&str>::new());
}

// --------------------------------------------------------------- float-eq

#[test]
fn float_eq_rule_fires_on_float_comparisons() {
    let src = "fn f(x: f64) -> bool {\n    x == 0.0\n}\n";
    assert_eq!(
        fired("crates/core/src/score.rs", src),
        vec![(2, "float-eq")]
    );
    let src = "fn f(x: f32) -> bool {\n    x != 1.5f32\n}\n";
    assert_eq!(
        fired("crates/core/src/score.rs", src),
        vec![(2, "float-eq")]
    );
}

#[test]
fn float_eq_rule_suppressed_and_out_of_scope() {
    let src = "fn f(x: f64) -> bool {\n    // LINT-ALLOW(float-eq): sentinel compare, exactly representable\n    x == 0.0\n}\n";
    assert_eq!(rules("crates/core/src/score.rs", src), Vec::<&str>::new());
    // Integer comparisons, tuple-index chains, and hex literals must not
    // look like floats.
    let src = "fn f(x: u64, t: (u32, (u32, u32))) -> bool {\n    x == 0 && t.0 == t.1.0 && x == 0x1E3\n}\n";
    assert_eq!(rules("crates/core/src/score.rs", src), Vec::<&str>::new());
    // Test code is exempt (oracle tests pin exact values on purpose).
    let src = "#[cfg(test)]\nmod tests {\n    fn t(x: f64) -> bool { x == 0.25 }\n}\n";
    assert_eq!(rules("crates/core/src/score.rs", src), Vec::<&str>::new());
}

// ------------------------------------------------------------- annotation

#[test]
fn annotation_rule_rejects_unknown_rule_and_missing_reason() {
    let src =
        "fn f(x: Option<u32>) -> u32 {\n    // LINT-ALLOW(bogus): whatever\n    x.unwrap()\n}\n";
    let got = fired("crates/engine/src/server.rs", src);
    assert!(
        got.contains(&(2, "annotation")) && got.contains(&(3, "panic")),
        "unknown rule is flagged and does not suppress: {got:?}"
    );
    let src = "fn f(x: Option<u32>) -> u32 {\n    // LINT-ALLOW(panic):\n    x.unwrap()\n}\n";
    let got = fired("crates/engine/src/server.rs", src);
    assert!(
        got.contains(&(2, "annotation")),
        "reason-less allow is flagged: {got:?}"
    );
    let src = "fn f() {\n    // LINT-ALLOW panic: missing parens\n}\n";
    let got = fired("crates/engine/src/server.rs", src);
    assert!(
        got.contains(&(2, "annotation")),
        "malformed allow is flagged: {got:?}"
    );
}

#[test]
fn annotation_rule_accepts_well_formed_allows() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    // LINT-ALLOW(panic): structurally infallible\n    x.unwrap()\n}\n";
    assert_eq!(
        rules("crates/engine/src/server.rs", src),
        Vec::<&str>::new()
    );
}

// ----------------------------------------------------------------- lexing

#[test]
fn lexer_keeps_rules_out_of_strings_and_comments() {
    // A serving module whose only "violations" live in literals and docs.
    let src = concat!(
        "/// Call unwrap() at your peril; panic!(\"no\") is worse.\n",
        "fn f() -> String {\n",
        "    let a = \"x.unwrap()\";\n",
        "    let b = r#\"panic!(\"deep\")\"#;\n",
        "    format!(\"{a}{b}\")\n",
        "}\n",
    );
    assert_eq!(
        rules("crates/engine/src/server.rs", src),
        Vec::<&str>::new()
    );
}
