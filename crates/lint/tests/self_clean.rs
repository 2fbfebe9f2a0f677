//! The committed tree must be lint-clean: the same invariant CI's
//! `lint-invariants` job gates, pinned here so `cargo test` catches a
//! violation before a push does.

use divtopk_lint::walk::{lint_workspace, lintable_files};
use std::path::Path;

fn workspace_root() -> &'static Path {
    // crates/lint → crates → workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate sits two levels under the workspace root")
}

#[test]
fn committed_tree_is_lint_clean() {
    let diagnostics = lint_workspace(workspace_root()).expect("walk workspace");
    assert!(
        diagnostics.is_empty(),
        "lint violations in the committed tree:\n{}",
        diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn walker_sees_the_real_tree() {
    // Guard against a silently-wrong root (e.g. after a layout change):
    // the walk must find the serving modules the rules exist for.
    let files = lintable_files(workspace_root()).expect("walk workspace");
    let names: Vec<String> = files
        .iter()
        .map(|p| p.to_string_lossy().replace('\\', "/"))
        .collect();
    for expected in [
        "crates/core/src/pool.rs",
        "crates/core/src/prefetch.rs",
        "crates/core/src/sync.rs",
        "crates/engine/src/engine.rs",
        "crates/engine/src/server.rs",
        "crates/engine/src/proto.rs",
        "crates/text/src/persist/mod.rs",
        "crates/lint/src/rules.rs",
    ] {
        assert!(
            names.contains(&expected.to_owned()),
            "walker missed {expected}"
        );
    }
    // And must not wander into vendor or target trees.
    assert!(
        names
            .iter()
            .all(|n| !n.starts_with("vendor/") && !n.starts_with("target/")),
        "walker descended into vendor/ or target/"
    );
}
