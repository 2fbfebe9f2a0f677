//! The quality gate's evidence is committed: `quality_gate --out` on the
//! default pack must write exactly `tests/data/quality_evidence.md`. The
//! evaluation reads no clock, so any difference is a change in what the
//! diversity modes return, in the pack, or in the gates, and the diff of
//! the regenerated file is the review.

use std::process::Command;

/// The committed table, relative to the workspace root.
const COMMITTED: &str = "tests/data/quality_evidence.md";

#[test]
fn the_default_pack_reproduces_the_committed_evidence() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("quality_evidence-{}.md", std::process::id()));
    let run = Command::new(env!("CARGO_BIN_EXE_quality_gate"))
        .arg("--out")
        .arg(&out)
        .output()
        .expect("spawning quality_gate");
    let stderr = String::from_utf8_lossy(&run.stderr);
    // The table is written whatever the verdict, so a failing gate still
    // shows which line moved before its exit status is checked.
    let written = std::fs::read_to_string(&out)
        .unwrap_or_else(|e| panic!("reading the --out file: {e}; quality_gate said: {stderr}"));
    std::fs::remove_file(&out).ok();
    assert_eq!(
        written.as_bytes(),
        run.stdout,
        "--out must write the bytes quality_gate prints"
    );
    let committed = std::fs::read_to_string(format!("{root}/{COMMITTED}"))
        .unwrap_or_else(|e| panic!("reading {COMMITTED}: {e}"));
    if written != committed {
        let got: Vec<&str> = written.lines().collect();
        let want: Vec<&str> = committed.lines().collect();
        // Texts that differ only past their last line break report the
        // line after the end.
        let end = got.len().max(want.len());
        let i = (0..end).find(|&i| got.get(i) != want.get(i)).unwrap_or(end);
        let line = |text: &Vec<&str>| text.get(i).map_or("<end of file>", |l| *l).to_owned();
        panic!(
            "quality_gate's evidence differs from {COMMITTED} at line {}:\n  \
             committed: {}\n  generated: {}\n\
             If the change is meant, regenerate the file with\n  \
             cargo run --release -p divtopk-bench --bin quality_gate -- --out {COMMITTED}\n\
             and review its diff. quality_gate said:\n{stderr}",
            i + 1,
            line(&want),
            line(&got),
        );
    }
    assert!(
        run.status.success(),
        "quality_gate exited {}: {stderr}",
        run.status
    );
    assert!(stderr.contains("PASS (9 families)"), "{stderr}");
}
