//! Cold-start persistence demo: build → mutate → save → load → serve.
//!
//! Builds a serving engine, mutates it live, persists the whole serving
//! state to a checksummed snapshot directory (DESIGN.md §14), restores a
//! second engine from it, and shows the restored engine answering
//! byte-identically. It then checkpoints again after another mutation to
//! show the incremental save writing only the delta, and demonstrates
//! that corrupt snapshot bytes come back as a typed error, never a
//! panic. Run with:
//!
//! ```text
//! cargo run --release --example persistence
//! ```

use divtopk::engine::prelude::*;
use divtopk::text::persist::SnapshotError;
use divtopk::text::prelude::*;

fn main() {
    // Build the epoch and mutate it, so the snapshot carries segments,
    // tombstones, and a non-zero generation — real serving state, not a
    // freshly built index.
    let mut b = Corpus::builder();
    b.add_text("rust-1", "rust memory safety borrow checker");
    b.add_text("rust-2", "rust memory safety borrow checker ownership");
    b.add_text("rust-3", "rust async web services tokio");
    b.add_text("go", "goroutines channels simple concurrency");
    for i in 0..8 {
        b.add_text(&format!("f{i}"), "unrelated archive filler text");
    }
    let corpus = b.build();
    let rust = corpus.term_id("rust").unwrap();

    let engine = Engine::new(corpus, EngineConfig::new(2));
    engine.add_text("rust-4", "rust embedded no-std firmware");
    engine.delete_docs(&[1]); // retract the near-duplicate
    let options = SearchOptions::new(3).with_tau(0.5);
    let before = engine.search(&Query::Scan(rust), &options).unwrap();
    println!(
        "live engine: generation {}, {} hits",
        engine.generation(),
        before.hits.len()
    );

    // Persist the full serving state: corpus epoch, document chunks,
    // one file per segment (a small segment as its doc ids, rebuilt bit
    // for bit at load), tombstones, generation — each file checksummed,
    // tied together by a manifest.
    let path =
        std::env::temp_dir().join(format!("divtopk-example-{}.snapshot", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    let report = engine.save_snapshot(&path).unwrap();
    println!(
        "saved snapshot: {} files, {} bytes → {}",
        report.files_written,
        report.bytes_written,
        path.display()
    );

    // Cold start: a brand-new engine restored from the directory. No
    // tokenizing, no sorting, no statistics recomputation — and the
    // answers are byte-identical, early-stop metrics included.
    let restored = Engine::load_snapshot(&path, &EngineConfig::default()).unwrap();
    let after = restored.search(&Query::Scan(rust), &options).unwrap();
    assert_eq!(before, after);
    assert_eq!(restored.generation(), engine.generation());
    restored.verify_rebuild_equivalence().unwrap();
    println!(
        "restored engine: generation {} · answers byte-identical ✓",
        restored.generation()
    );

    // The restored engine is a full serving engine: mutations continue
    // from the saved generation — and the next checkpoint is O(delta):
    // unchanged segment and chunk files are reused on disk, only the new
    // segment, the grown tail chunk (under a new name), and the manifest
    // are written.
    restored.add_text("rust-5", "rust compiler diagnostics");
    let second = restored.save_snapshot(&path).unwrap();
    println!(
        "incremental checkpoint: generation {} · wrote {} files ({} bytes), reused {}",
        restored.generation(),
        second.files_written,
        second.bytes_written,
        second.files_reused
    );

    // Corruption is a typed error, never a panic: flip one payload bit
    // in one of the segment files.
    let segment_file = std::fs::read_dir(&path)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-"))
        })
        .expect("snapshot contains a segment file");
    let mut corrupt = std::fs::read(&segment_file).unwrap();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 1;
    std::fs::write(&segment_file, &corrupt).unwrap();
    match Engine::load_snapshot(&path, &EngineConfig::default()) {
        Err(e @ SnapshotError::ChecksumMismatch { .. }) => {
            println!("corrupt snapshot rejected: {e}");
        }
        other => panic!("expected a checksum mismatch, got {other:?}"),
    }
    std::fs::remove_dir_all(&path).unwrap();
}
