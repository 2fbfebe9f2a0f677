//! `snapshot` — the CI cross-process persistence gate (DESIGN.md §14).
//!
//! Three subcommands; `save` and `check` run in **separate CI jobs**
//! with only the snapshot directory travelling between them as a build
//! artifact:
//!
//! ```text
//! snapshot save  --out DIR       # build the reference serving state, persist it
//! snapshot check --in  DIR       # rebuild the same state from scratch, load the
//!                                # artifact, assert byte-equality of every answer
//! snapshot incremental --dir DIR # save, mutate, save again; assert the second
//!                                # checkpoint rewrote no file but the manifest and
//!                                # added only the new segment and the grown tail
//!                                # chunk (by content diff), and that the new
//!                                # segment file is its doc ids, 2 B a document
//! ```
//!
//! Both sides construct the *same deterministic reference state*
//! (seeded synthetic corpus + a scripted mutation log), so `check` can
//! compare the loaded engine against a fresh in-process rebuild without
//! any side channel. Every segment file is its doc ids — the two base
//! segments of at least [`CHUNK`] documents as much as the batches — so
//! the load in the other process rebuilds every list.
//! Because save and load happen in different
//! processes — and, in CI, in different jobs on different runners — the
//! comparison catches host- or build-dependence in the format (struct
//! layout leaks, endianness mistakes, uninitialized padding) that a
//! same-process round-trip test can never see.
//!
//! `check` asserts full [`SearchOutput`] equality (hits, total score,
//! metrics — early-stop point included) for scans *and* TA queries, plus
//! the data-level `verify_rebuild_equivalence` oracle on the loaded
//! state, and fails loudly (a panic naming the divergence) on the first
//! one. A directory it cannot read or write is not a divergence: that is
//! one `snapshot: …` line naming the path and the error, exit 1; a bad
//! command line is the usage line, exit 2.

use divtopk_core::rng::Pcg;
use divtopk_engine::prelude::*;
use divtopk_text::persist;
use divtopk_text::prelude::*;

/// Deterministic seed for the reference state and query selection.
const SEED: u64 = 0x0510;

/// The reference serving state: a 2 100-document reuters-like base epoch
/// partitioned into 2 segments of at least
/// [`CHUNK`] documents, plus a
/// scripted add/delete/compact log — so the snapshot exercises every
/// file kind and section type (segment id files, tombstones, a bumped
/// compaction counter, a non-zero generation).
fn reference_engine() -> Engine {
    let base_docs = 2_100usize;
    let pool = 60usize;
    let donor = generate(&SynthConfig::reuters_like().with_num_docs(base_docs + pool));
    let mut builder = CorpusBuilder::with_synthetic_vocab(donor.num_terms());
    for d in 0..base_docs as DocId {
        builder.add_document(donor.doc(d).clone());
    }
    let engine = Engine::new(builder.build(), EngineConfig::new(2));
    let mut rng = Pcg::new(SEED);
    let mut next = base_docs as DocId;
    for round in 0..4 {
        let batch: Vec<Document> = (next..next + 15).map(|d| donor.doc(d).clone()).collect();
        engine.add_docs(batch);
        next += 15;
        let victims: Vec<DocId> = (0..6).map(|_| rng.below(next)).collect();
        engine.delete_docs(&victims);
        if round % 2 == 1 {
            engine.compact();
        }
    }
    engine
}

/// The reference query set: scans and 2-keyword TA queries from the low
/// kfreq bands, deterministic given the corpus.
fn reference_queries(corpus: &Corpus) -> Vec<(Query, SearchOptions)> {
    let options = SearchOptions::new(8).with_tau(0.6).with_bound_decay(0.005);
    let mut queries = Vec::new();
    let mut seed = SEED;
    while queries.len() < 8 && seed < SEED + 10_000 {
        seed += 1;
        let band = 1 + (seed % 3) as u8;
        let terms = if queries.len() % 2 == 0 { 1 } else { 2 };
        if let Some(q) = query_for_band(corpus, band, terms, seed) {
            let query = if q.terms.len() == 1 {
                Query::Scan(q.terms[0])
            } else {
                Query::Keywords(q)
            };
            if !queries.iter().any(|(existing, _)| existing == &query) {
                queries.push((query, options.clone()));
            }
        }
    }
    assert!(queries.len() >= 4, "could not assemble the CI query set");
    queries
}

/// The directory could not be read or written: say which and why.
fn fail(why: String) -> ! {
    eprintln!("snapshot: {why}");
    std::process::exit(1);
}

fn save(path: &str) {
    let engine = reference_engine();
    let report = engine
        .save_snapshot(path)
        .unwrap_or_else(|e| fail(format!("saving {path}: {e}")));
    let contents = dir_contents(path);
    let segment_files: Vec<&String> = contents
        .keys()
        .filter(|name| name.starts_with("seg-"))
        .collect();
    for name in &segment_files {
        assert_eq!(
            persist::file_kind(&contents[*name]).ok(),
            Some(persist::KIND_SEGMENT_IDS),
            "segment file {name} is not a doc-id file"
        );
    }
    let ids = segment_files.len();
    eprintln!(
        "[snapshot save] generation {} · {} segments ({ids} id files) · \
         {} tombstones → {} files, {} bytes at {path}",
        engine.generation(),
        engine.stats().segments,
        engine.stats().tombstones,
        report.files_written,
        report.bytes_written,
    );
}

fn check(path: &str) {
    let loaded = Engine::load_snapshot(path, &EngineConfig::default())
        .unwrap_or_else(|e| fail(format!("loading {path}: {e}")));
    let fresh = reference_engine();
    assert_eq!(
        loaded.generation(),
        fresh.generation(),
        "generation diverged across processes"
    );
    let (l, f) = (loaded.stats(), fresh.stats());
    assert_eq!(l.segments, f.segments, "segment count diverged");
    assert_eq!(l.tombstones, f.tombstones, "tombstone count diverged");
    assert!(
        l.layout_from_snapshot && !f.layout_from_snapshot,
        "layout provenance must distinguish loaded from built engines"
    );
    loaded
        .verify_rebuild_equivalence()
        .expect("loaded state failed the rebuild-equivalence oracle");
    let queries = reference_queries(&fresh.corpus());
    let n = queries.len();
    for (i, (query, options)) in queries.into_iter().enumerate() {
        let want = fresh.search(&query, &options).expect("fresh query");
        let got = loaded.search(&query, &options).expect("loaded query");
        // Full-output equality: identical bits + identical segment layout
        // mean the whole pull sequence reproduces, so even the metrics
        // and early-stop point must match byte for byte.
        assert_eq!(
            want, got,
            "query {i} diverged between the loaded artifact and the fresh rebuild"
        );
    }
    eprintln!(
        "[snapshot check] {path}: {n} queries byte-identical to a fresh rebuild ✓ \
         (generation {}, {} segments, {} tombstones)",
        l.generation, l.segments, l.tombstones
    );
}

/// Every file in the snapshot directory, by name → content bytes. The
/// directory is small (the reference state is ~1.4 MB), so a full read is
/// the simplest honest way to detect rewrites.
fn dir_contents(path: &str) -> std::collections::BTreeMap<String, Vec<u8>> {
    let read = || -> std::io::Result<_> {
        let mut contents = std::collections::BTreeMap::new();
        for entry in std::fs::read_dir(path)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            contents.insert(name, std::fs::read(entry.path())?);
        }
        Ok(contents)
    };
    read().unwrap_or_else(|e| fail(format!("reading {path}: {e}")))
}

/// Bytes of a doc-id segment file around its ids: the file header and
/// its one `IDS ` section's header.
const ID_FILE_CONTAINER: u64 = (persist::HEADER_LEN + persist::SECTION_HEADER_LEN) as u64;

/// Bytes per document in the checked batch's doc-id segment file: its
/// share of the LEB128 count and a gap, 1 byte after the first id and 2
/// for the first (ids below 2¹⁴).
const ID_FILE_BYTES_PER_DOC: u64 = 2;

/// The incremental-checkpoint gate: after one mutation batch, the second
/// save must rewrite **no** existing file but the manifest — the grown
/// tail chunk goes to a new name, its CRC being part of it — and add
/// **only** the batch's new segment file and that chunk. Every other
/// file must be byte-identical on disk. This pins the O(delta) claim at
/// the file-system level, not just via `SaveReport`'s own accounting,
/// and that no save replaces a file the previous manifest names. The
/// new segment file must be a doc-id file of at most
/// [`ID_FILE_CONTAINER`] plus [`ID_FILE_BYTES_PER_DOC`] per document, so
/// a small batch whose postings are written, or an id list that grows
/// with the corpus, fails here.
fn incremental(path: &str) {
    let _ = std::fs::remove_dir_all(path);
    let engine = reference_engine();
    let first = engine
        .save_snapshot(path)
        .unwrap_or_else(|e| fail(format!("saving {path}: {e}")));
    let before = dir_contents(path);

    let n_terms = engine.corpus().num_terms() as TermId;
    let batch: Vec<Document> = (0..10u32)
        .map(|i| {
            Document::from_tokens(
                format!("inc{i}"),
                vec![i % n_terms, (i * 3 + 1) % n_terms, (i * 7 + 2) % n_terms],
            )
        })
        .collect();
    let batch_docs = batch.len() as u64;
    engine.add_docs(batch);
    engine.delete_docs(&[2, 5]);
    let second = engine
        .save_snapshot(path)
        .unwrap_or_else(|e| fail(format!("re-saving {path}: {e}")));
    let after = dir_contents(path);

    let mut rewritten: Vec<&str> = Vec::new();
    let mut added: Vec<&str> = Vec::new();
    for (name, bytes) in &after {
        match before.get(name) {
            None => added.push(name),
            Some(old) if old != bytes => rewritten.push(name),
            Some(_) => {}
        }
    }
    assert_eq!(
        rewritten,
        ["MANIFEST"],
        "incremental save rewrote an existing file other than the manifest"
    );
    let added_segments: Vec<&str> = added
        .iter()
        .copied()
        .filter(|n| n.starts_with("seg-") && n.ends_with(".bin"))
        .collect();
    let added_chunks = added
        .iter()
        .filter(|n| n.starts_with("docs-") && n.ends_with(".bin"))
        .count();
    assert!(
        added_segments.len() == 1 && added_chunks == 1 && added.len() == 2,
        "incremental save added {added:?}, expected one segment file and the tail chunk"
    );
    // A batch under one chunk of documents is saved as its doc ids:
    // the container, then a count and one gap per document.
    let segment = &after[added_segments[0]];
    assert_eq!(
        persist::file_kind(segment).ok(),
        Some(persist::KIND_SEGMENT_IDS),
        "the batch's segment file is not a doc-id file"
    );
    let segment_len = segment.len() as u64;
    let bound = ID_FILE_CONTAINER + ID_FILE_BYTES_PER_DOC * batch_docs;
    assert!(
        segment_len <= bound,
        "the batch's segment file is {segment_len} B, over the {bound} B its \
         {batch_docs} doc ids need"
    );
    let unchanged = after.len() - rewritten.len() - added.len();
    assert!(
        unchanged >= 3,
        "epoch and prior segments must survive untouched (only {unchanged} unchanged)"
    );
    assert_eq!(
        second.files_written,
        rewritten.len() + added.len(),
        "SaveReport accounting disagrees with the on-disk diff"
    );
    assert!(
        second.bytes_written * 2 < first.bytes_written,
        "incremental checkpoint wrote {} of {} initial bytes — not O(delta)",
        second.bytes_written,
        first.bytes_written
    );

    let loaded = Engine::load_snapshot(path, &EngineConfig::default())
        .unwrap_or_else(|e| panic!("loading {path}: {e}"));
    assert_eq!(loaded.generation(), engine.generation());
    loaded
        .verify_rebuild_equivalence()
        .expect("incrementally-checkpointed state failed the rebuild oracle");
    eprintln!(
        "[snapshot incremental] {path}: rewrote {:?}, added {:?}, {unchanged} files untouched \
         ({} of {} bytes) ✓",
        rewritten, added, second.bytes_written, first.bytes_written
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [cmd, flag, path] if cmd == "save" && flag == "--out" => save(path),
        [cmd, flag, path] if cmd == "check" && flag == "--in" => check(path),
        [cmd, flag, path] if cmd == "incremental" && flag == "--dir" => incremental(path),
        _ => {
            eprintln!(
                "usage: snapshot save --out DIR | snapshot check --in DIR | snapshot incremental --dir DIR"
            );
            std::process::exit(2);
        }
    }
}
