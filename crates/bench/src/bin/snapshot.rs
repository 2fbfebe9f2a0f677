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
//!                                # checkpoint rewrote only the new segment, the
//!                                # tail chunk, and the manifest (by content diff),
//!                                # and that the new segment file is O(its postings)
//! ```
//!
//! Both sides construct the *same deterministic reference state*
//! (seeded synthetic corpus + a scripted mutation log), so `check` can
//! compare the loaded engine against a fresh in-process rebuild without
//! any side channel. Because save and load happen in different
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
use divtopk_text::prelude::*;

/// Deterministic seed for the reference state and query selection.
const SEED: u64 = 0x0510;

/// The reference serving state: a 700-document reuters-like base epoch
/// partitioned into 2 segments, plus a scripted add/delete/compact log —
/// so the snapshot exercises every section type (multiple segments,
/// tombstones, a bumped compaction counter, a non-zero generation).
fn reference_engine() -> Engine {
    let base_docs = 700usize;
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
    eprintln!(
        "[snapshot save] generation {} · {} segments · {} tombstones → {} files, {} bytes at {path}",
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
/// directory is small (the reference state is ~1 MB), so a full read is
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

/// Bytes of a segment file that are not posting lists: the file header
/// (magic, version, kind, section count: 20), its one `INDX` section's
/// header (16) and the payload prefix — the vocabulary size (8), the list
/// count and the base doc id (LEB128 of a 32-bit value, ≤ 5 each) and the
/// doc-offset and tf widths (1 each): ≤ 20.
const SEGMENT_FILE_OVERHEAD: u64 = 20 + 16 + 20;

/// Bytes per stored list in the checked batch's segment file: a term gap
/// and a length, LEB128, at most 2 bytes each (the batch's term ids and
/// list lengths are far below 2¹⁴). The fixed-width layout took 12.
const SEGMENT_BYTES_PER_LIST: u64 = 4;

/// Bytes per posting in the checked batch's segment file: a doc offset
/// and a tf at the segment's narrowest widths, 1 byte each for a batch
/// of under 256 documents with every tf under 256. The fixed-width layout
/// took 8.
const SEGMENT_BYTES_PER_POSTING: u64 = 2;

/// The incremental-checkpoint gate: after one mutation batch, the second
/// save must rewrite **only** the manifest and the (unsealed) tail
/// chunk, and add **only** the batch's new segment file — every other
/// file must be byte-identical on disk. This pins the O(delta) claim at
/// the file-system level, not just via `SaveReport`'s own accounting.
/// The new segment file must also fit [`SEGMENT_FILE_OVERHEAD`] plus
/// [`SEGMENT_BYTES_PER_LIST`] per list and [`SEGMENT_BYTES_PER_POSTING`]
/// per posting, so a payload that grows with the vocabulary, or stores
/// fixed 4- and 8-byte fields, fails here.
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
    let batch_postings: u64 = batch.iter().map(|d| d.distinct_terms() as u64).sum();
    let batch_lists = batch
        .iter()
        .flat_map(|d| d.terms.iter().map(|&(t, _)| t))
        .collect::<std::collections::BTreeSet<TermId>>()
        .len() as u64;
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
    let tail_chunk = before
        .keys()
        .filter(|n| n.starts_with("docs-"))
        .max()
        .cloned()
        .expect("reference snapshot has a document chunk");
    for name in &rewritten {
        assert!(
            *name == "MANIFEST" || **name == tail_chunk,
            "incremental save rewrote {name}, expected only MANIFEST and {tail_chunk}"
        );
    }
    for name in &added {
        assert!(
            name.starts_with("seg-") && name.ends_with(".bin"),
            "incremental save added unexpected file {name}"
        );
    }
    assert_eq!(added.len(), 1, "one mutation batch must add one segment");
    // A segment file is O(its postings) at narrow widths: the container
    // around it, then per stored list a term gap and a length and per
    // posting a `(doc offset, tf)` pair — no byte per vocabulary term.
    let segment_len = after[added[0]].len() as u64;
    let bound = SEGMENT_FILE_OVERHEAD
        + SEGMENT_BYTES_PER_LIST * batch_lists
        + SEGMENT_BYTES_PER_POSTING * batch_postings;
    assert!(
        segment_len <= bound,
        "the batch's segment file is {segment_len} B, over the {bound} B its \
         {batch_lists} lists and {batch_postings} postings need"
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
