//! Cold-start persistence suite (DESIGN.md §14): a loaded snapshot must
//! serve what the rebuild of the saved state serves (`tests/support`'s
//! oracle: scans bit for bit, TA queries exactly), and corrupt input must
//! come back as a typed [`SnapshotError`] — never a panic. The corruption
//! half covers
//! the multi-file layout: every file of a valid snapshot directory is
//! truncated at every byte offset and bit-flipped in every byte, and
//! cross-file inconsistencies (a manifest naming a missing file, files
//! swapped between names) are asserted typed as well.

mod support;

use divtopk::engine::{Engine, EngineConfig};
use divtopk::text::chunked::CHUNK;
use divtopk::text::persist::{self, SnapshotError};
use divtopk::text::prelude::*;
use std::path::PathBuf;
use support::{
    Op, Queries, Rebuild, Script, assert_matches_rebuild, assert_same_answers, fixture,
    interesting_terms, split, temp_path,
};

/// A mutated serving state: base epoch + live adds + deletes + one
/// compaction — segments, tombstones, and a bumped compaction counter
/// all present in what gets persisted.
fn mutated_state() -> SegmentedIndex {
    let (corpus, pool) = split(&generate(&SynthConfig::tiny().with_num_docs(160)), 120);
    let mut seg = SegmentedIndex::build_partitioned(corpus, 2);
    seg.add_docs(pool[..16].to_vec());
    seg.add_docs(pool[16..30].to_vec());
    seg.delete_docs(&[0, 7, 121, 140]);
    assert!(seg.compact() > 0);
    seg
}

/// A deliberately small serving state whose snapshot is a few KB — the
/// corruption sweeps below are quadratic (every offset × a full
/// directory load), so they run on this, not on [`mutated_state`]. The
/// base segment is [`CHUNK`] one-token documents plus a dozen texts, so
/// its id file holds more than one chunk's worth of ids, each a one-byte
/// gap; the compacted batch's id file holds two.
fn small_state() -> SegmentedIndex {
    let mut b = Corpus::builder();
    for _ in 0..CHUNK {
        b.add_text("", "pad");
    }
    b.add_text("storm-1", "storm surge floods coastal city downtown");
    b.add_text("storm-2", "storm surge floods coastal city harbor");
    b.add_text("sports", "cup final penalty shootout drama");
    b.add_text("markets", "stocks rally earnings beat forecast");
    for i in 0..8 {
        b.add_text(&format!("f{i}"), "miscellaneous archive background noise");
    }
    let mut seg = SegmentedIndex::build(b.build());
    let storm_3 = seg.add_text("storm-3", "storm surge evacuation ordered");
    seg.add_text("markets-2", "stocks slide forecast cut");
    seg.delete_docs(&[CHUNK as DocId + 1, storm_3]);
    assert!(seg.compact() > 0);
    assert_eq!(seg.num_segments(), 2);
    assert!(seg.segments()[0].doc_count() >= CHUNK && seg.segments()[1].doc_count() < CHUNK);
    seg
}

/// The kind a snapshot file's header declares.
fn file_kind(path: &std::path::Path) -> u32 {
    persist::file_kind(&std::fs::read(path).unwrap()).unwrap()
}

/// [`small_state`] saved into a fresh directory, whose two segment files
/// are both id files.
fn saved_small_state(name: &str) -> PathBuf {
    let dir = temp_path(name);
    persist::save_segmented(&dir, &small_state(), 1).unwrap();
    let kinds: Vec<u32> = snapshot_files(&dir)
        .iter()
        .filter(|n| n.starts_with("seg-"))
        .map(|n| file_kind(&dir.join(n)))
        .collect();
    assert_eq!(kinds, [persist::KIND_SEGMENT_IDS; 2]);
    dir
}

/// Names of every file in a snapshot directory.
fn snapshot_files(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// The committed listing [`the_saved_bytes_match_the_pinned_listing`]
/// compares against.
const PINNED_LISTING: &str = "tests/data/snapshot_files.txt";

#[test]
fn the_saved_bytes_match_the_pinned_listing() {
    // Every data file's name ends in its CRC32, so a `name length`
    // listing plus the manifest's CRC32 pins every byte a save writes. A
    // format change updates the committed file in the same diff.
    let mut listing = String::new();
    for (state, seg) in [
        ("small_state", small_state()),
        ("mutated_state", mutated_state()),
    ] {
        let dir = temp_path(&format!("pinned-{state}.snapshot"));
        persist::save_segmented(&dir, &seg, 1).unwrap();
        listing += &format!("# {state}\n");
        for name in snapshot_files(&dir) {
            let len = std::fs::metadata(dir.join(&name)).unwrap().len();
            listing += &format!("{name} {len}\n");
        }
        let manifest = std::fs::read(dir.join(persist::MANIFEST_NAME)).unwrap();
        listing += &format!("MANIFEST crc32 {:08x}\n", persist::crc32(&manifest));
        std::fs::remove_dir_all(&dir).unwrap();
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(PINNED_LISTING);
    let pinned = std::fs::read_to_string(&path).unwrap_or_default();
    assert!(
        listing == pinned,
        "the saved snapshot bytes differ from {PINNED_LISTING}; the new listing:\n{listing}"
    );
}

#[test]
fn segmented_round_trip_serves_byte_identically() {
    let seg = mutated_state();
    let dir = temp_path("roundtrip.snapshot");
    persist::save_segmented(&dir, &seg, 7).unwrap();
    let (loaded, generation) = persist::load_segmented(&dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(generation, 7);
    assert_eq!(loaded.num_segments(), seg.num_segments());
    assert_eq!(loaded.tombstones(), seg.tombstones());
    assert_eq!(loaded.compactions(), seg.compactions());
    assert_eq!(loaded.next_segment_id(), seg.next_segment_id());
    // The PR 4 oracle holds on the *loaded* state directly.
    loaded.verify_rebuild_equivalence().unwrap();
    // The loaded state serves what the rebuild of the saved one does.
    let queries = Queries::over(&interesting_terms(seg.corpus(), 2), &[1, 5, 10], 0.4);
    assert_matches_rebuild(&loaded, &Rebuild::of(&seg), &queries, "loaded");
    // Reads are byte-equal to the saved state's too, TA included: the
    // loaded segments are bit-identical and in the same order, so the
    // whole pull sequence (and with it the output struct) reproduces.
    assert_same_answers(&seg, &loaded, &queries, "loaded");
}

#[test]
fn random_mutation_scripts_round_trip() {
    // One directory reused across all trials: every trial's state is a
    // *different lineage*, whose pieces remember no file of the
    // directory, so each save must rewrite (never silently reuse) the
    // files the previous trial left under the same names.
    let dir = temp_path("scripts.snapshot");
    for trial in 0..5u64 {
        let (base, pool) = fixture(trial, 80, 120);
        let queries = Queries::over(&interesting_terms(&base, 2), &[1, 5, 10], 0.5);
        let script = Script::random(trial, base.num_docs(), pool, 12, true);
        let mut seg = SegmentedIndex::build(base.clone());
        let model = script.run(&mut seg, SegmentedIndex::build(base), Some(&dir), |_, _| {});
        persist::save_segmented(&dir, &seg, trial).unwrap();
        let (loaded, generation) = persist::load_segmented(&dir).unwrap();
        assert_eq!(generation, trial);
        let case = script.replay(script.ops.len() - 1);
        assert_matches_rebuild(&loaded, &Rebuild::of(&model), &queries, &case);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn incremental_checkpoints_reuse_files_and_load_identically() {
    let (corpus, pool) = fixture(7, 120, 30);
    let mut seg = SegmentedIndex::build_partitioned(corpus, 2);
    let dir = temp_path("incremental.snapshot");
    let first = persist::save_segmented(&dir, &seg, 1).unwrap();
    assert_eq!(first.files_reused, 0);

    // Checkpoint after every mutation; each one must reuse the prior
    // files and write strictly less than the full snapshot.
    let mut generation = 1;
    for (round, batch) in (0u32..).zip(pool.chunks(10)) {
        seg.add_docs(batch.to_vec());
        seg.delete_docs(&[round, 50 + round]);
        generation += 1;
        let report = persist::save_segmented(&dir, &seg, generation).unwrap();
        assert!(report.files_reused > 0, "round {round}: {report:?}");
        assert!(
            report.bytes_written < first.bytes_written,
            "round {round}: checkpoint rewrote the world ({report:?})"
        );
        let (loaded, g) = persist::load_segmented(&dir).unwrap();
        assert_eq!(g, generation);
        assert!(loaded.corpus().docs().eq(seg.corpus().docs()));
        loaded.verify_rebuild_equivalence().unwrap();
    }
    // A checkpoint with no changes at all writes exactly one file: the
    // manifest (the generation lives there).
    let idle = persist::save_segmented(&dir, &seg, generation + 1).unwrap();
    assert_eq!(idle.files_written, 1, "{idle:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn diverged_lineages_rewrite_the_segment_id_they_share() {
    // 1 100 documents: one sealed 1 024-document chunk and a tail. Each
    // lineage then adds a batch of `CHUNK` different documents at the
    // same doc ids, so the two segments with id 2 hold different lists
    // but the same id file: the documents that tell them apart are in
    // the chunks.
    let (base, pool) = fixture(7, 1100, 2 * CHUNK);
    let dir = temp_path("lineages.snapshot");
    let config = EngineConfig::new(2).with_threads(1);
    Engine::new(base, config.clone())
        .save_snapshot(&dir)
        .unwrap();
    let a = Engine::load_snapshot(&dir, &config).unwrap();
    let b = Engine::load_snapshot(&dir, &config).unwrap();
    // Both mint segment id 2 (the base holds 0 and 1), over different
    // documents.
    let (batch_a, batch_b) = pool.split_at(CHUNK);
    a.add_docs(batch_a.to_vec());
    b.add_docs(batch_b.to_vec());
    // The one file whose name starts with `prefix`.
    let file = |dir: &PathBuf, prefix: &str| {
        let name = snapshot_files(dir)
            .into_iter()
            .find(|n| n.starts_with(prefix))
            .unwrap();
        (
            file_kind(&dir.join(&name)),
            std::fs::read(dir.join(name)).unwrap(),
        )
    };
    let (mut previous, mut segment_file) = (Vec::new(), None);
    // A's first save writes segment 2; B's rewrites it, its own segment
    // remembering no file; A's second finds the file A remembers, the
    // same bytes, and reuses it.
    for (who, engine, segment_written) in [("A", &a, 1), ("B", &b, 1), ("A again", &a, 0)] {
        let report = engine.save_snapshot(&dir).unwrap();
        // Written: the chunk the batch sealed, the new tail chunk and the
        // manifest, and segment 2 unless reused. Reused: the epoch, both
        // base segments and the first sealed chunk.
        assert_eq!(
            (report.files_written, report.files_reused),
            (3 + segment_written, 5 - segment_written),
            "{who}: {report:?}"
        );
        let (kind, ids) = file(&dir, "seg-0000000000000002-");
        assert_eq!(kind, persist::KIND_SEGMENT_IDS, "{who}");
        assert_eq!(
            segment_file.get_or_insert_with(|| ids.clone()),
            &ids,
            "{who}"
        );
        // Its sealed chunk holds this lineage's documents.
        let (_, sealed) = file(&dir, "docs-00000001-");
        assert_ne!(
            sealed, previous,
            "{who}: the batch's chunk was not rewritten"
        );
        previous = sealed;
        let loaded = Engine::load_snapshot(&dir, &config).unwrap();
        assert_eq!(loaded.generation(), engine.generation(), "{who}");
        assert!(loaded.corpus().docs().eq(engine.corpus().docs()), "{who}");
        loaded.verify_rebuild_equivalence().unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_resave_after_a_mutation_reuses_the_epoch_file() {
    // 120 documents in one chunk over two base segments. The add's
    // corpus is a clone of the saved one, so it shares the saved epoch's
    // stamp: written are the new segment, the tail chunk and the
    // manifest; reused are the epoch and both base segments.
    let (corpus, pool) = fixture(7, 120, 10);
    let mut seg = SegmentedIndex::build_partitioned(corpus, 2);
    let dir = temp_path("epoch-reuse.snapshot");
    persist::save_segmented(&dir, &seg, 1).unwrap();
    seg.add_docs(pool);
    let report = persist::save_segmented(&dir, &seg, 2).unwrap();
    assert_eq!(
        (report.files_written, report.files_reused),
        (3, 3),
        "{report:?}"
    );
    // A loaded state remembers the epoch file it was read from.
    let (mut loaded, _) = persist::load_segmented(&dir).unwrap();
    loaded.delete_docs(&[3]);
    let report = persist::save_segmented(&dir, &loaded, 3).unwrap();
    assert_eq!(
        (report.files_written, report.files_reused),
        (1, 5),
        "{report:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_foreign_epoch_file_of_the_same_length_is_rewritten() {
    // Two epochs over one vocabulary whose statistics differ in value
    // but not in encoded length: the directory's epoch file is A's, B
    // remembers its own file elsewhere, so B's save must write its own.
    let epoch = |tokens: [u32; 3]| {
        let mut b = CorpusBuilder::with_synthetic_vocab(4);
        for (i, &t) in tokens.iter().enumerate() {
            b.add_tokens(format!("d{i}"), vec![t, 3]);
        }
        SegmentedIndex::build(b.build())
    };
    let (a, b) = (epoch([0, 0, 1]), epoch([0, 1, 2]));
    assert_ne!(a.corpus().idf_table(), b.corpus().idf_table());
    let (dir, elsewhere) = (temp_path("epoch-a.snapshot"), temp_path("epoch-b.snapshot"));
    persist::save_segmented(&dir, &a, 1).unwrap();
    persist::save_segmented(&elsewhere, &b, 1).unwrap();
    let epoch_len = |d: &PathBuf| {
        let name = snapshot_files(d)
            .into_iter()
            .find(|n| n.starts_with("epoch-"))
            .unwrap();
        std::fs::metadata(d.join(name)).unwrap().len()
    };
    assert_eq!(epoch_len(&dir), epoch_len(&elsewhere));
    let report = persist::save_segmented(&dir, &b, 2).unwrap();
    // Written: the epoch, the chunk and the manifest. Reused: the
    // segment's file, which lists doc ids 0..3 in both lineages and so
    // holds the same bytes.
    assert_eq!(
        (report.files_written, report.files_reused),
        (3, 1),
        "{report:?}"
    );
    let (loaded, _) = persist::load_segmented(&dir).unwrap();
    assert_eq!(loaded.corpus().idf_table(), b.corpus().idf_table());
    loaded.verify_rebuild_equivalence().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&elsewhere).unwrap();
}

#[test]
fn a_load_builds_more_segments_than_cores_in_manifest_order() {
    // The load builds its segments on one thread a core, so with more
    // segments than cores a thread builds several and they finish out of
    // order. Segments of mixed sizes, some tombstoned documents and one
    // compaction; the loaded segments come back in manifest order, serve
    // what the rebuild serves, and remember the files they were built
    // from, so a re-save straight after the load writes only the
    // manifest.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (corpus, pool) = fixture(11, 300, 60);
    let mut seg = SegmentedIndex::build_partitioned(corpus, 2);
    let mut next = 0;
    for size in [1usize, 17, 4, 40, 9].into_iter().cycle() {
        if seg.num_segments() > cores.max(5) {
            break;
        }
        let batch: Vec<Document> = pool.iter().cycle().skip(next).take(size).cloned().collect();
        next += size;
        let added = seg.add_docs(batch);
        seg.delete_docs(&[added.start, 3 * added.start % 300]);
        if next == 22 {
            assert!(seg.compact() > 0);
        }
    }
    let layout = |s: &SegmentedIndex| -> Vec<(u64, usize)> {
        s.segments()
            .iter()
            .map(|s| (s.id(), s.doc_count()))
            .collect()
    };
    let mut sizes: Vec<usize> = layout(&seg).iter().map(|&(_, n)| n).collect();
    sizes.sort_unstable();
    sizes.dedup();
    assert!(sizes.len() >= 4, "{:?}", layout(&seg));
    assert!(seg.tombstones() > 0 && seg.compactions() > 0);

    let dir = temp_path("parallel-load.snapshot");
    let saved = persist::save_segmented(&dir, &seg, 1).unwrap();
    let (loaded, _) = persist::load_segmented(&dir).unwrap();
    assert_eq!(layout(&loaded), layout(&seg));
    for (a, b) in loaded.segments().iter().zip(seg.segments()) {
        assert!(
            a.index().lists().eq(b.index().lists()),
            "segment {}",
            a.id()
        );
    }
    let queries = Queries::over(&interesting_terms(seg.corpus(), 2), &[1, 5], 0.5);
    assert_matches_rebuild(&loaded, &Rebuild::of(&seg), &queries, "loaded");
    let resaved = persist::save_segmented(&dir, &loaded, 2).unwrap();
    assert_eq!(
        (resaved.files_written, resaved.files_reused),
        (1, saved.files_written - 1),
        "{resaved:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Rewrites the payload of the section tagged `tag` of the snapshot
/// container `bytes` in place with `edit`, which keeps its length, and
/// re-seals the section's CRC32 (the container grammar of DESIGN.md §14).
fn reseal_section(bytes: &mut [u8], tag: &[u8; 4], edit: impl FnOnce(&mut [u8])) {
    let mut at = persist::HEADER_LEN;
    loop {
        let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
        let payload = at + persist::SECTION_HEADER_LEN..at + persist::SECTION_HEADER_LEN + len;
        if &bytes[at..at + 4] == tag {
            edit(&mut bytes[payload.clone()]);
            let crc = persist::crc32(&bytes[payload]);
            bytes[at + 12..at + 16].copy_from_slice(&crc.to_le_bytes());
            return;
        }
        at = payload.end;
    }
}

/// Sets every IDF weight in the epoch of the snapshot at `dir` to `idf`,
/// every CRC valid: the epoch's `STAT` section ends in one `f64` word a
/// term, and the manifest's `META` section in the CRC32 that names the
/// epoch file.
fn forge_epoch_idf(dir: &std::path::Path, num_terms: usize, idf: f64) {
    let name = snapshot_files(dir)
        .into_iter()
        .find(|n| n.starts_with("epoch-"))
        .unwrap();
    let mut epoch = std::fs::read(dir.join(&name)).unwrap();
    reseal_section(&mut epoch, b"STAT", |stat| {
        let words = stat.len() - 8 * num_terms;
        for word in stat[words..].chunks_exact_mut(8) {
            word.copy_from_slice(&idf.to_bits().to_le_bytes());
        }
    });
    let crc = persist::crc32(&epoch);
    std::fs::remove_file(dir.join(name)).unwrap();
    std::fs::write(dir.join(persist::epoch_file_name(crc)), &epoch).unwrap();
    let path = dir.join(persist::MANIFEST_NAME);
    let mut manifest = std::fs::read(&path).unwrap();
    reseal_section(&mut manifest, b"META", |meta| {
        let at = meta.len() - 4;
        meta[at..].copy_from_slice(&crc.to_le_bytes());
    });
    std::fs::write(&path, manifest).unwrap();
}

#[test]
fn a_forged_epoch_loads_only_finite_scores() {
    // The load computes every partial from the stored IDF, so a
    // CRC-valid epoch whose IDFs are all the largest the load admits,
    // over a document of tf `u32::MAX` and length 1, gives the largest
    // partial a load can: 2³² · 10¹⁰⁰. An IDF of -0.0 passes the same
    // range check and makes every partial -0.0. Both load, and every
    // answer in every mode is finite (`Score::new` panics otherwise) and
    // the rebuild's.
    let mut b = CorpusBuilder::with_synthetic_vocab(3);
    b.add_document(Document {
        title: "huge".into(),
        terms: vec![(0, u32::MAX), (1, 1)],
        len: 1,
    });
    for i in 0..40u32 {
        b.add_tokens(format!("d{i}"), vec![i % 3, (i / 3) % 3, 2]);
    }
    let seg = SegmentedIndex::build_partitioned(b.build(), 2);
    let queries = Queries::over(&[0, 1, 2], &[1, 4], 0.5);
    for idf in [persist::MAX_STORED_VALUE, -0.0] {
        let dir = temp_path("forged-epoch.snapshot");
        persist::save_segmented(&dir, &seg, 1).unwrap();
        forge_epoch_idf(&dir, 3, idf);
        let (loaded, _) = persist::load_segmented(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(
            loaded
                .corpus()
                .idf_table()
                .iter()
                .all(|w| w.to_bits() == idf.to_bits())
        );
        assert_matches_rebuild(
            &loaded,
            &Rebuild::of(&loaded),
            &queries,
            &format!("IDF {idf}"),
        );
        if idf.is_sign_negative() {
            // Every partial of every list is -0.0, so each list is in
            // doc order.
            for s in loaded.segments() {
                for (t, list) in s.index().lists() {
                    let docs: Vec<DocId> = list.iter().map(|p| p.doc).collect();
                    assert!(docs.is_sorted(), "term {t}: {docs:?}");
                }
            }
        } else {
            let top = loaded.search_scan(0, &SearchOptions::new(1)).unwrap();
            assert_eq!(top.hits[0].doc, 0);
            let want = u32::MAX as f64 * idf;
            assert_eq!(top.total_score.get().to_bits(), want.to_bits());
        }
    }
}

/// Copies every file of the snapshot directory `from` into a fresh
/// directory `to`.
fn copy_snapshot(from: &std::path::Path, to: &std::path::Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for name in snapshot_files(from) {
        std::fs::copy(from.join(&name), to.join(&name)).unwrap();
    }
}

#[test]
fn a_failed_save_leaves_the_previous_snapshot_loadable() {
    // A second save into a directory fails on each file it writes in
    // turn — the name is taken by a directory — and the directory must
    // still load the first save's state. Two second states: the same
    // lineage after an add and a delete (a new segment and a grown tail
    // chunk), and another lineage (every file, its segment ids shared).
    let (corpus, pool) = fixture(7, 120, 16);
    let first = SegmentedIndex::build_partitioned(corpus, 2);
    let dir = temp_path("failed-save.first");
    persist::save_segmented(&dir, &first, 1).unwrap();
    let queries = Queries::over(&interesting_terms(first.corpus(), 2), &[5], 0.5);
    let second = |same_lineage: bool| {
        if same_lineage {
            let mut second = first.clone();
            second.add_docs(pool.clone());
            second.delete_docs(&[3]);
            second
        } else {
            SegmentedIndex::build_partitioned(fixture(8, 136, 0).0, 2)
        }
    };
    for (what, same_lineage) in [("same lineage", true), ("another lineage", false)] {
        // The names the second save writes, from a run in a copy.
        let probe = temp_path("failed-save.probe");
        copy_snapshot(&dir, &probe);
        persist::save_segmented(&probe, &second(same_lineage), 2).unwrap();
        let before = snapshot_files(&dir);
        let written: Vec<String> = snapshot_files(&probe)
            .into_iter()
            .filter(|n| !before.contains(n))
            .collect();
        std::fs::remove_dir_all(&probe).unwrap();
        for name in &written {
            let run = temp_path("failed-save.run");
            copy_snapshot(&dir, &run);
            std::fs::create_dir(run.join(name)).unwrap();
            let state = second(same_lineage);
            match persist::save_segmented(&run, &state, 2) {
                Err(SnapshotError::Io(_)) => {}
                other => panic!("{what}, {name} blocked: expected Io, got {other:?}"),
            }
            let (loaded, generation) = persist::load_segmented(&run)
                .unwrap_or_else(|e| panic!("{what}, {name} blocked: {e}"));
            assert_eq!(generation, 1, "{what}, {name} blocked");
            let case = format!("{what}, {name} blocked");
            assert_matches_rebuild(&loaded, &Rebuild::of(&first), &queries, &case);
            assert_same_answers(&first, &loaded, &queries, &case);
            // Once the name is free again, the save lands.
            std::fs::remove_dir(run.join(name)).unwrap();
            persist::save_segmented(&run, &state, 2).unwrap();
            let (loaded, generation) = persist::load_segmented(&run).unwrap();
            assert_eq!(generation, 2);
            let case = format!("{what}, {name} unblocked");
            assert_matches_rebuild(&loaded, &Rebuild::of(&state), &queries, &case);
            assert_same_answers(&state, &loaded, &queries, &case);
            std::fs::remove_dir_all(&run).unwrap();
        }
        // Among them a segment file and the grown or foreign chunk: no
        // save writes to a name the previous manifest holds.
        assert!(written.iter().any(|n| n.starts_with("seg-")), "{what}");
        assert!(written.iter().any(|n| n.starts_with("docs-")), "{what}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_saves_of_one_engine_all_succeed() {
    // Two savers and a mutator on one engine and one directory, released
    // together: the saves share temp-file names and each collects the
    // directory's garbage, so unless they run one at a time one deletes
    // the other's temp file mid-write.
    let (corpus, pool) = fixture(7, 100, 120);
    let engine = Engine::new(corpus, EngineConfig::new(2).with_threads(1));
    let dir = temp_path("concurrent.snapshot");
    for (round, docs) in pool.chunks(6).enumerate() {
        let batches: Vec<Vec<Document>> = docs.chunks(2).map(<[Document]>::to_vec).collect();
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|scope| {
            let savers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        (0..3)
                            .map(|_| engine.save_snapshot(&dir))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            scope.spawn(|| {
                start.wait();
                for batch in batches {
                    let added = engine.add_docs(batch);
                    engine.delete_docs(&[added.start]);
                    engine.compact();
                }
            });
            for saver in savers {
                for result in saver.join().unwrap() {
                    if let Err(e) = result {
                        panic!("round {round}: a concurrent save failed: {e}");
                    }
                }
            }
        });
        let loaded = Engine::load_snapshot(&dir, &EngineConfig::default()).unwrap();
        loaded.verify_rebuild_equivalence().unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn engine_snapshot_round_trip_preserves_generation_and_answers() {
    let (corpus, pool) = fixture(7, 150, 15);
    let engine = Engine::new(corpus.clone(), EngineConfig::new(2).with_threads(2));
    let script = Script {
        seed: 0,
        pool,
        ops: vec![Op::Add(0..15), Op::Delete(vec![3, 151]), Op::Compact],
    };
    let model = script.run(&mut &engine, SegmentedIndex::build(corpus), None, |_, _| {});
    let generation = engine.generation();
    assert!(generation >= 2);

    let path = temp_path("engine.snapshot");
    let report = engine.save_snapshot(&path).unwrap();
    assert!(report.bytes_written > 0);
    assert_eq!(report.bytes_written, report.total_bytes);
    let loaded = Engine::load_snapshot(&path, &EngineConfig::new(1).with_threads(2)).unwrap();
    std::fs::remove_dir_all(&path).unwrap();

    // The generation resumes; process-local counters start over.
    assert_eq!(loaded.generation(), generation);
    let stats = loaded.stats();
    assert_eq!((stats.queries, stats.cache_entries), (0, 0));
    assert_eq!(stats.segments, engine.stats().segments);
    assert_eq!(stats.tombstones, engine.stats().tombstones);
    // Layout provenance (the `config.shards` precedence contract): the
    // loaded engine serves the snapshot's layout, not the requested
    // 1-shard partition — and says so.
    assert_eq!(stats.configured_shards, 1);
    assert!(stats.layout_from_snapshot);
    assert!(!engine.stats().layout_from_snapshot);
    // Every query class answers what the rebuild of the saved state does,
    // and byte-identically what the saved engine does.
    let queries = Queries::over(&interesting_terms(&engine.corpus(), 2), &[1, 4, 8], 0.5);
    assert_matches_rebuild(&&loaded, &Rebuild::of(&model), &queries, "loaded engine");
    assert_same_answers(&&engine, &&loaded, &queries, "loaded engine");
}

#[test]
fn loaded_engine_keeps_mutating_from_where_it_stood() {
    let (corpus, pool) = fixture(7, 100, 10);
    let engine = Engine::new(corpus, EngineConfig::new(2).with_threads(1));
    engine.delete_docs(&[5]);
    let path = temp_path("resume.snapshot");
    engine.save_snapshot(&path).unwrap();
    let loaded = Engine::load_snapshot(&path, &EngineConfig::default()).unwrap();
    std::fs::remove_dir_all(&path).unwrap();
    let range = loaded.add_docs(pool);
    assert_eq!(range, 100..110);
    assert_eq!(loaded.generation(), engine.generation() + 1);
    assert_eq!(loaded.delete_docs(&[105]), 1);
    loaded.compact();
    loaded.verify_rebuild_equivalence().unwrap();
}

#[test]
fn truncation_at_every_offset_of_every_file_is_a_typed_error() {
    let dir = saved_small_state("truncate.snapshot");
    for name in snapshot_files(&dir) {
        let path = dir.join(&name);
        let original = std::fs::read(&path).unwrap();
        // Literally every prefix of every file — manifest, epoch,
        // segments, chunks — must fail typed, never panic.
        for cut in 0..original.len() {
            std::fs::write(&path, &original[..cut]).unwrap();
            assert!(
                persist::load_segmented(&dir).is_err(),
                "{name} truncated to {cut} bytes must not load"
            );
        }
        std::fs::write(&path, &original).unwrap();
    }
    // The loop restored every file: the pristine directory still loads.
    persist::load_segmented(&dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bit_flips_in_every_byte_of_every_file_are_typed_errors() {
    let dir = saved_small_state("bitflip.snapshot");
    for name in snapshot_files(&dir) {
        let path = dir.join(&name);
        let mut bytes = std::fs::read(&path).unwrap();
        for i in 0..bytes.len() {
            let mask = 1u8 << (i % 8);
            bytes[i] ^= mask;
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                persist::load_segmented(&dir).is_err(),
                "{name}: flip at byte {i} must not load"
            );
            bytes[i] ^= mask;
        }
        std::fs::write(&path, &bytes).unwrap();
    }
    persist::load_segmented(&dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cross_file_inconsistencies_are_typed_errors() {
    let dir = saved_small_state("crossfile.snapshot");
    let files = snapshot_files(&dir);

    // Deleting any referenced file leaves a manifest naming a missing
    // file — a typed I/O error on load, never a panic.
    for name in files.iter().filter(|n| *n != "MANIFEST") {
        let path = dir.join(name);
        let original = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(
            matches!(persist::load_segmented(&dir), Err(SnapshotError::Io(_))),
            "missing {name} must be a typed I/O error"
        );
        std::fs::write(&path, &original).unwrap();
    }

    // Swapping any two referenced files (stale/renamed file scenario)
    // must be caught by the manifest's per-file length or CRC, before
    // any section of the wrong file is interpreted.
    let swappable: Vec<&String> = files.iter().filter(|n| *n != "MANIFEST").collect();
    for i in 0..swappable.len() {
        for j in (i + 1)..swappable.len() {
            let (a, b) = (dir.join(swappable[i]), dir.join(swappable[j]));
            let (bytes_a, bytes_b) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
            std::fs::write(&a, &bytes_b).unwrap();
            std::fs::write(&b, &bytes_a).unwrap();
            let err =
                persist::load_segmented(&dir).expect_err("swapped snapshot files must not load");
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. }
                        | SnapshotError::TrailingBytes { .. }
                        | SnapshotError::ChecksumMismatch { .. }
                ),
                "swap {} <-> {}: unexpected error {err:?}",
                swappable[i],
                swappable[j]
            );
            std::fs::write(&a, &bytes_a).unwrap();
            std::fs::write(&b, &bytes_b).unwrap();
        }
    }
    persist::load_segmented(&dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wrong_format_version_fixture_is_rejected() {
    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/wrong_version.snapshot");
    let bytes = std::fs::read(&fixture).expect("checked-in fixture");
    // As a manifest of a snapshot directory:
    let dir = temp_path("wrongversion.snapshot");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("MANIFEST"), &bytes).unwrap();
    match persist::load_segmented(&dir) {
        Err(SnapshotError::UnsupportedVersion { found: 9 }) => {}
        other => panic!("expected UnsupportedVersion {{ found: 9 }}, got {other:?}"),
    }
    // The engine entry point agrees.
    assert!(matches!(
        Engine::load_snapshot(&dir, &EngineConfig::default()),
        Err(SnapshotError::UnsupportedVersion { found: 9 })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_snapshot_is_an_io_error() {
    let path = temp_path("does-not-exist.snapshot");
    assert!(matches!(
        Engine::load_snapshot(&path, &EngineConfig::default()),
        Err(SnapshotError::Io(_))
    ));
    assert!(matches!(
        persist::load_segmented(&path),
        Err(SnapshotError::Io(_))
    ));
}

#[test]
fn snapshot_error_display_is_informative() {
    let seg = small_state();
    let dir = temp_path("display.snapshot");
    persist::save_segmented(&dir, &seg, 1).unwrap();
    let manifest = dir.join("MANIFEST");
    let bytes = std::fs::read(&manifest).unwrap();
    std::fs::write(&manifest, &bytes[..10]).unwrap();
    let msg = persist::load_segmented(&dir).unwrap_err().to_string();
    assert!(msg.contains("truncated"), "got: {msg}");
    let mut flipped = bytes.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 1;
    std::fs::write(&manifest, &flipped).unwrap();
    let msg = persist::load_segmented(&dir).unwrap_err().to_string();
    assert!(msg.contains("checksum mismatch"), "got: {msg}");
    std::fs::remove_dir_all(&dir).unwrap();
}
