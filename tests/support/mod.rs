//! One seeded fixture, one op script and one rebuild oracle for the
//! live-update suites (`mod support;`). Serving is exact only if the
//! segmented, tombstone-filtered merge emits what a from-scratch rebuild
//! of the live documents would (DESIGN.md §9, "rebuild equivalence"), so
//! the suites check against the rebuild, never the served state alone.
//!
//! * [`fixture`]: a seeded synthetic donor [`split`] into a base corpus
//!   (its statistics epoch then frozen) and a pool of documents to add.
//! * [`interesting_terms`]: busy but tractable query terms.
//! * [`Script`]: seeded [`Op`]s (add, delete, compact, checkpoint) that
//!   [`Script::run`] applies to a [`Live`] target, a `SegmentedIndex` or
//!   an `&Engine`, and to an in-memory model that never goes through a
//!   snapshot. A checkpoint saves and continues from the loaded state. A
//!   failing step prints a one-line replay: seed, step and ops.
//! * [`assert_matches_rebuild`]: `verify_rebuild_equivalence` and the
//!   tombstone count, then every scan in every [`DiversifyMode`] bit for
//!   bit against [`DiversifiedSearcher`] over the model's
//!   `rebuilt_index()`, and every TA query for an equal optimum, live
//!   pairwise-dissimilar hits, and the same hits when the optimum is
//!   unique ([`Rebuild::check`]).
//! * [`assert_same_answers`]: where two states hold the same layout (a
//!   save and its load), answers equal in full, TA stop point included,
//!   beside the oracle.
//!
//! Defects planted in a copy of the product code, and what fails on each
//! (a superset, each time, of what failed before this module):
//!
//! 1. No tombstone filter in `SegmentedIndex::search_scan`'s merge: the
//!    scan tests of `segments`, `live_update`'s readers, batch and
//!    interleaved tests, `persistence`'s script and segmented round trips,
//!    `serving`'s live-writer and reload tests, `parallel_merge`'s scan
//!    and engine tests.
//! 2. `SegmentedIndex::compact` drops one surviving document: the tests
//!    of `segments`, `live_update`, `persistence` and `parallel_merge`
//!    that compact ("live, but no segment holds it").
//! 3. `persist::load_segmented` loads `Tombstones::default()`: eight
//!    `persistence` tests (the oracle's tombstone count, or the load's
//!    "live document held by no segment") and `serving`'s reload test
//!    (the deleted first hit is served again).
//! 4. `CacheKey::new` ignores the generation: all four `live_update`
//!    tests and `serving`'s reload test.

#![allow(dead_code)] // each suite uses its own part of the module

use divtopk::ExactAlgorithm::{AStar, Dp};
use divtopk::Score;
use divtopk::core::rng::Pcg;
use divtopk::engine::prelude::*;
use divtopk::text::persist;
use divtopk::text::prelude::*;
use divtopk::text::tfidf;
use std::collections::BTreeSet;
use std::ops::{AddAssign, Range};
use std::panic::{AssertUnwindSafe, catch_unwind, resume_unwind};
use std::path::{Path, PathBuf};

/// Splits `donor`: its first `base` documents become a corpus with its
/// own statistics epoch, the rest the pool adds draw from (valid under
/// the epoch: the vocabulary is the same).
pub fn split(donor: &Corpus, base: usize) -> (Corpus, Vec<Document>) {
    let mut builder = CorpusBuilder::with_synthetic_vocab(donor.num_terms());
    let mut docs = donor.docs().cloned();
    for doc in docs.by_ref().take(base) {
        builder.add_document(doc);
    }
    (builder.build(), docs.collect())
}

/// The seeded fixture: a synthetic donor of `base + extra` documents
/// with plenty of near-duplicate structure, [`split`] after `base`.
pub fn fixture(seed: u64, base: usize, extra: usize) -> (Corpus, Vec<Document>) {
    let donor = generate(&SynthConfig {
        num_docs: base + extra,
        near_dup_prob: 0.35,
        ..SynthConfig::tiny().with_seed(seed)
    });
    split(&donor, base)
}

/// Up to `count` busy but tractable query terms (6 to 60 documents under
/// the corpus's epoch), busiest first.
pub fn interesting_terms(corpus: &Corpus, count: usize) -> Vec<TermId> {
    let mut terms: Vec<TermId> = (0..corpus.num_terms() as TermId)
        .filter(|&t| (6..=60).contains(&corpus.doc_freq(t)))
        .collect();
    terms.sort_by_key(|&t| std::cmp::Reverse(corpus.doc_freq(t)));
    terms.truncate(count);
    terms
}

/// A process-unique scratch path; a directory left over from a crashed
/// run is removed first.
pub fn temp_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("divtopk-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

/// One step of a [`Script`].
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Adds these documents of the script's pool as one segment.
    Add(Range<usize>),
    /// Tombstones these doc ids.
    Delete(Vec<DocId>),
    /// One compaction step.
    Compact,
    /// Saves a snapshot and continues from the loaded state.
    Checkpoint,
}

/// A serving state a [`Script`] drives and the oracle asks.
pub trait Live {
    /// Applies `op`: an add takes its documents from `pool`, a checkpoint
    /// saves into `dir`. True when the served state changed (for the
    /// engine: a new generation).
    fn apply(&mut self, op: &Op, pool: &[Document], dir: Option<&Path>) -> bool;
    /// The served answer to `query`.
    fn answer(&self, query: &Query, options: &SearchOptions) -> SearchOutput;
    /// `verify_rebuild_equivalence` on the served state.
    fn verify(&self) -> Result<(), String>;
    /// Tombstoned documents in the served state.
    fn tombstones(&self) -> usize;
}

impl Live for SegmentedIndex {
    fn apply(&mut self, op: &Op, pool: &[Document], dir: Option<&Path>) -> bool {
        match op {
            Op::Add(range) => !self.add_docs(pool[range.clone()].to_vec()).is_empty(),
            Op::Delete(docs) => self.delete_docs(docs) > 0,
            Op::Compact => self.compact() > 0,
            Op::Checkpoint => {
                let dir = dir.expect("a checkpoint needs a directory");
                persist::save_segmented(dir, self, 0).unwrap();
                *self = persist::load_segmented(dir).unwrap().0;
                true
            }
        }
    }

    fn answer(&self, query: &Query, options: &SearchOptions) -> SearchOutput {
        match query {
            Query::Scan(term) => self.search_scan(*term, options),
            Query::Keywords(q) => self.search_ta(q, options),
        }
        .unwrap()
    }

    fn verify(&self) -> Result<(), String> {
        self.verify_rebuild_equivalence()
    }

    fn tombstones(&self) -> usize {
        SegmentedIndex::tombstones(self)
    }
}

impl Live for &Engine {
    fn apply(&mut self, op: &Op, pool: &[Document], dir: Option<&Path>) -> bool {
        match op {
            Op::Add(range) => !self.add_docs(pool[range.clone()].to_vec()).is_empty(),
            Op::Delete(docs) => self.delete_docs(docs) > 0,
            Op::Compact => self.compact() > 0,
            Op::Checkpoint => {
                let dir = dir.expect("a checkpoint needs a directory");
                self.save_snapshot(dir).unwrap();
                self.reload_snapshot(dir).unwrap();
                true
            }
        }
    }

    fn answer(&self, query: &Query, options: &SearchOptions) -> SearchOutput {
        Engine::search(self, query, options).unwrap()
    }

    fn verify(&self) -> Result<(), String> {
        self.verify_rebuild_equivalence()
    }

    fn tombstones(&self) -> usize {
        self.stats().tombstones
    }
}

/// A seeded op script for any [`Live`] target.
#[derive(Debug, Clone)]
pub struct Script {
    /// The seed the ops were drawn from (0 for a hand-written script).
    pub seed: u64,
    /// The documents adds take, by position.
    pub pool: Vec<Document>,
    /// The steps, in order.
    pub ops: Vec<Op>,
}

impl Script {
    /// `steps` ops drawn from `seed` against a base of `base_docs`
    /// documents: an add of 1 to 10 pool documents (twice as likely as
    /// each other op, while the pool lasts), a delete of 1 to 6 random doc
    /// ids, a compaction, or, when `checkpoints` is set, a checkpoint.
    pub fn random(
        seed: u64,
        base_docs: usize,
        pool: Vec<Document>,
        steps: usize,
        checkpoints: bool,
    ) -> Script {
        let mut rng = Pcg::new(seed);
        let (mut added, mut docs) = (0usize, base_docs);
        let ops = (0..steps)
            .map(|_| match rng.below(if checkpoints { 5 } else { 4 }) {
                0 | 1 if added < pool.len() => {
                    let take = (1 + rng.below(10) as usize).min(pool.len() - added);
                    added += take;
                    docs += take;
                    Op::Add(added - take..added)
                }
                2 => Op::Delete(
                    (0..1 + rng.below(6))
                        .map(|_| rng.below(docs as u32))
                        .collect(),
                ),
                4 => Op::Checkpoint,
                _ => Op::Compact,
            })
            .collect();
        Script { seed, pool, ops }
    }

    /// Applies the ops in order to `target` and to `model`, which skips
    /// checkpoints, calls `check(target, model)` after each step, and
    /// returns the model. Checkpoints save into `dir`. A step that panics
    /// prints its replay line before the panic goes on.
    pub fn run<T: Live>(
        &self,
        target: &mut T,
        mut model: SegmentedIndex,
        dir: Option<&Path>,
        mut check: impl FnMut(&T, &SegmentedIndex),
    ) -> SegmentedIndex {
        for (step, op) in self.ops.iter().enumerate() {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                target.apply(op, &self.pool, dir);
                if *op != Op::Checkpoint {
                    model.apply(op, &self.pool, None);
                }
                check(target, &model);
            }));
            if let Err(panic) = outcome {
                eprintln!("{}", self.replay(step));
                resume_unwind(panic);
            }
        }
        model
    }

    /// The one-line replay of the steps up to and including `step`.
    pub fn replay(&self, step: usize) -> String {
        let ops = &self.ops[..=step];
        format!("replay: seed {}, step {step}: {ops:?}", self.seed)
    }
}

/// Every diversification mode.
pub fn all_modes() -> [DiversifyMode; 8] {
    [
        DiversifyMode::exact(),
        DiversifyMode::Exact(AStar),
        DiversifyMode::Exact(Dp),
        DiversifyMode::None,
        DiversifyMode::mmr(0.7),
        DiversifyMode::window(),
        DiversifyMode::Disc,
        DiversifyMode::knn(),
    ]
}

/// How much a run of the oracle exercised.
#[derive(Debug, Clone, Copy, Default)]
pub struct Coverage {
    /// TA answers compared hit for hit (the optimum was unique).
    pub ta_identical: usize,
    /// The most results any compared search pulled; a TA search counts
    /// its shorter side, served or rebuilt.
    pub longest_pull: u64,
    /// The fewest results any compared TA search pulled, either side.
    pub shortest_ta_pull: Option<u64>,
}

impl AddAssign for Coverage {
    fn add_assign(&mut self, other: Coverage) {
        self.ta_identical += other.ta_identical;
        self.longest_pull = self.longest_pull.max(other.longest_pull);
        if let Some(b) = other.shortest_ta_pull {
            self.shortest_ta_pull = Some(self.shortest_ta_pull.map_or(b, |a| a.min(b)));
        }
    }
}

/// A from-scratch rebuild of one state's live documents, and what
/// serving that state must answer.
pub struct Rebuild {
    state: SegmentedIndex,
    index: InvertedIndex,
}

impl Rebuild {
    /// The rebuild of `state`: its `rebuilt_index()`, under its frozen
    /// statistics.
    pub fn of(state: &SegmentedIndex) -> Rebuild {
        let (state, index) = (state.clone(), state.rebuilt_index());
        Rebuild { state, index }
    }

    /// The rebuild's answer: [`DiversifiedSearcher`] over the rebuilt
    /// index.
    pub fn search(&self, query: &Query, options: &SearchOptions) -> SearchOutput {
        let searcher = DiversifiedSearcher::new(self.state.corpus(), &self.index);
        match query {
            Query::Scan(term) => searcher.search_scan(*term, options),
            Query::Keywords(q) => searcher.search_ta(q, options),
        }
        .unwrap()
    }

    /// Asserts that `got` is what serving this state must answer: a scan
    /// bit for bit the rebuild's answer, metrics and early-stop point
    /// included; a TA query an exact answer ([`Rebuild::check_hits`]).
    pub fn check(
        &self,
        query: &Query,
        options: &SearchOptions,
        got: &SearchOutput,
        case: &str,
    ) -> Coverage {
        let want = self.search(query, options);
        let pulled = got.metrics.results_generated;
        let pulled = pulled.min(want.metrics.results_generated);
        let mut coverage = self.check_hits(query, options, &want, &got.hits, got.total_score, case);
        if let Query::Scan(_) = query {
            assert_eq!(want, *got, "{case}");
        } else {
            coverage.shortest_ta_pull = Some(pulled);
        }
        coverage.longest_pull = pulled;
        coverage
    }

    /// Asserts that `hits` with total `total` answer `query` exactly,
    /// where `want` is the rebuild's answer ([`Rebuild::search`]): a
    /// scan's are `want`'s bit for bit; a TA query's (whose merged stop
    /// point may differ, DESIGN.md §8) have the rebuilt optimum, are live
    /// and pairwise no more similar than τ, and are `want`'s when the
    /// optimum is unique.
    pub fn check_hits(
        &self,
        query: &Query,
        options: &SearchOptions,
        want: &SearchOutput,
        hits: &[Hit],
        total: Score,
        case: &str,
    ) -> Coverage {
        let Query::Keywords(ta) = query else {
            let bits = |s: Score| s.get().to_bits();
            assert_eq!(want.hits, hits, "{case}");
            assert_eq!(bits(want.total_score), bits(total), "{case}");
            return Coverage::default();
        };
        assert!(
            total.approx_eq(want.total_score, 1e-9),
            "{case}: TA optimum {total} vs rebuilt {}",
            want.total_score
        );
        let corpus = self.state.corpus();
        for (i, hit) in hits.iter().enumerate() {
            assert!(
                self.state.is_live(hit.doc),
                "{case}: dead doc {} served",
                hit.doc
            );
            for other in &hits[i + 1..] {
                let s = weighted_jaccard(corpus, corpus.doc(hit.doc), corpus.doc(other.doc));
                assert!(
                    s <= options.tau,
                    "{case}: hits {} and {} are {s} similar",
                    hit.doc,
                    other.doc
                );
            }
        }
        let unique = self.unique_scores(&ta.terms, &want.hits);
        if unique {
            assert_eq!(want.hits, hits, "{case}: the optimum is unique");
        }
        Coverage {
            ta_identical: unique as usize,
            ..Coverage::default()
        }
    }

    /// True when every hit's score is unique among the live documents
    /// matching `terms`, so no equal-score document can swap into the
    /// optimum (sums of distinct float scores do not collide here).
    fn unique_scores(&self, terms: &[TermId], hits: &[Hit]) -> bool {
        let mut docs: BTreeSet<DocId> = BTreeSet::new();
        for &t in terms {
            docs.extend(self.index.postings(t).iter().map(|p| p.doc));
        }
        let matched: Vec<f64> = docs
            .iter()
            .map(|&d| tfidf::score(self.state.corpus(), terms, d).get())
            .collect();
        hits.iter().all(|h| {
            let s = h.score.get();
            let near = matched
                .iter()
                .filter(|&&m| (m - s).abs() <= 1e-9 * s.abs().max(1.0))
                .count();
            near == 1 // the hit itself, nothing else
        })
    }
}

/// What [`assert_matches_rebuild`] asks: each scan term and each TA
/// query at each `(k, τ)` case.
#[derive(Debug, Clone)]
pub struct Queries {
    /// Single-keyword queries, run in every mode.
    pub scans: Vec<TermId>,
    /// Multi-keyword queries, run in the default mode.
    pub tas: Vec<KeywordQuery>,
    /// `(k, τ)` pairs.
    pub cases: Vec<(usize, f64)>,
}

impl Queries {
    /// These scans and TA queries at each `(k, τ)` case.
    pub fn new(scans: Vec<TermId>, tas: Vec<KeywordQuery>, cases: &[(usize, f64)]) -> Queries {
        let cases = cases.to_vec();
        Queries { scans, tas, cases }
    }

    /// Scans of every term in `terms` and a TA query over the first two,
    /// at each k in `ks` with threshold `tau`.
    pub fn over(terms: &[TermId], ks: &[usize], tau: f64) -> Queries {
        let tas = terms.get(..2).map(|t| KeywordQuery { terms: t.to_vec() });
        let cases: Vec<_> = ks.iter().map(|&k| (k, tau)).collect();
        Queries::new(terms.to_vec(), tas.into_iter().collect(), &cases)
    }
}

/// The oracle: `served` passes `verify_rebuild_equivalence`, holds the
/// rebuilt state's tombstones, and answers every query of `queries` the
/// way `rebuild` says it must ([`Rebuild::check`]). Scans run
/// in all eight modes; `exact-astar` and `exact-dp` only at k ≤ 5, since
/// div-dp has no compression. Returns what the run covered.
pub fn assert_matches_rebuild<T: Live>(
    served: &T,
    rebuild: &Rebuild,
    queries: &Queries,
    case: &str,
) -> Coverage {
    served.verify().unwrap_or_else(|e| panic!("{case}: {e}"));
    assert_eq!(
        served.tombstones(),
        rebuild.state.tombstones(),
        "{case}: tombstones"
    );
    let mut coverage = Coverage::default();
    for &(k, tau) in &queries.cases {
        for mode in all_modes() {
            if k > 5 && matches!(mode, DiversifyMode::Exact(AStar | Dp)) {
                continue;
            }
            let options = SearchOptions::new(k).with_tau(tau).with_mode(mode);
            for &term in &queries.scans {
                let query = Query::Scan(term);
                let got = served.answer(&query, &options);
                let case = format!("{case}: scan {term} k {k} τ {tau} {}", options.mode.name());
                coverage += rebuild.check(&query, &options, &got, &case);
            }
        }
        let options = SearchOptions::new(k).with_tau(tau);
        for ta in &queries.tas {
            let query = Query::Keywords(ta.clone());
            let got = served.answer(&query, &options);
            let case = format!("{case}: TA {:?} k {k} τ {tau}", ta.terms);
            coverage += rebuild.check(&query, &options, &got, &case);
        }
    }
    coverage
}

/// Asserts that `got` answers every query of `queries` (scans in the
/// default mode) exactly as `want` does: two states of one layout, such
/// as a save and its load, repeat even a TA query's pull and stop point.
pub fn assert_same_answers<A: Live, B: Live>(want: &A, got: &B, queries: &Queries, case: &str) {
    let scans = queries.scans.iter().map(|&t| Query::Scan(t));
    let tas = queries.tas.iter().map(|q| Query::Keywords(q.clone()));
    for query in scans.chain(tas) {
        for &(k, tau) in &queries.cases {
            let options = SearchOptions::new(k).with_tau(tau);
            assert_eq!(
                want.answer(&query, &options),
                got.answer(&query, &options),
                "{case}: {query:?} k {k} τ {tau}"
            );
        }
    }
}
