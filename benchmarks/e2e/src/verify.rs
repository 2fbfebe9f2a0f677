//! Answers are checked, not assumed.
//!
//! Every answer of every phase is compared with an in-process reference
//! computed once per distinct `(query, options, generation)`:
//!
//! * an **exact** mode must reach the total score of a one-segment index
//!   over the same documents, bit for bit, and its hits must be pairwise
//!   no more similar than `τ`;
//! * a **cheap** mode must equal the same engine's in-process answer;
//! * on a read-only engine every answer must also equal that engine's
//!   own uncached in-process answer, field for field (the cache, the
//!   pull pool, the batch path and the wire may not change an answer).
//!
//! A mismatch is a failed operation.

use crate::workload::{Inputs, Req};
use divtopk_engine::proto::WireHits;
use divtopk_engine::{Engine, Query};
use divtopk_text::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};

struct Expected {
    /// The engine's own uncached answer.
    same: SearchOutput,
    /// Why the reference rejects `same`, if it does.
    verdict: Result<(), String>,
}

/// The reference for an engine that is not being mutated (one
/// generation).
pub struct Oracle<'a> {
    engine: &'a Engine,
    generation: u64,
    /// A one-segment index over the same live documents, when the engine
    /// under test has more segments than that.
    single: Option<SegmentedIndex>,
    memo: HashMap<Vec<u8>, Expected>,
}

fn search_index(index: &SegmentedIndex, req: &Req) -> Result<SearchOutput, String> {
    let options = req.wire_options();
    match &req.query {
        Query::Scan(term) => index.search_scan(*term, &options),
        Query::Keywords(q) => index.search_ta(q, &options),
    }
    .map_err(|e| format!("one-segment search failed: {e}"))
}

/// `Err` when two hits are more similar than `τ`.
fn pairwise_diverse(corpus: &Corpus, docs: &[DocId], tau: f64) -> Result<(), String> {
    for (i, &a) in docs.iter().enumerate() {
        for &b in &docs[i + 1..] {
            let sim = weighted_jaccard(corpus, corpus.doc(a), corpus.doc(b));
            if sim > tau {
                return Err(format!(
                    "hits {a} and {b} have similarity {sim} > τ = {tau}"
                ));
            }
        }
    }
    Ok(())
}

fn docs_of(out: &SearchOutput) -> Vec<DocId> {
    out.hits.iter().map(|h| h.doc).collect()
}

/// Compares a wire answer with an in-process one, bit for bit.
fn wire_equals(hits: &WireHits, out: &SearchOutput) -> Result<(), String> {
    let same_hits = hits.hits.len() == out.hits.len()
        && hits
            .hits
            .iter()
            .zip(&out.hits)
            .all(|(w, h)| w.0 == h.doc && w.1.to_bits() == h.score.get().to_bits());
    if !same_hits {
        return Err(format!(
            "hits differ: wire {:?} vs in-process {:?}",
            hits.hits, out.hits
        ));
    }
    if hits.total_score.to_bits() != out.total_score.get().to_bits() {
        return Err(format!(
            "total score {} differs from in-process {}",
            hits.total_score,
            out.total_score.get()
        ));
    }
    if hits.results_generated != out.metrics.results_generated
        || hits.early_stopped != out.metrics.early_stopped
    {
        return Err("results_generated / early_stopped differ from in-process".to_owned());
    }
    Ok(())
}

impl<'a> Oracle<'a> {
    /// For a freshly built engine: the one-segment reference is built
    /// from the epoch corpus when the engine has more than one shard.
    pub fn new(inputs: &Inputs, engine: &'a Engine) -> Oracle<'a> {
        let single = (inputs.spec.shards > 1).then(|| SegmentedIndex::build(inputs.base.clone()));
        Oracle::at_rest(engine, single)
    }

    /// For an engine at rest after mutations, with the replay's
    /// one-segment index of the same generation as reference.
    pub fn at_rest(engine: &'a Engine, single: Option<SegmentedIndex>) -> Oracle<'a> {
        Oracle {
            engine,
            generation: engine.generation(),
            single,
            memo: HashMap::new(),
        }
    }

    fn compute(&self, req: &Req) -> Result<Expected, String> {
        let options = req.wire_options();
        let same = self
            .engine
            .search_uncached(&req.query, &options)
            .map_err(|e| format!("reference search failed: {e}"))?;
        let mut verdict = Ok(());
        if req.is_exact() {
            if let Some(single) = &self.single {
                let reference = search_index(single, req)?;
                if reference.total_score.get().to_bits() != same.total_score.get().to_bits() {
                    verdict = Err(format!(
                        "total score {} differs from the one-segment optimum {}",
                        same.total_score.get(),
                        reference.total_score.get()
                    ));
                }
            }
            if verdict.is_ok() {
                verdict = pairwise_diverse(&self.engine.corpus(), &docs_of(&same), options.tau);
            }
        }
        Ok(Expected { same, verdict })
    }

    fn expected(&mut self, req: &Req) -> Result<&Expected, String> {
        let key = req.key();
        if !self.memo.contains_key(&key) {
            let expected = self.compute(req)?;
            self.memo.insert(key.clone(), expected);
        }
        Ok(&self.memo[&key])
    }

    /// Checks an in-process answer.
    pub fn check_output(&mut self, req: &Req, out: &SearchOutput) -> Result<(), String> {
        let expected = self.expected(req)?;
        expected.verdict.clone()?;
        if *out != expected.same {
            return Err("answer differs from the engine's own uncached answer".to_owned());
        }
        Ok(())
    }

    /// Checks an answer that crossed the wire.
    pub fn check_hits(&mut self, req: &Req, hits: &WireHits) -> Result<(), String> {
        let generation = self.generation;
        let expected = self.expected(req)?;
        expected.verdict.clone()?;
        if hits.generation != generation {
            return Err(format!(
                "answered from generation {}, engine is at {generation}",
                hits.generation
            ));
        }
        wire_equals(hits, &expected.same)
    }
}

/// One mutation the writer applied, for the replay.
#[derive(Debug, Clone)]
pub enum Op {
    /// Added `pool[range]`.
    Add(std::ops::Range<usize>),
    Delete(Vec<DocId>),
    /// Compaction changes the layout, not the documents.
    Compact,
}

/// The writer's mutations with the generation each one published.
#[derive(Debug, Default)]
pub struct OpLog {
    pub ops: Vec<(Op, u64)>,
}

impl OpLog {
    /// Replays the log on a private **one-segment, never-compacted**
    /// index — an independently laid-out index over the same live
    /// documents — and returns its state at each generation in `needed`.
    pub fn mirrors(
        &self,
        inputs: &Inputs,
        needed: &BTreeSet<u64>,
    ) -> BTreeMap<u64, SegmentedIndex> {
        let mut mirror = SegmentedIndex::build(inputs.base.clone());
        let mut states = BTreeMap::new();
        if needed.contains(&0) {
            states.insert(0, mirror.clone());
        }
        for (op, generation) in &self.ops {
            match op {
                Op::Add(range) => {
                    mirror.add_docs(inputs.pool[range.clone()].to_vec());
                }
                Op::Delete(docs) => {
                    mirror.delete_docs(docs);
                }
                Op::Compact => {}
            }
            if needed.contains(generation) {
                states.insert(*generation, mirror.clone());
            }
        }
        states
    }
}

/// Checks wire answers given while a writer was mutating the engine,
/// each against the replay's index of the generation it reports.
/// Returns one verdict per answer, in input order.
pub fn check_live(
    inputs: &Inputs,
    log: &OpLog,
    answers: &[(Req, &WireHits)],
) -> Vec<Result<(), String>> {
    let needed: BTreeSet<u64> = answers.iter().map(|(_, h)| h.generation).collect();
    let mirrors = log.mirrors(inputs, &needed);
    let mut memo: HashMap<(u64, Vec<u8>), Result<SearchOutput, String>> = HashMap::new();
    answers
        .iter()
        .map(|(req, hits)| {
            let Some(mirror) = mirrors.get(&hits.generation) else {
                return Err(format!(
                    "generation {} was never published",
                    hits.generation
                ));
            };
            let reference = memo
                .entry((hits.generation, req.key()))
                .or_insert_with(|| search_index(mirror, req))
                .clone()?;
            if req.is_exact() {
                if hits.total_score.to_bits() != reference.total_score.get().to_bits() {
                    return Err(format!(
                        "generation {}: total score {} differs from the one-segment optimum {}",
                        hits.generation,
                        hits.total_score,
                        reference.total_score.get()
                    ));
                }
                let docs: Vec<DocId> = hits.hits.iter().map(|h| h.0).collect();
                if docs.iter().any(|&d| !mirror.is_live(d)) {
                    return Err(format!("generation {}: a hit is deleted", hits.generation));
                }
                pairwise_diverse(mirror.corpus(), &docs, req.options.tau)?;
                // A scan's merged emission equals the rebuild's, so its
                // hits — not only their total — must agree.
                if matches!(req.query, Query::Scan(_)) {
                    wire_equals(hits, &reference)?;
                }
                Ok(())
            } else {
                wire_equals(hits, &reference)
            }
        })
        .collect()
}

/// An engine's uncached answers to the restart check's probe queries;
/// the saving and the loaded engine must give the same, field for field.
pub fn probe_answers(engine: &Engine, probes: &[Req]) -> Result<Vec<SearchOutput>, String> {
    probes
        .iter()
        .map(|req| {
            engine
                .search_uncached(&req.query, &req.wire_options())
                .map_err(|e| format!("probe {:?} failed: {e}", req.query))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::spec;

    #[test]
    fn oracle_accepts_the_engine_and_rejects_a_tampered_answer() {
        let inputs = Inputs::generate(spec("cold_search", true).unwrap());
        let engine = Engine::new(inputs.base.clone(), inputs.spec.engine_config());
        let mut oracle = Oracle::new(&inputs, &engine);
        for i in 0..40 {
            let req = inputs.request(3, i);
            let out = engine.search(&req.query, &req.options).unwrap();
            oracle.check_output(&req, &out).unwrap();
            let mut wire = WireHits {
                generation: 0,
                hits: out.hits.iter().map(|h| (h.doc, h.score.get())).collect(),
                total_score: out.total_score.get(),
                results_generated: out.metrics.results_generated,
                early_stopped: out.metrics.early_stopped,
            };
            oracle.check_hits(&req, &wire).unwrap();
            if let Some(first) = wire.hits.first_mut() {
                first.0 += 1;
                assert!(oracle.check_hits(&req, &wire).is_err());
            }
            wire.generation = 1;
            assert!(oracle.check_hits(&req, &wire).is_err());
        }
    }

    #[test]
    fn pairwise_check_sees_a_duplicate() {
        let inputs = Inputs::generate(spec("hot_serve", true).unwrap());
        assert!(pairwise_diverse(&inputs.base, &[0, 0], 0.6).is_err());
    }

    #[test]
    fn mirrors_follow_the_log() {
        let inputs = Inputs::generate(spec("live_mixed", true).unwrap());
        let log = OpLog {
            ops: vec![
                (Op::Add(0..8), 1),
                (Op::Delete(vec![3, 1_500]), 2),
                (Op::Compact, 3),
            ],
        };
        let states = log.mirrors(&inputs, &BTreeSet::from([0, 2, 3]));
        assert_eq!(states[&0].live_docs(), 1_500);
        assert_eq!(states[&2].live_docs(), 1_506);
        assert_eq!(states[&3].live_docs(), 1_506);
        assert!(!states[&2].is_live(3));
    }
}
