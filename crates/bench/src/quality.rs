//! The quality evaluator: replays a [`QueryPack`] through the serving
//! engine **twice per query** — diversity on vs. off against the same
//! pinned snapshot — and scores what diversification buys and costs.
//!
//! Diversity metrics (higher-is-better deltas): unique-source@k (topic
//! labels from [`divtopk_text::synth::generate_labeled`]), max-share@k
//! (concentration of the most frequent source), and mean pairwise
//! weighted-Jaccard dissimilarity@k. Relevance guards: NDCG@k and MRR
//! against the diversity-off oracle — the off side is the plain
//! score-descending top-k, which is DCG-maximal for these gains, so its
//! NDCG and MRR are 1.0 by construction and every on-side delta is a
//! bounded sacrifice. Per-family pass criteria are each family's
//! [`Gates`]; [`QualityReport::render`] is the evidence table that
//! `quality_gate` prints and writes. [`evaluate`] reads no clock, so the
//! table is a pure function of the pack: the default pack's is committed
//! as `tests/data/quality_evidence.md`, and a test holds the gate's
//! output byte-equal to it. What a mode costs in time is measured by
//! `figures frontier` and the e2e benchmark, not here.

use crate::workload::{CacheMode, Gates, Mutation, PackEvent, QueryPack};
use divtopk_core::metrics::{max_share, ndcg, reciprocal_rank, unique_labels};
use divtopk_engine::engine::{Engine, EngineConfig, Query};
use divtopk_text::index::InvertedIndex;
use divtopk_text::jaccard::weighted_jaccard;
use divtopk_text::mode::DiversifyMode;
use divtopk_text::search::{SearchOptions, SearchOutput};
use divtopk_text::synth::generate_labeled;

/// Aggregate metrics of one side (diversity on or off) of a family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SideStats {
    /// Mean distinct topic labels among the hits.
    pub mean_unique_sources: f64,
    /// Mean share of the most frequent label.
    pub mean_max_share: f64,
    /// Mean pairwise `1 − weighted_jaccard` over hit pairs.
    pub mean_dissimilarity: f64,
    /// Mean NDCG@k against the off oracle (off side: 1.0 by definition).
    pub mean_ndcg: f64,
    /// Mean MRR of the oracle's top hit (off side: 1.0 by definition).
    pub mean_mrr: f64,
}

/// The on-minus-off family deltas the gates judge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deltas {
    /// Unique-source@k gain.
    pub unique_sources_gain: f64,
    /// Max-share@k delta (negative = concentration dropped = better).
    pub max_share_delta: f64,
    /// Pairwise-dissimilarity@k gain.
    pub dissimilarity_gain: f64,
    /// NDCG@k delta (≤ 0 by construction; closer to 0 = cheaper).
    pub ndcg_delta: f64,
    /// MRR delta (≤ 0 by construction).
    pub mrr_delta: f64,
}

/// One failed pass criterion, naming exactly what failed where.
#[derive(Debug, Clone, PartialEq)]
pub struct GateFailure {
    /// The family whose gate failed.
    pub family: String,
    /// The gate's name, a field of [`Gates`] (e.g. `min_ndcg_delta`).
    pub metric: String,
    /// The threshold the pack declared.
    pub threshold: f64,
    /// What the run actually measured.
    pub actual: f64,
}

impl std::fmt::Display for GateFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "family {:?}: gate {} failed (measured {:.4}, threshold {:.4})",
            self.family, self.metric, self.actual, self.threshold
        )
    }
}

/// Everything measured for one family.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyReport {
    /// Family name.
    pub name: String,
    /// Queries replayed (each ran twice).
    pub queries: usize,
    /// Diversity-on aggregates.
    pub on: SideStats,
    /// Diversity-off (oracle) aggregates.
    pub off: SideStats,
    /// On-minus-off deltas.
    pub deltas: Deltas,
    /// The pack's declared gates for this family.
    pub gates: Gates,
    /// Gates that failed (empty = family passes).
    pub failures: Vec<GateFailure>,
}

/// A full evaluation run over one pack.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityReport {
    /// Pack name.
    pub pack: String,
    /// Per-family results, in pack order.
    pub families: Vec<FamilyReport>,
}

impl QualityReport {
    /// True iff every family passed every declared gate.
    pub fn pass(&self) -> bool {
        self.families.iter().all(|f| f.failures.is_empty())
    }

    /// All gate failures across families, in pack order.
    pub fn failures(&self) -> impl Iterator<Item = &GateFailure> {
        self.families.iter().flat_map(|f| &f.failures)
    }

    /// The evidence table: the pack's name, one Markdown row per family
    /// and metric with both sides' means, the on − off delta, the gate
    /// the pack declares on that delta and its outcome, then the verdict.
    /// Every number prints at 6 decimals, so equal reports render to equal
    /// bytes; `tests/data/quality_evidence.md` is the default pack's.
    pub fn render(&self) -> String {
        let mut out = format!(
            "# Quality evidence: pack `{}`\n\n\
             Each query ran twice against one snapshot, diversity on and \
             off; a figure is the mean over the family's queries, and a \
             delta is on − off.\n\n\
             | Family | Queries | Metric | Diversity off | Diversity on | Delta (on-off) | Gate | Verdict |\n\
             | --- | ---: | --- | ---: | ---: | ---: | --- | --- |\n",
            self.pack
        );
        for f in &self.families {
            for row in f.rows() {
                let (gate, outcome) = match row.threshold {
                    None => ("—".to_owned(), "—".to_owned()),
                    Some(t) => {
                        let bound = if row.ceiling { "≤" } else { "≥" };
                        let outcome = match f.failures.iter().find(|x| x.metric == row.gate) {
                            Some(x) => format!("FAIL (measured {:+.6})", x.actual),
                            None => "pass".to_owned(),
                        };
                        (format!("`{}` {bound} {t:+.6}", row.gate), outcome)
                    }
                };
                out.push_str(&format!(
                    "| {} | {} | {} | {:.6} | {:.6} | {:+.6} | {gate} | {outcome} |\n",
                    f.name, f.queries, row.metric, row.off, row.on, row.delta
                ));
            }
        }
        let failed = self
            .families
            .iter()
            .filter(|f| !f.failures.is_empty())
            .count();
        out.push_str(&match failed {
            0 => format!("\nVerdict: PASS ({} families).\n", self.families.len()),
            _ => format!(
                "\nVerdict: FAIL ({failed} of {} families).\n",
                self.families.len()
            ),
        });
        out
    }
}

/// One metric of a family as the gates and the evidence table see it.
struct MetricRow {
    /// The metric's name in the evidence table.
    metric: &'static str,
    /// Diversity-off mean.
    off: f64,
    /// Diversity-on mean.
    on: f64,
    /// On − off.
    delta: f64,
    /// The key of the gate on `delta` (a field of [`Gates`]).
    gate: &'static str,
    /// The gate's threshold, if the pack declares one.
    threshold: Option<f64>,
    /// True when the gate is a ceiling on `delta`, false for a floor.
    ceiling: bool,
}

impl FamilyReport {
    /// The five metrics in evidence order, each beside its gate.
    fn rows(&self) -> [MetricRow; 5] {
        let (on, off, d, g) = (&self.on, &self.off, &self.deltas, &self.gates);
        let row = |metric, off, on, delta, gate, threshold, ceiling| MetricRow {
            metric,
            off,
            on,
            delta,
            gate,
            threshold,
            ceiling,
        };
        [
            row(
                "unique_sources@k",
                off.mean_unique_sources,
                on.mean_unique_sources,
                d.unique_sources_gain,
                "min_unique_sources_gain",
                g.min_unique_sources_gain,
                false,
            ),
            row(
                "max_share@k",
                off.mean_max_share,
                on.mean_max_share,
                d.max_share_delta,
                "max_max_share_delta",
                g.max_max_share_delta,
                true,
            ),
            row(
                "dissimilarity@k",
                off.mean_dissimilarity,
                on.mean_dissimilarity,
                d.dissimilarity_gain,
                "min_dissimilarity_gain",
                g.min_dissimilarity_gain,
                false,
            ),
            row(
                "ndcg@k",
                off.mean_ndcg,
                on.mean_ndcg,
                d.ndcg_delta,
                "min_ndcg_delta",
                g.min_ndcg_delta,
                false,
            ),
            row(
                "mrr",
                off.mean_mrr,
                on.mean_mrr,
                d.mrr_delta,
                "min_mrr_delta",
                g.min_mrr_delta,
                false,
            ),
        ]
    }

    /// The declared gates that this family's deltas fail, in row order.
    fn check_gates(&self) -> Vec<GateFailure> {
        self.rows()
            .into_iter()
            .filter_map(|row| {
                let threshold = row.threshold?;
                let failed = if row.ceiling {
                    row.delta > threshold
                } else {
                    row.delta < threshold
                };
                failed.then(|| GateFailure {
                    family: self.name.clone(),
                    metric: row.gate.to_owned(),
                    threshold,
                    actual: row.delta,
                })
            })
            .collect()
    }
}

/// Per-query metric accumulator for one side.
#[derive(Default)]
struct SideAcc {
    unique: f64,
    share: f64,
    dissim: f64,
    ndcg: f64,
    mrr: f64,
}

impl SideAcc {
    fn stats(self, n: usize) -> SideStats {
        let n = n.max(1) as f64;
        SideStats {
            mean_unique_sources: self.unique / n,
            mean_max_share: self.share / n,
            mean_dissimilarity: self.dissim / n,
            mean_ndcg: self.ndcg / n,
            mean_mrr: self.mrr / n,
        }
    }
}

/// Runs the full evaluation: builds the pack's corpus, compiles every
/// family, replays each against a fresh engine (mutations included), and
/// scores both sides of every query. A pure function of the pack.
pub fn evaluate(pack: &QueryPack) -> Result<QualityReport, String> {
    let (corpus, base_labels) = generate_labeled(&pack.corpus);
    let index = InvertedIndex::build(&corpus);
    let compiled = pack.compile(&corpus, &index)?;
    let mut families = Vec::with_capacity(compiled.len());
    for family in &compiled {
        // A fresh engine per family: families are independent by design
        // (mutations in one must not leak into another). Single batch
        // thread — replay is sequential by construction.
        let engine = Engine::new(corpus.clone(), EngineConfig::new(2).with_threads(1));
        let mut labels = base_labels.clone();
        let options_on = SearchOptions::new(family.k)
            .with_tau(family.tau)
            .with_mode(family.mode.clone());
        let options_off = options_on.clone().with_mode(DiversifyMode::None);
        let mut on = SideAcc::default();
        let mut off = SideAcc::default();
        let mut queries = 0usize;
        for event in &family.events {
            match event {
                PackEvent::Mutate(Mutation::Delete(docs)) => {
                    engine.delete_docs(docs);
                }
                PackEvent::Mutate(Mutation::CloneDocs(srcs)) => {
                    let live = engine.corpus();
                    let copies = srcs.iter().map(|&d| live.doc(d).clone()).collect();
                    engine.add_docs(copies);
                    // The copies inherit their sources' topic labels.
                    for &d in srcs {
                        labels.push(labels[d as usize]);
                    }
                }
                PackEvent::Query(query) => {
                    let generation = engine.generation();
                    let out_on = run_side(&engine, query, &options_on, family.cache)?;
                    let out_off = run_side(&engine, query, &options_off, family.cache)?;
                    assert_eq!(
                        generation,
                        engine.generation(),
                        "on/off pair must run against the same pinned snapshot"
                    );
                    score_pair(&engine, &labels, &out_on, &out_off, &mut on, &mut off);
                    queries += 1;
                }
            }
        }
        let on = on.stats(queries);
        let off = off.stats(queries);
        let deltas = Deltas {
            unique_sources_gain: on.mean_unique_sources - off.mean_unique_sources,
            max_share_delta: on.mean_max_share - off.mean_max_share,
            dissimilarity_gain: on.mean_dissimilarity - off.mean_dissimilarity,
            ndcg_delta: on.mean_ndcg - off.mean_ndcg,
            mrr_delta: on.mean_mrr - off.mean_mrr,
        };
        let mut report = FamilyReport {
            name: family.name.clone(),
            queries,
            on,
            off,
            deltas,
            gates: family.gates.clone(),
            failures: Vec::new(),
        };
        report.failures = report.check_gates();
        families.push(report);
    }
    Ok(QualityReport {
        pack: pack.name.clone(),
        families,
    })
}

/// Runs one side of a query, through the cache or around it.
fn run_side(
    engine: &Engine,
    query: &Query,
    options: &SearchOptions,
    cache: CacheMode,
) -> Result<SearchOutput, String> {
    match cache {
        CacheMode::Normal => engine.search(query, options),
        CacheMode::Bypass => engine.search_uncached(query, options),
    }
    .map_err(|e| format!("query {query:?}: {e}"))
}

/// Scores one on/off pair into the accumulators.
fn score_pair(
    engine: &Engine,
    labels: &[u32],
    out_on: &SearchOutput,
    out_off: &SearchOutput,
    on: &mut SideAcc,
    off: &mut SideAcc,
) {
    let corpus = engine.corpus();
    let label_of = |hits: &SearchOutput| -> Vec<u32> {
        hits.hits.iter().map(|h| labels[h.doc as usize]).collect()
    };
    let dissim = |hits: &SearchOutput| -> f64 {
        let docs: Vec<_> = hits.hits.iter().map(|h| h.doc).collect();
        if docs.len() < 2 {
            // 0 or 1 hits: vacuously diverse.
            return 1.0;
        }
        let mut acc = 0.0;
        let mut pairs = 0usize;
        for i in 0..docs.len() {
            for j in (i + 1)..docs.len() {
                acc += 1.0 - weighted_jaccard(&corpus, corpus.doc(docs[i]), corpus.doc(docs[j]));
                pairs += 1;
            }
        }
        acc / pairs as f64
    };
    let on_labels = label_of(out_on);
    let off_labels = label_of(out_off);
    on.unique += unique_labels(&on_labels) as f64;
    off.unique += unique_labels(&off_labels) as f64;
    on.share += max_share(&on_labels);
    off.share += max_share(&off_labels);
    on.dissim += dissim(out_on);
    off.dissim += dissim(out_off);
    // Relevance guards against the off oracle. The off ranking is the
    // plain top-k in descending score order, hence DCG-maximal: its own
    // NDCG and MRR are identically 1.
    let gains_on: Vec<f64> = out_on.hits.iter().map(|h| h.score.get()).collect();
    let gains_off: Vec<f64> = out_off.hits.iter().map(|h| h.score.get()).collect();
    on.ndcg += ndcg(&gains_on, &gains_off);
    off.ndcg += 1.0;
    let on_docs: Vec<_> = out_on.hits.iter().map(|h| h.doc).collect();
    on.mrr += match out_off.hits.first() {
        Some(best) => reciprocal_rank(&on_docs, &best.doc),
        // Oracle found nothing: neither side lost relevance.
        None => 1.0,
    };
    off.mrr += 1.0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Gates, QueryPack};

    fn shrunk_pack() -> QueryPack {
        let mut pack = QueryPack::default_pack();
        pack.corpus.num_docs = 400;
        for f in &mut pack.families {
            f.queries = 6;
            f.distinct = 3;
            // The committed gates are calibrated against the full-size
            // corpus; clear them so these tests exercise the machinery,
            // not the production thresholds.
            f.gates = Gates::default();
        }
        pack
    }

    #[test]
    fn evaluation_is_deterministic_and_relevance_bounded() {
        let pack = shrunk_pack();
        let a = evaluate(&pack).unwrap();
        let b = evaluate(&pack).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.families.len(), pack.families.len());
        for fa in &a.families {
            // The off oracle is exact: NDCG = MRR = 1 by construction,
            // and the on side can only sacrifice relevance.
            assert_eq!(fa.off.mean_ndcg, 1.0);
            assert_eq!(fa.off.mean_mrr, 1.0);
            assert!(fa.deltas.ndcg_delta <= 1e-9, "{}", fa.deltas.ndcg_delta);
            assert!(fa.deltas.mrr_delta <= 1e-9);
            // Diversity must never get *worse* with the constraint on.
            assert!(fa.deltas.unique_sources_gain >= -1e-9);
            assert!(fa.deltas.dissimilarity_gain >= -1e-9);
        }
    }

    #[test]
    fn tightened_gate_fails_naming_family_and_metric() {
        // An impossible diversity demand must fail loudly: NDCG delta can
        // never exceed 0, so a positive floor is guaranteed to trip.
        let mut pack = shrunk_pack();
        pack.families[0].gates.min_ndcg_delta = Some(0.5);
        let report = evaluate(&pack).unwrap();
        assert!(!report.pass());
        let failure = report.failures().next().unwrap();
        assert_eq!(failure.family, pack.families[0].name);
        assert_eq!(failure.metric, "min_ndcg_delta");
        let shown = failure.to_string();
        assert!(shown.contains(&pack.families[0].name), "{shown}");
        assert!(shown.contains("min_ndcg_delta"), "{shown}");
        // The evidence table carries the verdict, the threshold and the
        // measured value on the failing family's row.
        let table = report.render();
        assert!(
            table.contains(&format!(
                "Verdict: FAIL (1 of {} families)",
                pack.families.len()
            )),
            "{table}"
        );
        let row = format!(
            "| {} | {} | ndcg@k | 1.000000 | {:.6} | {:+.6} | `min_ndcg_delta` ≥ +0.500000 | FAIL (measured {:+.6}) |",
            failure.family,
            report.families[0].queries,
            report.families[0].on.mean_ndcg,
            failure.actual,
            failure.actual
        );
        assert!(
            table.lines().any(|l| l == row),
            "no row {row:?} in\n{table}"
        );
    }
}
