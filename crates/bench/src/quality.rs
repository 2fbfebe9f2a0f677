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
//! [`Gates`]; [`QualityReport::to_json_pretty`] emits the
//! self-validated evidence table (`divtopk-quality/1`) that
//! `quality_gate` writes and the CI `quality` job uploads.

use crate::workload::{CacheMode, Gates, Mutation, PackEvent, QueryPack};
use divtopk_core::metrics::{max_share, ndcg, reciprocal_rank, unique_labels};
use divtopk_engine::engine::{Engine, EngineConfig, Query};
use divtopk_text::index::InvertedIndex;
use divtopk_text::jaccard::weighted_jaccard;
use divtopk_text::mode::DiversifyMode;
use divtopk_text::search::{SearchOptions, SearchOutput};
use divtopk_text::synth::generate_labeled;
use std::time::Instant;

use crate::json::{self, Value};

/// The evidence-table schema this module emits.
pub const QUALITY_VERSION: &str = "divtopk-quality/1";

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
    /// Median per-query engine latency, ms.
    pub p50_ms: f64,
    /// 95th-percentile per-query engine latency, ms.
    pub p95_ms: f64,
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
    /// The gate's JSON key (e.g. `min_ndcg_delta`).
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

    /// The evidence table as a JSON DOM (`divtopk-quality/1`).
    pub fn to_value(&self) -> Value {
        let side = |s: &SideStats| {
            Value::Object(vec![
                (
                    "unique_sources_at_k".into(),
                    Value::Number(s.mean_unique_sources),
                ),
                ("max_share_at_k".into(), Value::Number(s.mean_max_share)),
                (
                    "dissimilarity_at_k".into(),
                    Value::Number(s.mean_dissimilarity),
                ),
                ("ndcg_at_k".into(), Value::Number(s.mean_ndcg)),
                ("mrr".into(), Value::Number(s.mean_mrr)),
                ("p50_ms".into(), Value::Number(s.p50_ms)),
                ("p95_ms".into(), Value::Number(s.p95_ms)),
            ])
        };
        let families = self
            .families
            .iter()
            .map(|f| {
                Value::Object(vec![
                    ("name".into(), Value::String(f.name.clone())),
                    ("queries".into(), Value::Number(f.queries as f64)),
                    ("pass".into(), Value::Bool(f.failures.is_empty())),
                    ("diversity_on".into(), side(&f.on)),
                    ("diversity_off".into(), side(&f.off)),
                    (
                        "deltas".into(),
                        Value::Object(vec![
                            (
                                "unique_sources_gain".into(),
                                Value::Number(f.deltas.unique_sources_gain),
                            ),
                            (
                                "max_share_delta".into(),
                                Value::Number(f.deltas.max_share_delta),
                            ),
                            (
                                "dissimilarity_gain".into(),
                                Value::Number(f.deltas.dissimilarity_gain),
                            ),
                            ("ndcg_delta".into(), Value::Number(f.deltas.ndcg_delta)),
                            ("mrr_delta".into(), Value::Number(f.deltas.mrr_delta)),
                        ]),
                    ),
                    (
                        "gates".into(),
                        Value::Object(
                            f.gates
                                .entries()
                                .into_iter()
                                .map(|(k, v)| (k.to_owned(), Value::Number(v)))
                                .collect(),
                        ),
                    ),
                    (
                        "failures".into(),
                        Value::Array(
                            f.failures
                                .iter()
                                .map(|fail| {
                                    Value::Object(vec![
                                        ("metric".into(), Value::String(fail.metric.clone())),
                                        ("threshold".into(), Value::Number(fail.threshold)),
                                        ("actual".into(), Value::Number(fail.actual)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Value::Object(vec![
            ("version".into(), Value::String(QUALITY_VERSION.into())),
            ("pack".into(), Value::String(self.pack.clone())),
            ("pass".into(), Value::Bool(self.pass())),
            ("families".into(), Value::Array(families)),
        ])
    }

    /// Pretty JSON evidence table, self-validated before it is returned
    /// (a malformed emission is a bug in this crate, caught here rather
    /// than downstream).
    pub fn to_json_pretty(&self) -> String {
        let mut text = json::emit_pretty(&self.to_value());
        text.push('\n');
        json::validate(&text).expect("evidence table must be well-formed JSON");
        text
    }

    /// The on/off comparison as a human-readable table (one row per
    /// family-side, SNIPPETS-style evidence framing).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:>4} {:>9} {:>10} {:>9} {:>8} {:>7} {:>8} {:>8}  {}\n",
            "family",
            "side",
            "uniq@k",
            "maxshare",
            "dissim",
            "ndcg",
            "mrr",
            "p50ms",
            "p95ms",
            "gates"
        ));
        for f in &self.families {
            for (tag, s) in [("on", &f.on), ("off", &f.off)] {
                let verdict = if tag == "on" {
                    if f.failures.is_empty() {
                        "pass".to_owned()
                    } else {
                        format!(
                            "FAIL [{}]",
                            f.failures
                                .iter()
                                .map(|x| x.metric.as_str())
                                .collect::<Vec<_>>()
                                .join(", ")
                        )
                    }
                } else {
                    String::new()
                };
                out.push_str(&format!(
                    "{:<16} {:>4} {:>9.3} {:>10.3} {:>9.3} {:>8.3} {:>7.3} {:>8.3} {:>8.3}  {}\n",
                    f.name,
                    tag,
                    s.mean_unique_sources,
                    s.mean_max_share,
                    s.mean_dissimilarity,
                    s.mean_ndcg,
                    s.mean_mrr,
                    s.p50_ms,
                    s.p95_ms,
                    verdict
                ));
            }
        }
        out
    }
}

/// Latency quantile over raw ns samples, in ms.
fn quantile_ms(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1] as f64 / 1e6
}

/// Per-query metric accumulator for one side.
#[derive(Default)]
struct SideAcc {
    unique: f64,
    share: f64,
    dissim: f64,
    ndcg: f64,
    mrr: f64,
    latencies_ns: Vec<u64>,
}

impl SideAcc {
    fn stats(mut self, n: usize) -> SideStats {
        let n = n.max(1) as f64;
        SideStats {
            mean_unique_sources: self.unique / n,
            mean_max_share: self.share / n,
            mean_dissimilarity: self.dissim / n,
            mean_ndcg: self.ndcg / n,
            mean_mrr: self.mrr / n,
            p50_ms: quantile_ms(&mut self.latencies_ns, 0.50),
            p95_ms: quantile_ms(&mut self.latencies_ns, 0.95),
        }
    }
}

/// Runs the full evaluation: builds the pack's corpus, compiles every
/// family, replays each against a fresh engine (mutations included), and
/// scores both sides of every query. Deterministic in everything except
/// the latency columns.
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
                    let out_on = run_side(&engine, query, &options_on, family.cache, &mut on)?;
                    let out_off = run_side(&engine, query, &options_off, family.cache, &mut off)?;
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
        let failures = check_gates(&family.name, &family.gates, &deltas);
        families.push(FamilyReport {
            name: family.name.clone(),
            queries,
            on,
            off,
            deltas,
            gates: family.gates.clone(),
            failures,
        });
    }
    Ok(QualityReport {
        pack: pack.name.clone(),
        families,
    })
}

/// Runs one side of a query, recording its latency.
fn run_side(
    engine: &Engine,
    query: &Query,
    options: &SearchOptions,
    cache: CacheMode,
    acc: &mut SideAcc,
) -> Result<SearchOutput, String> {
    // LINT-ALLOW(wallclock): latency measurement only — the timings
    // land in the report's latency fields, never in result selection, so
    // replayed runs stay byte-identical everywhere the harness compares.
    let started = Instant::now();
    let out = match cache {
        CacheMode::Normal => engine.search(query, options),
        CacheMode::Bypass => engine.search_uncached(query, options),
    }
    .map_err(|e| format!("query {query:?}: {e}"))?;
    acc.latencies_ns.push(started.elapsed().as_nanos() as u64);
    Ok(out)
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

/// Applies the declared gates to the measured deltas.
fn check_gates(family: &str, gates: &Gates, deltas: &Deltas) -> Vec<GateFailure> {
    let mut failures = Vec::new();
    let mut floor = |metric: &str, threshold: Option<f64>, actual: f64| {
        if let Some(t) = threshold {
            if actual < t {
                failures.push(GateFailure {
                    family: family.to_owned(),
                    metric: metric.to_owned(),
                    threshold: t,
                    actual,
                });
            }
        }
    };
    floor(
        "min_unique_sources_gain",
        gates.min_unique_sources_gain,
        deltas.unique_sources_gain,
    );
    floor(
        "min_dissimilarity_gain",
        gates.min_dissimilarity_gain,
        deltas.dissimilarity_gain,
    );
    floor("min_ndcg_delta", gates.min_ndcg_delta, deltas.ndcg_delta);
    floor("min_mrr_delta", gates.min_mrr_delta, deltas.mrr_delta);
    // The share gate is a ceiling: concentration must not rise past it.
    if let Some(t) = gates.max_max_share_delta {
        if deltas.max_share_delta > t {
            failures.push(GateFailure {
                family: family.to_owned(),
                metric: "max_max_share_delta".to_owned(),
                threshold: t,
                actual: deltas.max_share_delta,
            });
        }
    }
    failures
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
        assert_eq!(a.families.len(), pack.families.len());
        for (fa, fb) in a.families.iter().zip(&b.families) {
            // Everything except wall-clock latency is deterministic.
            assert_eq!(fa.name, fb.name);
            assert_eq!(fa.queries, fb.queries);
            assert_eq!(fa.deltas, fb.deltas);
            assert_eq!(fa.failures, fb.failures);
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
    fn evidence_table_is_self_validated_json() {
        let report = evaluate(&shrunk_pack()).unwrap();
        let text = report.to_json_pretty();
        let doc = json::parse(&text).unwrap();
        assert_eq!(
            doc.get("version").and_then(Value::as_str),
            Some(QUALITY_VERSION)
        );
        let families = doc.get("families").and_then(Value::as_array).unwrap();
        assert_eq!(families.len(), report.families.len());
        for fam in families {
            for side in ["diversity_on", "diversity_off"] {
                let s = fam.get(side).unwrap();
                for key in [
                    "unique_sources_at_k",
                    "max_share_at_k",
                    "dissimilarity_at_k",
                    "ndcg_at_k",
                    "mrr",
                    "p50_ms",
                    "p95_ms",
                ] {
                    let v = s.get(key).and_then(Value::as_f64).unwrap();
                    assert!(v.is_finite(), "{side}.{key}");
                }
            }
        }
        assert!(!report.render_table().is_empty());
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
    }
}
