//! The quality gate's query pack: named query families with realistic
//! traffic shapes, deterministic from a seed recorded in the pack.
//!
//! A [`QueryPack`] is plain Rust data: a synthetic-corpus recipe (a
//! [`SynthConfig`]) plus a list of **families**: Zipf head/torso/tail
//! term draws over the kfreq bands of DESIGN.md §3, cold-cache sweeps
//! ([`CacheMode::Bypass`]), hot-doc deletion storms and adversarial
//! near-duplicate floods replayed through the engine's mutation API.
//! [`QueryPack::compile`] expands every family into a byte-reproducible
//! script of queries and mutations — the same pack and seed always
//! produce identical query sequences and mutation scripts
//! (`tests/pack_replay.rs` pins this as a property test).
//!
//! [`QueryPack::default_pack`] is the pack CI gates on;
//! [`crate::quality`] replays a pack through the engine twice
//! (diversity on/off) and scores the results.

use divtopk_core::rng::Pcg;
use divtopk_engine::engine::Query;
use divtopk_text::corpus::Corpus;
use divtopk_text::document::DocId;
use divtopk_text::index::InvertedIndex;
use divtopk_text::mode::DiversifyMode;
use divtopk_text::query::query_for_band;
use divtopk_text::synth::SynthConfig;

/// A full query-pack: corpus recipe + families, all derived from `seed`.
#[derive(Debug, Clone)]
pub struct QueryPack {
    /// Pack name (shows up in evidence tables).
    pub name: String,
    /// Master seed; every family derives its stream from this and its
    /// own name, so families are independent and reorderable.
    pub seed: u64,
    /// Synthetic-corpus recipe; `generate_labeled` of it gives the
    /// corpus and its per-document topic labels (the quality harness's
    /// ground-truth "sources").
    pub corpus: SynthConfig,
    /// The query families.
    pub families: Vec<Family>,
}

/// Term-popularity band a family draws its queries from, mapped onto the
/// kfreq bands of Fig. 12: `tail` = band 1 (rare terms), `torso` =
/// bands 2–3, `head` = bands 4–5 (the most popular terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Band {
    /// kfreq 4–5.
    Head,
    /// kfreq 2–3.
    Torso,
    /// kfreq 1.
    Tail,
}

impl Band {
    /// kfreq values tried in order when drawing a query (first hit wins;
    /// later entries are fallbacks for sparsely populated bands).
    fn kfreq_candidates(self) -> &'static [u8] {
        match self {
            Band::Head => &[5, 4, 3],
            Band::Torso => &[3, 2, 4],
            Band::Tail => &[1, 2],
        }
    }
}

/// Whether the family's queries go through the engine's result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Normal serving path ([`divtopk_engine::engine::Engine::search`]).
    Normal,
    /// Cold-cache sweep: every query bypasses the cache
    /// ([`divtopk_engine::engine::Engine::search_uncached`]).
    Bypass,
}

/// Mutation traffic interleaved with a family's queries, replayed
/// through the engine's mutation API mid-family.
#[derive(Debug, Clone, PartialEq)]
pub enum MutationSpec {
    /// No mutations.
    None,
    /// Hot-doc deletion storm: `events` bursts, each tombstoning
    /// `docs_per_event` documents that match the family's hottest term.
    DeleteStorm {
        /// Number of deletion bursts, spread evenly through the family.
        events: usize,
        /// Documents tombstoned per burst.
        docs_per_event: usize,
    },
    /// Adversarial near-duplicate flood: `events` bursts, each adding
    /// `docs_per_event` exact copies of documents matching the family's
    /// hottest term — the redundancy attack diversification must absorb.
    NeardupFlood {
        /// Number of flood bursts.
        events: usize,
        /// Copies added per burst.
        docs_per_event: usize,
    },
}

/// Per-family pass criteria, declared in the pack itself. All deltas are
/// family means of (diversity-on − diversity-off); absent gates are not
/// enforced. The off side is the relevance oracle (plain top-k), so its
/// NDCG and MRR are 1.0 by construction and the relevance deltas are
/// bounded regressions in the style of SNIPPETS.md Snippet 2.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Gates {
    /// Diversity gain floor: mean unique-source@k must rise at least this
    /// much when diversification is on.
    pub min_unique_sources_gain: Option<f64>,
    /// Concentration ceiling: mean max-share@k delta must be ≤ this
    /// (negative values demand an improvement).
    pub max_max_share_delta: Option<f64>,
    /// Mean pairwise-dissimilarity@k gain floor.
    pub min_dissimilarity_gain: Option<f64>,
    /// Relevance guard: mean NDCG@k delta vs. the off oracle must be ≥
    /// this (e.g. −0.05 allows at most a 5-point NDCG sacrifice).
    pub min_ndcg_delta: Option<f64>,
    /// Relevance guard: mean MRR delta vs. the off oracle must be ≥ this.
    pub min_mrr_delta: Option<f64>,
}

/// One named query family.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    /// Family name (unique within the pack; keys the evidence table and
    /// the per-family RNG stream).
    pub name: String,
    /// Term-popularity band the queries draw from.
    pub band: Band,
    /// Total queries in the family.
    pub queries: usize,
    /// Distinct query pool size (`queries` are Zipf draws from it — the
    /// pool-to-total ratio sets the cache-hit rate a serving trace sees).
    pub distinct: usize,
    /// Zipf exponent of the repeat draws over the pool (0 = uniform).
    pub zipf_exponent: f64,
    /// Fraction of the pool that is multi-keyword (TA) queries.
    pub ta_fraction: f64,
    /// `k` for every query.
    pub k: usize,
    /// `τ` for every query.
    pub tau: f64,
    /// Cache mode.
    pub cache: CacheMode,
    /// Interleaved mutation traffic.
    pub mutations: MutationSpec,
    /// The diversify mode the family's "on" side runs (the "off" side is
    /// always [`DiversifyMode::None`]).
    pub mode: DiversifyMode,
    /// Pass criteria.
    pub gates: Gates,
}

/// One step of a compiled family script, in replay order.
#[derive(Debug, Clone, PartialEq)]
pub enum PackEvent {
    /// Serve this query.
    Query(Query),
    /// Apply this mutation before the next query.
    Mutate(Mutation),
}

/// A compiled mutation: concrete doc ids, fixed at compile time so the
/// script is byte-reproducible.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    /// Tombstone these documents.
    Delete(Vec<DocId>),
    /// Add one exact copy of each of these source documents (the copies'
    /// topic labels follow their sources).
    CloneDocs(Vec<DocId>),
}

/// A family expanded against a concrete corpus: everything the quality
/// evaluator and the serving suites replay.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledFamily {
    /// Family name.
    pub name: String,
    /// `k` for every query.
    pub k: usize,
    /// `τ` for every query.
    pub tau: f64,
    /// Cache mode.
    pub cache: CacheMode,
    /// The "on" side's diversify mode (copied from the pack).
    pub mode: DiversifyMode,
    /// Pass criteria (copied from the pack).
    pub gates: Gates,
    /// Queries and mutations in replay order.
    pub events: Vec<PackEvent>,
}

impl CompiledFamily {
    /// The queries of the script, in order (mutations skipped).
    pub fn queries(&self) -> impl Iterator<Item = &Query> {
        self.events.iter().filter_map(|e| match e {
            PackEvent::Query(q) => Some(q),
            PackEvent::Mutate(_) => None,
        })
    }
}

/// FNV-1a of a name — the per-family seed perturbation. Stable across
/// platforms (pure integer arithmetic), so compiled scripts are too.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl QueryPack {
    /// Expands every family into its deterministic replay script against
    /// `corpus` (which must be `generate_labeled(&self.corpus)`'s) and
    /// its inverted `index`. Same pack + same corpus ⇒ byte-identical
    /// output, always. A family whose band has no usable terms in the
    /// corpus, or whose mutations find no victims, is an error naming it.
    pub fn compile(
        &self,
        corpus: &Corpus,
        index: &InvertedIndex,
    ) -> Result<Vec<CompiledFamily>, String> {
        self.families
            .iter()
            .map(|f| f.compile(self.seed, corpus, index))
            .collect()
    }

    /// The pack CI gates on. Nine families over the tiny synthetic
    /// corpus: a bursty head-term family, the realistic torso mix the
    /// serving suites replay, a cold-cache tail sweep, a hot-doc deletion
    /// storm, an adversarial near-duplicate flood, and the torso mix once
    /// per cheap mode. Gate thresholds were calibrated from the measured
    /// deltas of a `quality_gate` run on this exact pack (see DESIGN.md
    /// §12): each floor sits at roughly half the measured gain and each
    /// relevance guard at roughly twice the measured sacrifice. The
    /// quality harness is deterministic, so any drift is a code change,
    /// not noise.
    pub fn default_pack() -> QueryPack {
        // Unless a family says otherwise it draws k = 10 hits at τ = 0.3
        // from a Zipf(1) pool a quarter of which is two-term queries,
        // through the cache, with no mutations.
        let family = |name: &str, band, queries, distinct, mode, gates| Family {
            name: name.to_owned(),
            band,
            queries,
            distinct,
            zipf_exponent: 1.0,
            ta_fraction: 0.25,
            k: 10,
            tau: 0.3,
            cache: CacheMode::Normal,
            mutations: MutationSpec::None,
            mode,
            gates,
        };
        // Every family gates dissimilarity and NDCG, and tolerates the
        // same MRR sacrifice.
        let gates = |unique_sources_gain, max_share_delta, dissimilarity_gain, ndcg_delta| Gates {
            min_unique_sources_gain: unique_sources_gain,
            max_max_share_delta: max_share_delta,
            min_dissimilarity_gain: Some(dissimilarity_gain),
            min_ndcg_delta: Some(ndcg_delta),
            min_mrr_delta: Some(-0.25),
        };
        let exact = DiversifyMode::exact;
        QueryPack {
            name: "default".to_owned(),
            seed: 20260807,
            corpus: SynthConfig::tiny().with_num_docs(800).with_seed(7),
            families: vec![
                family(
                    "head_burst",
                    Band::Head,
                    48,
                    12,
                    exact(),
                    gates(Some(0.5), None, 0.008, -0.05),
                ),
                family(
                    "torso_mix",
                    Band::Torso,
                    64,
                    32,
                    exact(),
                    gates(None, Some(0.05), 0.004, -0.05),
                ),
                Family {
                    zipf_exponent: 0.0,
                    ta_fraction: 0.0,
                    k: 5,
                    cache: CacheMode::Bypass,
                    ..family(
                        "tail_cold",
                        Band::Tail,
                        32,
                        32,
                        exact(),
                        gates(Some(0.05), Some(0.0), 0.05, -0.1),
                    )
                },
                Family {
                    mutations: MutationSpec::DeleteStorm {
                        events: 4,
                        docs_per_event: 3,
                    },
                    ..family(
                        "delete_storm",
                        Band::Head,
                        32,
                        8,
                        exact(),
                        gates(Some(0.08), None, 0.005, -0.05),
                    )
                },
                Family {
                    mutations: MutationSpec::NeardupFlood {
                        events: 4,
                        docs_per_event: 6,
                    },
                    ..family(
                        "neardup_flood",
                        Band::Torso,
                        32,
                        8,
                        exact(),
                        gates(Some(1.0), Some(-0.05), 0.04, -0.15),
                    )
                },
                family(
                    "torso_mmr",
                    Band::Torso,
                    48,
                    24,
                    DiversifyMode::mmr(0.7),
                    gates(Some(0.15), None, 0.004, -0.05),
                ),
                family(
                    "torso_window",
                    Band::Torso,
                    48,
                    24,
                    DiversifyMode::window(),
                    gates(Some(0.0), None, 0.0, -0.05),
                ),
                family(
                    "torso_disc",
                    Band::Torso,
                    48,
                    24,
                    DiversifyMode::Disc,
                    gates(None, Some(0.0), 0.005, -0.05),
                ),
                family(
                    "torso_knn",
                    Band::Torso,
                    48,
                    24,
                    DiversifyMode::knn(),
                    gates(Some(0.4), None, 0.008, -0.05),
                ),
            ],
        }
    }
}

impl Family {
    /// Expands this family against the concrete corpus: draws the
    /// distinct query pool from the family's band, Zipf-samples the
    /// query sequence and fixes mutation victims —
    /// all from `Pcg(pack_seed ^ fnv1a(name))`, so the script is a pure
    /// function of (pack, corpus).
    fn compile(
        &self,
        pack_seed: u64,
        corpus: &Corpus,
        index: &InvertedIndex,
    ) -> Result<CompiledFamily, String> {
        let ctx = format!("family {:?}", self.name);
        let mut rng = Pcg::new(pack_seed ^ fnv1a(&self.name));
        // Distinct pool: band draws with per-entry seeds.
        let mut pool: Vec<Query> = Vec::with_capacity(self.distinct);
        for j in 0..self.distinct {
            let is_ta = rng.chance(self.ta_fraction);
            let num_terms = if is_ta { 2 } else { 1 };
            let qseed = pack_seed ^ fnv1a(&self.name) ^ (j as u64).wrapping_mul(0x9e3779b97f4a7c15);
            let drawn = self
                .band
                .kfreq_candidates()
                .iter()
                .find_map(|&kfreq| query_for_band(corpus, kfreq, num_terms, qseed));
            let Some(q) = drawn else {
                return Err(format!(
                    "{ctx}: band {:?} has no usable terms in this corpus",
                    self.band
                ));
            };
            pool.push(if num_terms == 1 {
                Query::Scan(q.terms[0])
            } else {
                Query::Keywords(q)
            });
        }
        // Zipf CDF over pool ranks (exponent 0 = uniform).
        let mut cdf = Vec::with_capacity(pool.len());
        let mut acc = 0.0;
        for rank in 0..pool.len() {
            acc += 1.0 / ((rank + 1) as f64).powf(self.zipf_exponent);
            cdf.push(acc);
        }
        // Mutation victims: documents matching the family's hottest pool
        // term ("hot docs"), chunked per event.
        let (mutations, kind_is_delete) = match self.mutations {
            MutationSpec::None => (Vec::new(), false),
            MutationSpec::DeleteStorm {
                events,
                docs_per_event,
            } => (
                mutation_chunks(&pool, corpus, index, events, docs_per_event, &ctx)?,
                true,
            ),
            MutationSpec::NeardupFlood {
                events,
                docs_per_event,
            } => (
                mutation_chunks(&pool, corpus, index, events, docs_per_event, &ctx)?,
                false,
            ),
        };
        // Interleave: mutation event e fires before query index
        // (e+1)·queries/(events+1) — evenly through the family.
        let mut fire_at = vec![usize::MAX; mutations.len()];
        for (e, slot) in fire_at.iter_mut().enumerate() {
            *slot = (e + 1) * self.queries / (mutations.len() + 1);
        }
        let mut events = Vec::with_capacity(self.queries + mutations.len());
        let mut next_mutation = 0;
        for i in 0..self.queries {
            while next_mutation < mutations.len() && fire_at[next_mutation] == i {
                let docs = mutations[next_mutation].clone();
                events.push(PackEvent::Mutate(if kind_is_delete {
                    Mutation::Delete(docs)
                } else {
                    Mutation::CloneDocs(docs)
                }));
                next_mutation += 1;
            }
            events.push(PackEvent::Query(pool[rng.sample_cdf(&cdf)].clone()));
        }
        Ok(CompiledFamily {
            name: self.name.clone(),
            k: self.k,
            tau: self.tau,
            cache: self.cache,
            mode: self.mode.clone(),
            gates: self.gates.clone(),
            events,
        })
    }
}

/// Victim doc-id chunks for mutation events: the posting list of the
/// hottest (highest-df) term used by the pool's queries, split into
/// per-event chunks (wrapping when the list is short, deduplicated
/// within an event).
fn mutation_chunks(
    pool: &[Query],
    corpus: &Corpus,
    index: &InvertedIndex,
    events: usize,
    docs_per_event: usize,
    ctx: &str,
) -> Result<Vec<Vec<DocId>>, String> {
    let hottest = pool
        .iter()
        .flat_map(|q| match q {
            Query::Scan(t) => std::slice::from_ref(t),
            Query::Keywords(kq) => kq.terms.as_slice(),
        })
        .copied()
        .max_by_key(|&t| corpus.doc_freq(t));
    let Some(term) = hottest else {
        return Err(format!("{ctx}: mutation family has an empty query pool"));
    };
    let postings = index.postings(term);
    if postings.is_empty() {
        return Err(format!("{ctx}: hot term {term} has no postings"));
    }
    Ok((0..events)
        .map(|e| {
            let mut docs: Vec<DocId> = (0..docs_per_event)
                .filter_map(|x| postings.get((e * docs_per_event + x) % postings.len()))
                .map(|p| p.doc)
                .collect();
            docs.sort_unstable();
            docs.dedup();
            docs
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use divtopk_text::synth::generate_labeled;

    fn small_pack() -> QueryPack {
        let mut pack = QueryPack::default_pack();
        for f in &mut pack.families {
            f.queries = 8;
            f.distinct = 4;
        }
        pack
    }

    #[test]
    fn default_pack_families_are_well_formed() {
        let pack = QueryPack::default_pack();
        assert_eq!(pack.families.len(), 9);
        let mut names: Vec<&str> = pack.families.iter().map(|f| f.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), pack.families.len(), "family names are unique");
        for f in &pack.families {
            let name = &f.name;
            assert!(f.queries >= 1 && f.distinct >= 1 && f.k >= 1, "{name}");
            assert!((0.0..=1.0).contains(&f.ta_fraction), "{name}");
            assert!((0.0..=1.0).contains(&f.tau), "{name}");
            match f.mutations {
                MutationSpec::None => {}
                MutationSpec::DeleteStorm {
                    events,
                    docs_per_event,
                }
                | MutationSpec::NeardupFlood {
                    events,
                    docs_per_event,
                } => assert!(events >= 1 && docs_per_event >= 1, "{name}"),
            }
            assert_eq!(f.mode.validate(), Ok(()), "{name}");
        }
    }

    #[test]
    fn compile_is_deterministic_and_covers_all_event_kinds() {
        let pack = small_pack();
        let (corpus, _labels) = generate_labeled(&pack.corpus);
        let index = InvertedIndex::build(&corpus);
        let a = pack.compile(&corpus, &index).unwrap();
        let b = pack.compile(&corpus, &index).unwrap();
        assert_eq!(a, b, "compiled scripts must be byte-identical");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // The default pack exercises every event kind.
        let all: Vec<&PackEvent> = a.iter().flat_map(|f| &f.events).collect();
        assert!(
            all.iter()
                .any(|e| matches!(e, PackEvent::Query(Query::Scan(_))))
        );
        assert!(
            all.iter()
                .any(|e| matches!(e, PackEvent::Query(Query::Keywords(_))))
        );
        assert!(
            all.iter()
                .any(|e| matches!(e, PackEvent::Mutate(Mutation::Delete(_))))
        );
        assert!(
            all.iter()
                .any(|e| matches!(e, PackEvent::Mutate(Mutation::CloneDocs(_))))
        );
        // Each family yields exactly `queries` query events.
        for (family, compiled) in pack.families.iter().zip(&a) {
            assert_eq!(compiled.queries().count(), family.queries);
        }
    }
}
