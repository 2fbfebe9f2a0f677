//! Versioned query-pack workloads: named query families with realistic
//! traffic shapes, deterministic from a seed recorded in the pack.
//!
//! A pack (`divtopk-pack/1`, JSON via [`crate::json`]) describes a
//! synthetic corpus plus a list of **families**: Zipf head/torso/tail
//! term draws over the kfreq bands of DESIGN.md §3, cold-cache sweeps
//! (`"cache": "bypass"`), hot-doc deletion storms and adversarial
//! near-duplicate floods replayed through the engine's mutation API.
//! [`QueryPack::compile`] expands every family into a byte-reproducible
//! script of queries and mutations — the same pack and seed always
//! produce identical query sequences and mutation scripts
//! (`tests/pack_replay.rs` pins this as a property test).
//!
//! The committed pack lives at `benchmarks/query-pack.v1.json`
//! ([`QueryPack::default_pack`] is that file, compiled in);
//! [`crate::quality`] replays packs
//! through the engine twice (diversity on/off) and scores the results.

use crate::json::{self, Value};
use divtopk_core::ExactAlgorithm;
use divtopk_core::rng::Pcg;
use divtopk_engine::engine::Query;
use divtopk_text::corpus::Corpus;
use divtopk_text::document::DocId;
use divtopk_text::index::InvertedIndex;
use divtopk_text::mode::DiversifyMode;
use divtopk_text::query::query_for_band;
use divtopk_text::synth::{SynthConfig, generate_labeled};

/// The one pack schema this crate reads and writes.
pub const PACK_VERSION: &str = "divtopk-pack/1";

/// Typed pack-loading failure: every malformed input is one of these,
/// never a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum PackError {
    /// Not even JSON (byte offset + message from the strict parser).
    Parse(String),
    /// The `version` field is present but not [`PACK_VERSION`].
    WrongVersion {
        /// What the file declared.
        found: String,
    },
    /// A required field is absent.
    MissingField {
        /// Where (e.g. `family "torso_mix"`).
        context: String,
        /// Which field.
        field: &'static str,
    },
    /// A field is present but unusable (wrong type, out of range, or an
    /// unknown key that would otherwise be silently ignored).
    BadValue {
        /// Where.
        context: String,
        /// What is wrong.
        message: String,
    },
}

impl std::fmt::Display for PackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackError::Parse(m) => write!(f, "pack is not valid JSON: {m}"),
            PackError::WrongVersion { found } => {
                write!(
                    f,
                    "pack version {found:?} (this build reads {PACK_VERSION:?})"
                )
            }
            PackError::MissingField { context, field } => {
                write!(f, "{context}: missing required field {field:?}")
            }
            PackError::BadValue { context, message } => write!(f, "{context}: {message}"),
        }
    }
}

impl std::error::Error for PackError {}

/// A full query-pack: corpus recipe + families, all derived from `seed`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPack {
    /// Pack name (shows up in evidence tables).
    pub name: String,
    /// Master seed; every family derives its stream from this and its
    /// own name, so families are independent and reorderable.
    pub seed: u64,
    /// Synthetic-corpus recipe.
    pub corpus: CorpusSpec,
    /// The query families.
    pub families: Vec<Family>,
}

/// Which synthetic corpus the pack runs against.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusSpec {
    /// `"tiny"`, `"reuters_like"`, or `"enwiki_like"`
    /// ([`SynthConfig`] presets).
    pub preset: String,
    /// Overrides the preset's document count.
    pub num_docs: Option<usize>,
    /// Overrides the preset's corpus seed.
    pub seed: Option<u64>,
}

impl CorpusSpec {
    /// Resolves the preset + overrides into a generator config.
    pub fn synth_config(&self) -> Result<SynthConfig, PackError> {
        let mut config = match self.preset.as_str() {
            "tiny" => SynthConfig::tiny(),
            "reuters_like" => SynthConfig::reuters_like(),
            "enwiki_like" => SynthConfig::enwiki_like(),
            other => {
                return Err(PackError::BadValue {
                    context: "corpus".to_owned(),
                    message: format!("unknown preset {other:?}"),
                });
            }
        };
        if let Some(n) = self.num_docs {
            config.num_docs = n;
        }
        if let Some(s) = self.seed {
            config.seed = s;
        }
        Ok(config)
    }

    /// Generates the corpus and its per-document topic labels
    /// (the quality harness's ground-truth "sources").
    pub fn build(&self) -> Result<(Corpus, Vec<u32>), PackError> {
        Ok(generate_labeled(&self.synth_config()?))
    }
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

    /// JSON spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Band::Head => "head",
            Band::Torso => "torso",
            Band::Tail => "tail",
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

impl CacheMode {
    /// JSON spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheMode::Normal => "normal",
            CacheMode::Bypass => "bypass",
        }
    }
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

impl Gates {
    /// `(json key, threshold)` pairs of the gates that are set.
    pub fn entries(&self) -> Vec<(&'static str, f64)> {
        [
            ("min_unique_sources_gain", self.min_unique_sources_gain),
            ("max_max_share_delta", self.max_max_share_delta),
            ("min_dissimilarity_gain", self.min_dissimilarity_gain),
            ("min_ndcg_delta", self.min_ndcg_delta),
            ("min_mrr_delta", self.min_mrr_delta),
        ]
        .into_iter()
        .filter_map(|(k, v)| v.map(|v| (k, v)))
        .collect()
    }
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
    /// always [`DiversifyMode::None`]). Packs name one of the canonical
    /// configurations (see `MODE_KEYS`); omitted means the exact
    /// default.
    pub mode: DiversifyMode,
    /// Pass criteria.
    pub gates: Gates,
}

/// The canonical pack-file spellings of [`DiversifyMode`]: fixed named
/// configurations, so pack JSON stays a flat enum rather than a parameter
/// bag. `mmr` pins λ = 0.7 (the conventional relevance-leaning setting).
#[allow(clippy::type_complexity)] // (key, constructor) table, not a reusable type
const MODE_KEYS: [(&str, fn() -> DiversifyMode); 8] = [
    ("exact-cut", DiversifyMode::exact),
    ("exact-dp", || DiversifyMode::Exact(ExactAlgorithm::Dp)),
    ("exact-astar", || {
        DiversifyMode::Exact(ExactAlgorithm::AStar)
    }),
    ("none", || DiversifyMode::None),
    ("mmr", || DiversifyMode::mmr(0.7)),
    ("window", DiversifyMode::window),
    ("disc", || DiversifyMode::Disc),
    ("knn", DiversifyMode::knn),
];

/// Resolves a pack-file mode key to its mode.
fn mode_from_key(key: &str) -> Option<DiversifyMode> {
    MODE_KEYS
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, make)| make())
}

/// The inverse of [`mode_from_key`] for the canonical configurations.
/// Non-canonical modes (custom λ, tuned windows) fall back to the mode's
/// bare [`DiversifyMode::name`], which `from_json` rejects — so an
/// unrepresentable pack fails loudly at round-trip instead of silently
/// changing meaning.
fn mode_key(mode: &DiversifyMode) -> &'static str {
    MODE_KEYS
        .iter()
        .find(|(_, make)| make() == *mode)
        .map(|(k, _)| *k)
        .unwrap_or_else(|| mode.name())
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
    // ------------------------------------------------------ compilation

    /// Expands every family into its deterministic replay script against
    /// `corpus` (which must come from [`CorpusSpec::build`] of this pack)
    /// and its inverted `index`. Same pack + same corpus ⇒ byte-identical
    /// output, always.
    pub fn compile(
        &self,
        corpus: &Corpus,
        index: &InvertedIndex,
    ) -> Result<Vec<CompiledFamily>, PackError> {
        self.families
            .iter()
            .map(|f| f.compile(self.seed, corpus, index))
            .collect()
    }

    /// The canonical pack, committed at `benchmarks/query-pack.v1.json`
    /// and compiled in from there — the file is the source. Nine
    /// families over the tiny synthetic corpus: a bursty head-term
    /// family, the realistic torso mix the serving suites replay, a
    /// cold-cache tail sweep on a diurnal schedule, a hot-doc deletion
    /// storm, an adversarial near-duplicate flood, and the torso mix
    /// once per cheap mode. Gate thresholds were calibrated from the
    /// measured deltas of a `quality_gate` run on this exact pack (see
    /// DESIGN.md §12): each floor sits at roughly half the measured gain
    /// and each relevance guard at roughly twice the measured sacrifice.
    /// The quality harness is deterministic, so any drift is a code
    /// change, not noise.
    ///
    /// # Panics
    /// Panics if the committed file is not a valid pack — a build-time
    /// fact `default_pack_round_trips_through_json` pins.
    pub fn default_pack() -> QueryPack {
        QueryPack::from_json(include_str!("../../../benchmarks/query-pack.v1.json"))
            .expect("benchmarks/query-pack.v1.json is a valid pack")
    }

    // ------------------------------------------------------ JSON I/O

    /// Parses and validates a pack document. Wrong `version`, missing
    /// fields, unknown keys, and out-of-range values are all typed
    /// [`PackError`]s.
    pub fn from_json(s: &str) -> Result<QueryPack, PackError> {
        let doc = json::parse(s).map_err(PackError::Parse)?;
        let ctx = "pack";
        check_keys(
            &doc,
            ctx,
            &["version", "name", "seed", "corpus", "families"],
        )?;
        let version = req_str(&doc, ctx, "version")?;
        if version != PACK_VERSION {
            return Err(PackError::WrongVersion {
                found: version.to_owned(),
            });
        }
        let name = req_str(&doc, ctx, "name")?.to_owned();
        let seed = req_u64(&doc, ctx, "seed")?;
        let corpus_v = req(&doc, ctx, "corpus")?;
        check_keys(corpus_v, "corpus", &["preset", "num_docs", "seed"])?;
        let corpus = CorpusSpec {
            preset: req_str(corpus_v, "corpus", "preset")?.to_owned(),
            num_docs: opt_u64(corpus_v, "corpus", "num_docs")?.map(|n| n as usize),
            seed: opt_u64(corpus_v, "corpus", "seed")?,
        };
        corpus.synth_config()?; // validate the preset eagerly
        let families_v = req(&doc, ctx, "families")?
            .as_array()
            .ok_or_else(|| bad(ctx, "field \"families\" must be an array"))?;
        if families_v.is_empty() {
            return Err(bad(ctx, "\"families\" must not be empty"));
        }
        let mut families = Vec::with_capacity(families_v.len());
        for (i, fam) in families_v.iter().enumerate() {
            families.push(parse_family(fam, i)?);
        }
        let mut names: Vec<&str> = families.iter().map(|f| f.name.as_str()).collect();
        names.sort_unstable();
        if names.windows(2).any(|w| w[0] == w[1]) {
            return Err(bad(ctx, "family names must be unique"));
        }
        Ok(QueryPack {
            name,
            seed,
            corpus,
            families,
        })
    }

    /// The pack as a JSON DOM (inverse of [`QueryPack::from_json`]).
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("version".into(), Value::String(PACK_VERSION.into())),
            ("name".into(), Value::String(self.name.clone())),
            ("seed".into(), Value::Number(self.seed as f64)),
            (
                "corpus".into(),
                Value::Object(
                    [
                        Some(("preset".into(), Value::String(self.corpus.preset.clone()))),
                        self.corpus
                            .num_docs
                            .map(|n| ("num_docs".into(), Value::Number(n as f64))),
                        self.corpus
                            .seed
                            .map(|s| ("seed".into(), Value::Number(s as f64))),
                    ]
                    .into_iter()
                    .flatten()
                    .collect(),
                ),
            ),
            (
                "families".into(),
                Value::Array(self.families.iter().map(family_to_value).collect()),
            ),
        ])
    }

    /// Pretty-printed JSON (the committed on-disk form), newline-terminated.
    pub fn to_json_pretty(&self) -> String {
        let mut s = json::emit_pretty(&self.to_value());
        s.push('\n');
        s
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
    ) -> Result<CompiledFamily, PackError> {
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
                return Err(PackError::BadValue {
                    context: ctx,
                    message: format!(
                        "band {:?} has no usable terms in this corpus",
                        self.band.as_str()
                    ),
                });
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
) -> Result<Vec<Vec<DocId>>, PackError> {
    let hottest = pool
        .iter()
        .flat_map(|q| match q {
            Query::Scan(t) => std::slice::from_ref(t),
            Query::Keywords(kq) => kq.terms.as_slice(),
        })
        .copied()
        .max_by_key(|&t| corpus.doc_freq(t));
    let Some(term) = hottest else {
        return Err(PackError::BadValue {
            context: ctx.to_owned(),
            message: "mutation family has an empty query pool".to_owned(),
        });
    };
    let postings = index.postings(term);
    if postings.is_empty() {
        return Err(PackError::BadValue {
            context: ctx.to_owned(),
            message: format!("hot term {term} has no postings"),
        });
    }
    Ok((0..events)
        .map(|e| {
            let mut docs: Vec<DocId> = (0..docs_per_event)
                .map(|x| postings[(e * docs_per_event + x) % postings.len()].doc)
                .collect();
            docs.sort_unstable();
            docs.dedup();
            docs
        })
        .collect())
}

// ---------------------------------------------------------------- JSON helpers

fn bad(context: &str, message: impl Into<String>) -> PackError {
    PackError::BadValue {
        context: context.to_owned(),
        message: message.into(),
    }
}

fn req<'a>(obj: &'a Value, context: &str, field: &'static str) -> Result<&'a Value, PackError> {
    obj.get(field).ok_or_else(|| PackError::MissingField {
        context: context.to_owned(),
        field,
    })
}

fn req_str<'a>(obj: &'a Value, context: &str, field: &'static str) -> Result<&'a str, PackError> {
    req(obj, context, field)?
        .as_str()
        .ok_or_else(|| bad(context, format!("field {field:?} must be a string")))
}

fn req_f64(obj: &Value, context: &str, field: &'static str) -> Result<f64, PackError> {
    let n = req(obj, context, field)?
        .as_f64()
        .ok_or_else(|| bad(context, format!("field {field:?} must be a number")))?;
    if !n.is_finite() {
        return Err(bad(context, format!("field {field:?} must be finite")));
    }
    Ok(n)
}

fn req_u64(obj: &Value, context: &str, field: &'static str) -> Result<u64, PackError> {
    let n = req_f64(obj, context, field)?;
    // LINT-ALLOW(float-eq): exact IEEE-754 integrality test on fract()
    // (see json::format_number) — rejecting any fractional part is the
    // point, so an epsilon would be wrong.
    if n < 0.0 || n.fract() != 0.0 || n >= 9_007_199_254_740_992.0 {
        return Err(bad(
            context,
            format!("field {field:?} must be a non-negative integer below 2^53"),
        ));
    }
    Ok(n as u64)
}

fn opt_u64(obj: &Value, context: &str, field: &'static str) -> Result<Option<u64>, PackError> {
    match obj.get(field) {
        None => Ok(None),
        Some(_) => req_u64(obj, context, field).map(Some),
    }
}

fn opt_f64(obj: &Value, context: &str, field: &'static str) -> Result<Option<f64>, PackError> {
    match obj.get(field) {
        None => Ok(None),
        Some(_) => req_f64(obj, context, field).map(Some),
    }
}

/// Rejects unknown keys — a misspelled gate or field must fail loudly,
/// not silently not-enforce.
fn check_keys(obj: &Value, context: &str, allowed: &[&str]) -> Result<(), PackError> {
    let fields = obj
        .as_object()
        .ok_or_else(|| bad(context, "must be an object"))?;
    for (key, _) in fields {
        if !allowed.contains(&key.as_str()) {
            return Err(bad(
                context,
                format!("unknown field {key:?} (allowed: {allowed:?})"),
            ));
        }
    }
    Ok(())
}

fn parse_family(v: &Value, index: usize) -> Result<Family, PackError> {
    let pre_ctx = format!("family #{index}");
    let name = req_str(v, &pre_ctx, "name")?.to_owned();
    let ctx = format!("family {name:?}");
    check_keys(
        v,
        &ctx,
        &[
            "name",
            "band",
            "queries",
            "distinct",
            "zipf_exponent",
            "ta_fraction",
            "k",
            "tau",
            "cache",
            "mode",
            "mutations",
            "gates",
        ],
    )?;
    let band = match req_str(v, &ctx, "band")? {
        "head" => Band::Head,
        "torso" => Band::Torso,
        "tail" => Band::Tail,
        other => return Err(bad(&ctx, format!("unknown band {other:?}"))),
    };
    let queries = req_u64(v, &ctx, "queries")? as usize;
    let distinct = req_u64(v, &ctx, "distinct")? as usize;
    if queries == 0 || distinct == 0 {
        return Err(bad(&ctx, "\"queries\" and \"distinct\" must be positive"));
    }
    let zipf_exponent = req_f64(v, &ctx, "zipf_exponent")?;
    let ta_fraction = req_f64(v, &ctx, "ta_fraction")?;
    if !(0.0..=1.0).contains(&ta_fraction) {
        return Err(bad(&ctx, "\"ta_fraction\" must lie in [0, 1]"));
    }
    let k = req_u64(v, &ctx, "k")? as usize;
    if k == 0 {
        return Err(bad(&ctx, "\"k\" must be positive"));
    }
    let tau = req_f64(v, &ctx, "tau")?;
    if !(0.0..=1.0).contains(&tau) {
        return Err(bad(&ctx, "\"tau\" must lie in [0, 1]"));
    }
    let cache = match req_str(v, &ctx, "cache")? {
        "normal" => CacheMode::Normal,
        "bypass" => CacheMode::Bypass,
        other => return Err(bad(&ctx, format!("unknown cache mode {other:?}"))),
    };
    let mode = match v.get("mode") {
        None => DiversifyMode::exact(),
        Some(value) => {
            let key = value
                .as_str()
                .ok_or_else(|| bad(&ctx, "field \"mode\" must be a string"))?;
            mode_from_key(key).ok_or_else(|| {
                let known: Vec<&str> = MODE_KEYS.iter().map(|(k, _)| *k).collect();
                bad(&ctx, format!("unknown mode {key:?} (known: {known:?})"))
            })?
        }
    };
    let mutations_v = req(v, &ctx, "mutations")?;
    let mut_ctx = format!("{ctx} mutations");
    let mutations = match req_str(mutations_v, &mut_ctx, "kind")? {
        "none" => {
            check_keys(mutations_v, &mut_ctx, &["kind"])?;
            MutationSpec::None
        }
        kind @ ("delete_storm" | "neardup_flood") => {
            check_keys(mutations_v, &mut_ctx, &["kind", "events", "docs_per_event"])?;
            let events = req_u64(mutations_v, &mut_ctx, "events")? as usize;
            let docs_per_event = req_u64(mutations_v, &mut_ctx, "docs_per_event")? as usize;
            if events == 0 || docs_per_event == 0 {
                return Err(bad(
                    &mut_ctx,
                    "\"events\" and \"docs_per_event\" must be positive",
                ));
            }
            if kind == "delete_storm" {
                MutationSpec::DeleteStorm {
                    events,
                    docs_per_event,
                }
            } else {
                MutationSpec::NeardupFlood {
                    events,
                    docs_per_event,
                }
            }
        }
        other => return Err(bad(&mut_ctx, format!("unknown mutation kind {other:?}"))),
    };
    let gates_v = req(v, &ctx, "gates")?;
    let gates_ctx = format!("{ctx} gates");
    check_keys(
        gates_v,
        &gates_ctx,
        &[
            "min_unique_sources_gain",
            "max_max_share_delta",
            "min_dissimilarity_gain",
            "min_ndcg_delta",
            "min_mrr_delta",
        ],
    )?;
    let gates = Gates {
        min_unique_sources_gain: opt_f64(gates_v, &gates_ctx, "min_unique_sources_gain")?,
        max_max_share_delta: opt_f64(gates_v, &gates_ctx, "max_max_share_delta")?,
        min_dissimilarity_gain: opt_f64(gates_v, &gates_ctx, "min_dissimilarity_gain")?,
        min_ndcg_delta: opt_f64(gates_v, &gates_ctx, "min_ndcg_delta")?,
        min_mrr_delta: opt_f64(gates_v, &gates_ctx, "min_mrr_delta")?,
    };
    Ok(Family {
        name,
        band,
        queries,
        distinct,
        zipf_exponent,
        ta_fraction,
        k,
        tau,
        cache,
        mode,
        mutations,
        gates,
    })
}

fn family_to_value(f: &Family) -> Value {
    let mutations = match f.mutations {
        MutationSpec::None => Value::Object(vec![("kind".into(), Value::String("none".into()))]),
        MutationSpec::DeleteStorm {
            events,
            docs_per_event,
        } => Value::Object(vec![
            ("kind".into(), Value::String("delete_storm".into())),
            ("events".into(), Value::Number(events as f64)),
            (
                "docs_per_event".into(),
                Value::Number(docs_per_event as f64),
            ),
        ]),
        MutationSpec::NeardupFlood {
            events,
            docs_per_event,
        } => Value::Object(vec![
            ("kind".into(), Value::String("neardup_flood".into())),
            ("events".into(), Value::Number(events as f64)),
            (
                "docs_per_event".into(),
                Value::Number(docs_per_event as f64),
            ),
        ]),
    };
    let gates = Value::Object(
        f.gates
            .entries()
            .into_iter()
            .map(|(k, v)| (k.to_owned(), Value::Number(v)))
            .collect(),
    );
    Value::Object(vec![
        ("name".into(), Value::String(f.name.clone())),
        ("band".into(), Value::String(f.band.as_str().into())),
        ("queries".into(), Value::Number(f.queries as f64)),
        ("distinct".into(), Value::Number(f.distinct as f64)),
        ("zipf_exponent".into(), Value::Number(f.zipf_exponent)),
        ("ta_fraction".into(), Value::Number(f.ta_fraction)),
        ("k".into(), Value::Number(f.k as f64)),
        ("tau".into(), Value::Number(f.tau)),
        ("cache".into(), Value::String(f.cache.as_str().into())),
        ("mode".into(), Value::String(mode_key(&f.mode).into())),
        ("mutations".into(), mutations),
        ("gates".into(), gates),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_pack() -> QueryPack {
        let mut pack = QueryPack::default_pack();
        for f in &mut pack.families {
            f.queries = 8;
            f.distinct = 4;
        }
        pack
    }

    #[test]
    fn default_pack_round_trips_through_json() {
        // The committed file is the default pack: it parses under the
        // strict schema, and emitting the parsed pack gives the file back
        // byte for byte.
        let committed = include_str!("../../../benchmarks/query-pack.v1.json");
        let pack = QueryPack::default_pack();
        assert_eq!(pack.families.len(), 9);
        assert_eq!(pack.to_json_pretty(), committed);
        assert_eq!(QueryPack::from_json(committed).unwrap(), pack);
        // Strict means a stray key in that same document is refused, not
        // ignored.
        let stray = committed.replacen("\"name\":", "\"nmae\": 0, \"name\":", 1);
        assert!(matches!(
            QueryPack::from_json(&stray),
            Err(PackError::BadValue { .. })
        ));
    }

    #[test]
    fn compile_is_deterministic_and_covers_all_event_kinds() {
        let pack = small_pack();
        let (corpus, _labels) = pack.corpus.build().unwrap();
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

    #[test]
    fn wrong_version_and_missing_fields_are_typed_errors() {
        let pack = QueryPack::default_pack();
        // Wrong version.
        let wrong = pack
            .to_json_pretty()
            .replace(PACK_VERSION, "divtopk-pack/9");
        assert_eq!(
            QueryPack::from_json(&wrong),
            Err(PackError::WrongVersion {
                found: "divtopk-pack/9".into()
            })
        );
        // Missing version.
        assert!(matches!(
            QueryPack::from_json(r#"{"name": "x"}"#),
            Err(PackError::MissingField {
                field: "version",
                ..
            })
        ));
        // Missing family field: drop "band" from the first family.
        let mut v = pack.to_value();
        if let Value::Object(fields) = &mut v {
            let families = fields
                .iter_mut()
                .find(|(k, _)| k == "families")
                .map(|(_, v)| v)
                .unwrap();
            if let Value::Array(items) = families {
                if let Value::Object(fam) = &mut items[0] {
                    fam.retain(|(k, _)| k != "band");
                }
            }
        }
        let err = QueryPack::from_json(&json::emit(&v)).unwrap_err();
        assert!(
            matches!(err, PackError::MissingField { field: "band", .. }),
            "{err:?}"
        );
        // Not JSON at all.
        assert!(matches!(
            QueryPack::from_json("{nope"),
            Err(PackError::Parse(_))
        ));
    }

    #[test]
    fn unknown_keys_and_bad_values_are_rejected() {
        let pack = QueryPack::default_pack();
        // A typo'd gate key must not be silently ignored.
        let mut v = pack.to_value();
        if let Value::Object(fields) = &mut v {
            let families = fields
                .iter_mut()
                .find(|(k, _)| k == "families")
                .map(|(_, v)| v)
                .unwrap();
            if let Value::Array(items) = families {
                if let Value::Object(fam) = &mut items[0] {
                    let gates = fam
                        .iter_mut()
                        .find(|(k, _)| k == "gates")
                        .map(|(_, v)| v)
                        .unwrap();
                    if let Value::Object(g) = gates {
                        g.push(("min_ndgc_delta".into(), Value::Number(0.0)));
                    }
                }
            }
        }
        let err = QueryPack::from_json(&json::emit(&v)).unwrap_err();
        assert!(
            matches!(&err, PackError::BadValue { message, .. } if message.contains("min_ndgc_delta")),
            "{err:?}"
        );
        // Out-of-range τ.
        let bad_tau = pack
            .to_json_pretty()
            .replacen("\"tau\": 0.", "\"tau\": 7.", 1);
        assert!(matches!(
            QueryPack::from_json(&bad_tau),
            Err(PackError::BadValue { .. })
        ));
        // Unknown corpus preset.
        let bad_preset = pack.to_json_pretty().replace("\"tiny\"", "\"huge\"");
        assert!(matches!(
            QueryPack::from_json(&bad_preset),
            Err(PackError::BadValue { .. })
        ));
        // An arrival schedule: a pack says what is asked, not when.
        let arrival = pack.to_json_pretty().replacen(
            "\"cache\":",
            "\"arrival\": {\"shape\": \"uniform\", \"rate\": 100}, \"cache\":",
            1,
        );
        let err = QueryPack::from_json(&arrival).unwrap_err();
        assert!(
            matches!(&err, PackError::BadValue { message, .. } if message.contains("unknown field \"arrival\"")),
            "{err:?}"
        );
    }
}
