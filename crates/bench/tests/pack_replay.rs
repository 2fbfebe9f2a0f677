//! Property tests on query-pack replay (ISSUE 7 satellite 1): compiling
//! the same pack twice — or once directly and once after a JSON
//! round-trip — must yield byte-identical query sequences and mutation
//! scripts; malformed packs must come back as typed [`PackError`]s,
//! never a panic.

use divtopk_bench::workload::{
    Band, CacheMode, CorpusSpec, Family, Gates, MutationSpec, PackError, QueryPack,
};
use divtopk_text::index::InvertedIndex;
use divtopk_text::prelude::*;
use proptest::prelude::*;

/// One corpus for every case: determinism is a property of `compile`,
/// not of corpus generation (which `generate_labeled` pins separately).
fn fixture() -> (Corpus, InvertedIndex) {
    let spec = CorpusSpec {
        preset: "tiny".to_owned(),
        num_docs: Some(500),
        seed: Some(11),
    };
    let (corpus, _labels) = spec.build().expect("tiny preset builds");
    let index = InvertedIndex::build(&corpus);
    (corpus, index)
}

fn band_strategy() -> impl Strategy<Value = Band> {
    (0u8..3).prop_map(|b| match b {
        0 => Band::Head,
        1 => Band::Torso,
        _ => Band::Tail,
    })
}

fn mutation_strategy() -> impl Strategy<Value = MutationSpec> {
    (0u8..3, 1usize..4, 1usize..5).prop_map(|(which, events, docs)| match which {
        0 => MutationSpec::None,
        1 => MutationSpec::DeleteStorm {
            events,
            docs_per_event: docs,
        },
        _ => MutationSpec::NeardupFlood {
            events,
            docs_per_event: docs,
        },
    })
}

fn family_strategy(tag: usize) -> impl Strategy<Value = Family> {
    (
        band_strategy(),
        (4usize..24, 1usize..8, 1usize..8),
        (0.0f64..1.5, 0.0f64..1.0, 0.05f64..0.95),
        mutation_strategy(),
    )
        .prop_map(
            move |(band, (queries, distinct, k), (zipf, ta, tau), mutations)| Family {
                name: format!("fam_{tag}_{}", band.as_str()),
                band,
                queries,
                distinct: distinct.min(queries),
                zipf_exponent: zipf,
                ta_fraction: ta,
                k,
                tau,
                cache: if queries % 2 == 0 {
                    CacheMode::Normal
                } else {
                    CacheMode::Bypass
                },
                mutations,
                // Canonical modes only: `family_to_value` emits the
                // canonical key, so round-trips are exact.
                mode: match (queries + k) % 5 {
                    0 => DiversifyMode::exact(),
                    1 => DiversifyMode::None,
                    2 => DiversifyMode::mmr(0.7),
                    3 => DiversifyMode::window(),
                    _ => DiversifyMode::knn(),
                },
                gates: Gates::default(),
            },
        )
}

fn pack_strategy() -> impl Strategy<Value = QueryPack> {
    (0u64..1_000_000, family_strategy(0), family_strategy(1)).prop_map(|(seed, f0, f1)| QueryPack {
        name: "prop".to_owned(),
        seed,
        corpus: CorpusSpec {
            preset: "tiny".to_owned(),
            num_docs: Some(500),
            seed: Some(11),
        },
        families: vec![f0, f1],
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same pack, compiled twice: identical event scripts.
    #[test]
    fn replay_is_deterministic(pack in pack_strategy()) {
        let (corpus, index) = fixture();
        let a = pack.compile(&corpus, &index).expect("pack compiles");
        let b = pack.compile(&corpus, &index).expect("pack compiles");
        prop_assert_eq!(a.len(), b.len());
        for (fa, fb) in a.iter().zip(&b) {
            prop_assert_eq!(&fa.name, &fb.name);
            // Debug form covers every query term and mutation doc id —
            // byte equality here is byte equality of the whole script.
            prop_assert_eq!(format!("{:?}", fa.events), format!("{:?}", fb.events));
        }
    }

    /// JSON round-trip preserves the pack and therefore its compilation.
    #[test]
    fn json_round_trip_preserves_replay(pack in pack_strategy()) {
        let (corpus, index) = fixture();
        let text = pack.to_json_pretty();
        let reparsed = QueryPack::from_json(&text).expect("emitted pack re-parses");
        prop_assert_eq!(&reparsed, &pack);
        let a = pack.compile(&corpus, &index).expect("compiles");
        let b = reparsed.compile(&corpus, &index).expect("compiles");
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// Corrupting the version string is a typed error, not a panic.
    #[test]
    fn wrong_version_is_typed(pack in pack_strategy(), junk in 0u32..1000) {
        let text = pack
            .to_json_pretty()
            .replace("divtopk-pack/1", &format!("divtopk-pack/{junk}.x"));
        match QueryPack::from_json(&text) {
            Err(PackError::WrongVersion { found }) => {
                prop_assert!(found.contains(&junk.to_string()));
            }
            other => prop_assert!(false, "expected WrongVersion, got {:?}", other),
        }
    }

    /// Deleting any required top-level key is a typed error, never a panic.
    #[test]
    fn missing_fields_are_typed(pack in pack_strategy(), which in 0usize..4) {
        let field = ["version", "name", "seed", "corpus"][which];
        let doc = divtopk_bench::json::parse(&pack.to_json_pretty()).unwrap();
        let divtopk_bench::json::Value::Object(mut entries) = doc else {
            panic!("pack JSON is an object");
        };
        entries.retain(|(k, _)| k != field);
        let text = divtopk_bench::json::emit(&divtopk_bench::json::Value::Object(entries));
        match QueryPack::from_json(&text) {
            Err(PackError::MissingField { field: f, .. }) => prop_assert_eq!(f, field),
            Err(PackError::WrongVersion { .. }) => prop_assert_eq!(field, "version"),
            other => prop_assert!(false, "expected a typed error, got {:?}", other),
        }
    }
}
