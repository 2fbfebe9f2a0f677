//! Property test on query-pack replay: compiling the same pack twice
//! must yield byte-identical query sequences and mutation scripts.

use divtopk_bench::workload::{Band, CacheMode, Family, Gates, MutationSpec, QueryPack};
use divtopk_text::index::InvertedIndex;
use divtopk_text::prelude::*;
use divtopk_text::synth::{SynthConfig, generate_labeled};
use proptest::prelude::*;

/// The corpus recipe of every case.
fn corpus_config() -> SynthConfig {
    SynthConfig::tiny().with_num_docs(500).with_seed(11)
}

/// One corpus for every case: determinism is a property of `compile`,
/// not of corpus generation (which `generate_labeled` pins separately).
fn fixture() -> (Corpus, InvertedIndex) {
    let (corpus, _labels) = generate_labeled(&corpus_config());
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
                name: format!("fam_{tag}_{band:?}"),
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
        corpus: corpus_config(),
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
}
