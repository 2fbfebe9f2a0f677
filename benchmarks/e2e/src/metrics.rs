//! The metric tables: every name the benchmark reports, with its unit,
//! its direction and what it is. `BENCHMARK.json` and the README's
//! glossary are generated from these tables (`-- manifest`, `--
//! glossary`), and a test holds the committed manifest to them.

use crate::json::Value;
use crate::workload;

/// `--seconds` the driver passes; the phases are shares of it.
pub const RUN_SECONDS: u32 = 14;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    pub what: &'static str,
}

/// Every one of these is a wait or a cost of a library caller, a network
/// client or an operator. All are measured with tracing off.
///
/// Bounds: 0.25 for every time and rate, 0.10 for memory, 0.02 for the
/// two sizes. On the reference box (a shared host) CPU-bound numbers
/// spread 3–8 % between runs on a calm day and the timer-bound ones
/// under 2 %, but the host has spells of minutes in which everything
/// runs a quarter slower and spreads three times as much (BASELINE.md
/// has one); a tighter bound would turn those into false alarms. The
/// operator's *times* — one mutation, one checkpoint, one restart —
/// spread 10–35 % whatever the estimator and are per-layer metrics.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "Engine::new + Server::start + first Pong, median of 3 (corpus generation excluded)",
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
        what: "VmRSS after set-up and warm-up",
    },
    EndToEnd {
        name: "batch_qps",
        unit: "q/s",
        better: "higher",
        bound: 0.25,
        what: "in-process Engine::search_batch over a fixed request count, median chunk rate (library user's throughput)",
    },
    EndToEnd {
        name: "closed_qps",
        unit: "q/s",
        better: "higher",
        bound: 0.25,
        what: "socket, closed loop, 2 connections (1 on live_mixed): correct answers per second",
    },
    EndToEnd {
        name: "closed_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "closed loop: round trip per request, median",
    },
    EndToEnd {
        name: "closed_p95_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "closed loop: round trip per request, p95 (>= 10 samples beyond at today's 45 q/s)",
    },
    EndToEnd {
        name: "checkpoint_bytes_per_doc",
        unit: "B/doc",
        better: "lower",
        bound: 0.02,
        what: "SaveReport.bytes_written of a delta checkpoint / documents added since the one before (what the operator's disk pays per write)",
    },
    EndToEnd {
        name: "snapshot_bytes_per_doc",
        unit: "B/doc",
        better: "lower",
        bound: 0.02,
        what: "SaveReport.total_bytes of the final checkpoint / live documents",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// How it is measured, from outside, through public functions.
    pub how: &'static str,
    /// The end-to-end metric it should move, and on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    how: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        how,
        moves,
    }
}

/// Ungated. Layer = `crate.module`. Reported by the traced run
/// (`--trace 1`); a metric whose layer a workload bypasses reads 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    // engine.server
    layer(
        "engine.server.overhead_p50_us",
        "us",
        "lower",
        "closed-loop RTT p50 minus in-process Engine::search p50 over the same requests",
        "closed_p50_ms, closed_qps: ~100 % of them on hot_serve; today dominant on all four (44 ms > any search p50), which is why batch_qps exists",
    ),
    layer(
        "engine.server.handler_p50_us",
        "us",
        "lower",
        "Server::metrics().search_latency p50 (decode -> encoded)",
        "splits the overhead into in-server and wire; same targets",
    ),
    layer(
        "engine.server.shed_share",
        "ratio",
        "lower",
        "ServerMetrics overloaded / requests over the traced run's socket phases",
        "closed_qps and the failed share, on ladder rungs",
    ),
    layer(
        "engine.server.open_p50_ms",
        "ms",
        "lower",
        "socket, open loop at the workload's fixed rate straight after the closed loop, latency from the scheduled send time, median (demoted from end-to-end: quartile spread 0.22 on cold_search, where it is 1.8 ms of thread wake-ups; 0.00-0.02 on the others, where it is the 44 ms timer)",
        "what an independent user waits at a sustainable rate; falls from 44 ms to ~0.2 ms on hot_serve when the stall goes",
    ),
    layer(
        "engine.server.open_p95_ms",
        "ms",
        "lower",
        "same, p95 (demoted from end-to-end: quartile spread 0.51 on cold_search, 0.37 on live_mixed)",
        "same; compaction and checkpoints show here on live_mixed",
    ),
    layer(
        "engine.server.knee_qps",
        "q/s",
        "higher",
        "open-loop ladder at rungs 36*4^j q/s, ascending; last rung with p99 under the workload's limit, nothing shed or failed, no growing backlog",
        "informational (a x4 ladder cannot repeat within a tenth); spans today's 45 q/s and ~8 k q/s/connection with the stall removed",
    ),
    layer(
        "engine.server.knee_p99_ms",
        "ms",
        "lower",
        "p99 at the knee rung",
        "as above",
    ),
    // engine.proto
    layer(
        "engine.proto.encode_request_ns",
        "ns",
        "lower",
        "proto::encode_request on the workload's own requests, p50",
        "closed_p50_ms on hot_serve only",
    ),
    layer(
        "engine.proto.decode_request_ns",
        "ns",
        "lower",
        "proto::decode_request on those frames, p50",
        "closed_p50_ms on hot_serve only",
    ),
    layer(
        "engine.proto.encode_response_ns",
        "ns",
        "lower",
        "proto::encode_response on the answers, p50",
        "closed_p50_ms on hot_serve only",
    ),
    layer(
        "engine.proto.decode_response_ns",
        "ns",
        "lower",
        "proto::decode_response on those frames, p50",
        "closed_p50_ms on hot_serve only",
    ),
    layer(
        "engine.proto.response_bytes",
        "B",
        "lower",
        "mean encoded Hits frame",
        "closed_p50_ms on hot_serve only",
    ),
    // engine.cache
    layer(
        "engine.cache.hit_rate",
        "ratio",
        "higher",
        "EngineStats cache_hits / (hits + misses), delta over the traced run's closed phase",
        "closed_qps, batch_qps on hot_serve (~0.95) and live_mixed (lower: generation bumps); 0 by construction elsewhere",
    ),
    layer(
        "engine.cache.evictions",
        "count",
        "lower",
        "EngineStats cache_evictions delta over that phase",
        "same",
    ),
    layer(
        "engine.cache.hit_ns",
        "ns",
        "lower",
        "Engine::search on a resident key, p50",
        "batch_qps on hot_serve",
    ),
    // engine.engine
    layer(
        "engine.engine.search_p50_us",
        "us",
        "lower",
        "in-process Engine::search per stream request, 1 thread, p50",
        "closed_p50_ms / closed_p95_ms on cold_search, neardup_modes once server overhead < search",
    ),
    layer(
        "engine.engine.search_p99_us",
        "us",
        "lower",
        "same, p99",
        "same",
    ),
    layer(
        "engine.engine.overhead_ns",
        "ns",
        "lower",
        "Engine::search_uncached minus the direct SegmentedIndex::search_* call (same routing) on an identical index, median difference",
        "batch_qps on hot_serve misses; ~0 share elsewhere",
    ),
    layer(
        "engine.engine.batch_scaling",
        "ratio",
        "higher",
        "search_batch q/s over 1-thread in-process q/s on the same requests",
        "batch_qps on all workloads",
    ),
    layer(
        "engine.engine.build_ms",
        "ms",
        "lower",
        "Engine::new",
        "setup_s, most on cold_search (50 k docs)",
    ),
    layer(
        "engine.engine.mutation_overhead_us",
        "us",
        "lower",
        "Engine::add_docs minus SegmentedIndex::add_docs of the same batch (COW clone + swap), p50",
        "engine.engine.mutation_p50_ms",
    ),
    layer(
        "engine.engine.mutation_p50_ms",
        "ms",
        "lower",
        "one Engine::add_docs(32) / delete_docs(16) call = time until the write is visible, median over the window (demoted from end-to-end: quartile spread 0.09-0.35)",
        "the operator's wait per write; a read-path gain bought with write cost shows here, on live_mixed first",
    ),
    layer(
        "engine.engine.mutation_p95_ms",
        "ms",
        "lower",
        "same, p95 (demoted from end-to-end: quartile spread 0.12-0.32)",
        "same",
    ),
    layer(
        "engine.engine.restart_ms",
        "ms",
        "lower",
        "Engine::load_snapshot of the latest checkpoint + first correct answer, best of the window's rounds (demoted from end-to-end: quartile spread 0.09-0.21)",
        "the operator's wait per restart",
    ),
    // text.index / text.synth
    layer(
        "text.index.build_us_per_doc",
        "us",
        "lower",
        "InvertedIndex::build / documents",
        "setup_s on cold_search",
    ),
    layer(
        "text.synth.generate_ms",
        "ms",
        "lower",
        "synth::generate of the donor corpus",
        "none (excluded from setup_s); harness cost",
    ),
    // text.segments
    layer(
        "text.segments.search_scan_p50_us",
        "us",
        "lower",
        "direct SegmentedIndex::search_scan on the stream's scans, p50",
        "batch_qps, closed_p95_ms on cold_search",
    ),
    layer(
        "text.segments.search_ta_p50_us",
        "us",
        "lower",
        "direct SegmentedIndex::search_ta on the stream's keyword queries, p50",
        "same",
    ),
    layer(
        "text.segments.search_ta_p99_us",
        "us",
        "lower",
        "same, p99",
        "same",
    ),
    layer(
        "text.segments.add_us_per_doc",
        "us",
        "lower",
        "the window's add batches replayed on a private SegmentedIndex",
        "engine.engine.mutation_p50_ms",
    ),
    layer(
        "text.segments.delete_us_per_doc",
        "us",
        "lower",
        "the window's delete batches, same",
        "engine.engine.mutation_p50_ms",
    ),
    layer(
        "text.segments.compact_ms",
        "ms",
        "lower",
        "mean SegmentedIndex::compact step, same",
        "closed_p95_ms on live_mixed",
    ),
    layer(
        "text.segments.segments_at_end",
        "count",
        "lower",
        "segments after the window",
        "batch_qps, closed_p95_ms on live_mixed",
    ),
    layer(
        "text.segments.tombstones_at_end",
        "count",
        "lower",
        "tombstones after the window",
        "same",
    ),
    // text.scan / text.ta / text.sources
    layer(
        "text.scan.pull_ns",
        "ns",
        "lower",
        "draining MergedSource::incremental_filtered(scan_sources) to the depth the real search pulled, per result",
        "batch_qps on cold_search; little on neardup_modes, none on hot_serve",
    ),
    layer(
        "text.ta.pull_us",
        "us",
        "lower",
        "draining MergedSource::bounding_filtered(ta_sources) to that depth, per result",
        "same",
    ),
    layer(
        "text.ta.sorted_accesses_per_query",
        "count",
        "lower",
        "TaSource counters after that drain (exact, repeatable)",
        "same; the count block-max skipping must lower",
    ),
    layer(
        "text.ta.random_accesses_per_query",
        "count",
        "lower",
        "same",
        "same",
    ),
    layer(
        "text.sources.time_share",
        "ratio",
        "lower",
        "drain time / direct search time, summed over the traced misses",
        "tells whether posting pulls dominate (ROADMAP item 3's prerequisite)",
    ),
    // core.merge / core.pool
    layer(
        "core.merge.item_ns",
        "ns",
        "lower",
        "MergedSource over one pre-materialised IncrementalVecSource per segment, per item; 0 on one segment",
        "batch_qps on cold_search (4 shards); bypassed at 1 shard",
    ),
    layer(
        "core.pool.pooled_over_sequential",
        "ratio",
        "lower",
        "sum of search_*_pooled over sum of search_* on the same queries, pool of Engine::pull_workers(); 0 without a pool or on one segment",
        "closed_p50_ms on cold_search; < 1 means the pool pays (ROADMAP item 2d)",
    ),
    layer(
        "core.pool.parallel_pulls_share",
        "ratio",
        "higher",
        "EngineStats parallel_pulls / queries over the traced run",
        "confirms the pool path ran",
    ),
    // text.jaccard
    layer(
        "text.jaccard.similar_above_ns",
        "ns",
        "lower",
        "similar_above on every pair of the results a miss pulled (DiversityGraph::from_items), per pair",
        "batch_qps on cold_search, neardup_modes",
    ),
    layer(
        "text.jaccard.time_share",
        "ratio",
        "lower",
        "that all-pairs pass / direct search time, over the traced misses",
        "same",
    ),
    // core.framework
    layer(
        "core.framework.results_generated_per_query",
        "count",
        "lower",
        "SearchOutput.metrics, mean over the traced misses (exact, repeatable)",
        "explains engine.engine.search_*; a claim may rest on it as a count only",
    ),
    layer(
        "core.framework.similarity_checks_per_query",
        "count",
        "lower",
        "same",
        "same",
    ),
    layer(
        "core.framework.inner_searches_per_query",
        "count",
        "lower",
        "same",
        "same",
    ),
    layer(
        "core.framework.necessary_checks_per_query",
        "count",
        "lower",
        "same",
        "same",
    ),
    layer(
        "core.framework.graph_edges_per_query",
        "count",
        "lower",
        "same",
        "same",
    ),
    layer(
        "core.framework.early_stop_share",
        "ratio",
        "higher",
        "share of the traced misses that stopped early",
        "same",
    ),
    layer(
        "core.framework.replay_p50_us",
        "us",
        "lower",
        "search_with_source over a vec source replaying exactly the results and bounds the real search pulled (graph growth + similarity + inner search, no posting pulls), p50",
        "batch_qps on neardup_modes, cold_search",
    ),
    // core.cut
    layer(
        "core.cut.search_p50_us",
        "us",
        "lower",
        "ExactAlgorithm::Cut.search on the final graph rebuilt with DiversityGraph::from_items, p50 over exact misses",
        "closed_p95_ms, batch_qps on neardup_modes' exact share; ~0 on hot_serve",
    ),
    layer("core.cut.search_p99_us", "us", "lower", "same, p99", "same"),
    layer(
        "core.cut.expansions_per_query",
        "count",
        "lower",
        "SearchMetrics.expansions of that call, mean",
        "same",
    ),
    // core.diversify
    layer(
        "core.diversify.exact_p50_us",
        "us",
        "lower",
        "search_uncached p50 with the mode forced, over the stream's first queries",
        "batch_qps, closed_p50_ms on neardup_modes",
    ),
    layer("core.diversify.none_p50_us", "us", "lower", "same", "same"),
    layer("core.diversify.mmr_p50_us", "us", "lower", "same", "same"),
    layer(
        "core.diversify.window_p50_us",
        "us",
        "lower",
        "same",
        "same",
    ),
    layer("core.diversify.disc_p50_us", "us", "lower", "same", "same"),
    layer("core.diversify.knn_p50_us", "us", "lower", "same", "same"),
    layer(
        "core.diversify.candidates_pulled_per_query",
        "count",
        "lower",
        "SearchOutput.diversifier, mean over the traced misses",
        "same",
    ),
    layer(
        "core.diversify.sim_evaluations_per_query",
        "count",
        "lower",
        "same",
        "same",
    ),
    // text.persist
    layer(
        "text.persist.save_full_ms",
        "ms",
        "lower",
        "first Engine::save_snapshot into an empty directory",
        "snapshot_bytes_per_doc",
    ),
    layer(
        "text.persist.save_delta_ms",
        "ms",
        "lower",
        "Engine::save_snapshot of a delta, median over the window's rounds (demoted from end-to-end: quartile spread 0.08-0.35)",
        "the operator's wait per checkpoint",
    ),
    layer(
        "text.persist.delta_bytes",
        "B",
        "lower",
        "SaveReport.bytes_written of the last delta",
        "checkpoint_bytes_per_doc",
    ),
    layer(
        "text.persist.total_bytes",
        "B",
        "lower",
        "SaveReport.total_bytes of the last checkpoint",
        "snapshot_bytes_per_doc",
    ),
    layer(
        "text.persist.load_ms",
        "ms",
        "lower",
        "persist::load_segmented of the last checkpoint",
        "engine.engine.restart_ms",
    ),
    layer(
        "text.persist.file_syncs_per_save",
        "count",
        "lower",
        "persist::audit::file_syncs delta per delta checkpoint",
        "text.persist.save_delta_ms",
    ),
    // the trace's layer table
    layer(
        "trace.share.engine.proto",
        "ratio",
        "lower",
        "self time of the four proto spans / request, over the traced requests",
        "where a request's in-process time goes; socket time is engine.server.overhead_p50_us",
    ),
    layer(
        "trace.share.engine.engine",
        "ratio",
        "lower",
        "self time of engine.engine.search (admission, cache, routing) / request",
        "same",
    ),
    layer(
        "trace.share.text.segments",
        "ratio",
        "lower",
        "self time of text.segments.search (replay) / request",
        "same",
    ),
    layer(
        "trace.share.text.sources",
        "ratio",
        "lower",
        "text.sources.drain (scan/TA + core.merge, replay) / request",
        "same",
    ),
    layer(
        "trace.share.core.framework",
        "ratio",
        "lower",
        "self time of core.framework.replay / request",
        "same",
    ),
    layer(
        "trace.share.core.cut",
        "ratio",
        "lower",
        "core.cut.search (replay) / request",
        "same",
    ),
    // the harness about itself
    layer(
        "loadgen.late_p99_us",
        "us",
        "lower",
        "how long after its due time the open loop sent a request, p99",
        "validity of engine.server.open_*",
    ),
    layer(
        "trace.overhead_share",
        "ratio",
        "lower",
        "the traced requests' calls timed with span recording on and off, pair by pair: median difference over median time with it off",
        "validity of the trace",
    ),
    layer(
        "trace.replay_divergence_share",
        "ratio",
        "lower",
        "share of misses whose replay ran another number of inner searches than the real run",
        "validity of the replay spans",
    ),
    layer(
        "trace.clamped_share",
        "ratio",
        "lower",
        "share of spans that did not fit: a replay scaled down to fit its real span, or a span whose children cover more than itself (self time clamped at 0)",
        "validity of the self times",
    ),
];

/// The manifest the driver reads, generated from the tables.
pub fn manifest() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmarks/e2e/Cargo.toml",
        "--",
        "run",
    ];
    Value::object([
        (
            "command",
            Value::Array(command.iter().map(|&s| s.into()).collect()),
        ),
        ("paths", Value::Array(vec!["benchmarks/e2e".into()])),
        ("run_seconds", Value::Number(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Value::Array(
                workload::NAMES
                    .iter()
                    .filter_map(|name| workload::spec(name, false))
                    .map(|spec| {
                        Value::object([("name", spec.name.into()), ("why", spec.why.into())])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::object([
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.into()),
                            ("bound", Value::Number(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::object([
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The README's glossary, generated from the tables.
pub fn glossary() -> String {
    let mut out =
        String::from("| name | unit | better | bound | what it is |\n|---|---|---|---|---|\n");
    for m in END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name, m.unit, m.better, m.bound, m.what
        ));
    }
    out.push_str("\n| name | unit | better | measured by | moves -> on |\n|---|---|---|---|---|\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name, m.unit, m.better, m.how, m.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_manifest_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(workload::NAMES)
            .collect();
        assert!(
            names.iter().all(|n| valid_name(n)),
            "a name breaks the limits"
        );
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "a name is used twice");
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in END_TO_END {
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(["lower", "higher"].contains(&m.better));
        }
        for m in PER_LAYER {
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(["lower", "higher"].contains(&m.better));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        for name in workload::NAMES {
            let why = workload::spec(name, false).unwrap().why;
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why is {} chars",
                why.len()
            );
        }
        assert!(manifest().render().len() < 64 * 1024);
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            json::parse(&committed).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with `-- manifest > BENCHMARK.json`"
        );
    }
}
