//! The end-to-end run (`--trace 0`): set-up, warm-up, the `batch` and
//! `closed` phases, the operator's window, and the gated metrics.
//! Tracing is off here; the per-layer numbers — the open loop and the
//! rate ladder among them — come from the separate traced run (`layers`,
//! `trace`).

use crate::client::{self, Clients, Outcome, PhaseResult};
use crate::json::Value;
use crate::metrics::END_TO_END;
use crate::stats;
use crate::verify::{OpLog, Oracle, check_live};
use crate::workload::{
    self, Inputs, OFFSET_BATCH, OFFSET_CLOSED, OFFSET_WARMUP, Req, check_fingerprints,
};
use crate::writer::{CADENCE, Writer};
use divtopk_engine::proto::{self, Request, Response, WireHits};
use divtopk_engine::{Engine, Server, ServerConfig};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shares of `--seconds` given to the two read phases.
pub const BATCH_SHARE: f64 = 0.30;
pub const CLOSED_SHARE: f64 = 0.70;
/// Both cores are spun this long before the `batch` phase.
const CPU_WARM_UP: Duration = Duration::from_millis(1500);
/// ... and this long before each of its chunks.
const CHUNK_WARM_UP: Duration = Duration::from_millis(2);
/// Set-up is repeated and its median reported.
const SETUPS: usize = 3;
/// Probe queries compared between the saving and the loaded engine.
const PROBES: u64 = 50;
/// `search_batch` is called on chunks of at most this many requests, so
/// that requests and answers never all sit in memory at once.
const BATCH_CHUNK: usize = 4096;
/// Client connections: one per core of the reference box.
pub const CONNECTIONS: usize = 2;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub out_dir: PathBuf,
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, context: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.fail(context, why);
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, context: &str, why: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(format!("{context}: {why}"));
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct RunReport {
    pub workload: &'static str,
    pub quick: bool,
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Phase lengths, sample counts and the like, for the results file.
    pub detail: Value,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// `{"name": {"value": .., "unit": ..}, ..}` in reporting order.
    pub fn metrics_value(&self) -> Value {
        Value::object(self.metrics.iter().map(|m| {
            (
                m.name,
                Value::object([("value", Value::Number(m.value)), ("unit", m.unit.into())]),
            )
        }))
    }

    /// The one-line result the benchmark contract asks for.
    pub fn result_line(&self) -> String {
        Value::object([
            ("correct", Value::Bool(self.correct())),
            (
                "attempted",
                Value::Number(self.tally.attempted.max(1) as f64),
            ),
            ("failed", Value::Number(self.tally.failed as f64)),
            ("metrics", self.metrics_value()),
        ])
        .render()
    }
}

/// A running engine with its server.
pub struct Stack {
    pub engine: Arc<Engine>,
    pub server: Server,
}

impl Stack {
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }
}

/// `Engine::new` + `Server::start` + the first `Pong`; returns the stack
/// and the seconds it took. Generating the corpus is not part of it.
pub fn set_up(inputs: &Inputs) -> Result<(Stack, f64), String> {
    let corpus = inputs.base.clone();
    let started = Instant::now();
    let engine = Arc::new(Engine::new(corpus, inputs.spec.engine_config()));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    let mut stream = client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let ping = proto::encode_request(&Request::Ping).map_err(|e| e.to_string())?;
    let answer = client::roundtrip(&mut stream, &ping)?;
    if !matches!(proto::decode_response(&answer), Ok(Response::Pong)) {
        return Err("first answer was not Pong".to_owned());
    }
    let secs = started.elapsed().as_secs_f64();
    Ok((Stack { engine, server }, secs))
}

/// Repeats [`set_up`], keeping the last stack; returns every timing.
pub fn set_up_repeatedly(inputs: &Inputs, times: usize) -> Result<(Stack, Vec<f64>), String> {
    let mut secs = Vec::new();
    let mut stack = None;
    for _ in 0..times.max(1) {
        drop(stack.take());
        let (fresh, took) = set_up(inputs)?;
        secs.push(took);
        stack = Some(fresh);
    }
    stack
        .map(|s| (s, secs))
        .ok_or_else(|| "no set-up ran".to_owned())
}

/// Resident set size of this process in MB, from `/proc/self/status`.
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Makes the hot set resident and runs a short verified closed loop, so
/// that caches are full and lazy set-up is done before anything is timed.
fn warm_up(
    inputs: &Inputs,
    engine: &Engine,
    clients: &mut Clients,
    oracle: &mut Oracle<'_>,
    seed: u64,
    duration: Duration,
    tally: &mut Tally,
) -> Result<(), String> {
    for req in inputs.hot_set(seed) {
        let out = engine.search(&req.query, &req.options);
        tally.record(
            "warm-up",
            out.map_err(|e| e.to_string())
                .and_then(|out| oracle.check_output(&req, &out)),
        );
    }
    let payload = |i: u64| wire_frame(&inputs.request(seed, i));
    let warm = clients.closed_slice(duration, &payload)?;
    check_static_phase("warm-up", inputs, oracle, seed, &warm, tally);
    Ok(())
}

pub fn wire_frame(req: &Req) -> Vec<u8> {
    // The stream only holds requests the protocol can carry.
    proto::encode_request(&req.to_wire()).unwrap_or_default()
}

/// Spins every core for `duration`. On the reference box the second
/// virtual CPU takes about 1.2 s of load to come up to speed after the
/// idle socket phases (measured: two threads run at half rate for that
/// long, one thread does not), so a multi-threaded phase that starts
/// cold reads up to 2x slow for its first second.
pub fn warm_cpus(duration: Duration) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|scope| {
        for _ in 0..cores {
            scope.spawn(|| {
                let started = Instant::now();
                let mut x = 1u64;
                while started.elapsed() < duration {
                    for _ in 0..10_000 {
                        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005) | 1);
                    }
                }
            });
        }
    });
}

/// The `batch` phase's fixed work: a fixed number of chunks, run in
/// slices. On a pool stream a chunk is one epoch — the same
/// work every time, under every seed; otherwise [`BATCH_CHUNK`] requests.
struct BatchPlan {
    chunk: u64,
    chunks: u64,
    done: u64,
    /// Each chunk's rate in requests per second.
    rates: Vec<f64>,
}

impl BatchPlan {
    fn new(inputs: &Inputs, seconds: f64) -> BatchPlan {
        let wanted = seconds * BATCH_SHARE * inputs.spec.batch_per_second as f64;
        let chunk = match inputs.pool_len() {
            0 => BATCH_CHUNK as u64,
            pool => pool as u64,
        };
        BatchPlan {
            chunk,
            chunks: (wanted / chunk as f64).round().max(1.0) as u64,
            done: 0,
            rates: Vec::new(),
        }
    }

    /// Runs the chunks due by the end of round `round` of `rounds`:
    /// in-process `search_batch`, only those calls timed — building a
    /// chunk and checking its answers are not.
    fn slice(
        &mut self,
        (round, rounds): (usize, usize),
        inputs: &Inputs,
        engine: &Engine,
        oracle: &mut Oracle<'_>,
        seed: u64,
        tally: &mut Tally,
    ) {
        let due = self.chunks * (round as u64 + 1) / rounds as u64;
        while self.done < due {
            let first = self.done * self.chunk;
            let reqs: Vec<Req> = (first..first + self.chunk)
                .map(|i| inputs.request(seed, OFFSET_BATCH + i))
                .collect();
            let batch: Vec<_> = reqs
                .iter()
                .map(|r| (r.query.clone(), r.options.clone()))
                .collect();
            // Building and checking a chunk is single-threaded; wake the
            // other core again before the clock starts.
            warm_cpus(CHUNK_WARM_UP);
            let started = Instant::now();
            let answers = engine.search_batch(&batch);
            self.rates
                .push(reqs.len() as f64 / started.elapsed().as_secs_f64());
            for (req, answer) in reqs.iter().zip(answers) {
                tally.record(
                    "batch",
                    answer
                        .map_err(|e| e.to_string())
                        .and_then(|out| oracle.check_output(req, &out)),
                );
            }
            self.done += 1;
        }
    }
}

/// Verdict on one socket sample that is not a checked `Hits`.
fn sample_verdict(outcome: &Outcome) -> Result<&WireHits, String> {
    match outcome {
        Outcome::Hits(hits) => Ok(hits),
        Outcome::Shed => Err("shed (Overloaded)".to_owned()),
        Outcome::Failed(why) => Err(why.clone()),
    }
}

fn over_budget(inputs: &Inputs, latency_ns: u64) -> Result<(), String> {
    match inputs.spec.time_budget {
        Some(budget) if latency_ns > budget.as_nanos() as u64 => Err(format!(
            "took {} ms, over the time budget",
            latency_ns / 1_000_000
        )),
        _ => Ok(()),
    }
}

/// Checks a socket slice run against an engine at rest.
pub fn check_static_phase(
    phase: &str,
    inputs: &Inputs,
    oracle: &mut Oracle<'_>,
    seed: u64,
    result: &PhaseResult,
    tally: &mut Tally,
) {
    for sample in &result.samples {
        let req = inputs.request(seed, sample.index);
        let verdict = sample_verdict(&sample.outcome)
            .and_then(|hits| oracle.check_hits(&req, hits))
            .and_then(|()| over_budget(inputs, sample.latency_ns));
        tally.record(phase, verdict);
    }
}

/// Checks socket phases run while the writer was mutating the engine.
pub fn check_live_phases(
    inputs: &Inputs,
    log: &OpLog,
    seed: u64,
    phases: &[(&str, &PhaseResult)],
    tally: &mut Tally,
) {
    let mut answers = Vec::new();
    let mut context = Vec::new();
    for (phase, result) in phases {
        for sample in &result.samples {
            match sample_verdict(&sample.outcome) {
                Ok(hits) => {
                    answers.push((inputs.request(seed, sample.index), hits));
                    context.push(*phase);
                }
                Err(why) => tally.record(phase, Err(why)),
            }
        }
    }
    let verdicts = check_live(inputs, log, &answers);
    for (verdict, phase) in verdicts.into_iter().zip(context) {
        tally.record(phase, verdict);
    }
}

fn latency_detail(result: &PhaseResult, ms: &[f64]) -> Value {
    Value::object([
        ("samples", Value::Number(ms.len() as f64)),
        ("elapsed_s", Value::Number(result.elapsed.as_secs_f64())),
        ("p50_ms", Value::Number(stats::percentile(ms, 0.50))),
        ("p95_ms", Value::Number(stats::percentile(ms, 0.95))),
        (
            "beyond_p95",
            Value::Number(stats::samples_beyond(ms.len(), 0.95) as f64),
        ),
        ("max_ms", Value::Number(ms.last().copied().unwrap_or(0.0))),
        ("shed", Value::Number(result.shed() as f64)),
    ])
}

pub fn scratch_dir(out_dir: &Path, workload: &str, seed: u64) -> PathBuf {
    out_dir.join(format!("snapshot-{workload}-{seed}-{}", std::process::id()))
}

pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    let spec = workload::spec(&args.workload, args.quick)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let name = spec.name;
    let seed = args.seed;
    let inputs_started = Instant::now();
    let inputs = Inputs::generate(spec);
    if !args.quick {
        check_fingerprints(&inputs, seed)?;
    }
    let inputs_s = inputs_started.elapsed().as_secs_f64();
    let spec = &inputs.spec;
    let mut tally = Tally::default();
    // Wall-clock seconds since the process began measuring, by stage.
    let run_started = Instant::now();
    let mut timeline: Vec<(&str, f64)> = vec![("inputs", inputs_s)];
    let mut stage = |label| timeline.push((label, run_started.elapsed().as_secs_f64()));

    let (stack, setup_secs) = set_up_repeatedly(&inputs, SETUPS)?;
    stage("set-up");
    let served = Arc::clone(&stack.engine);
    let readers = if spec.live_writer { 1 } else { CONNECTIONS };
    let mut clients = Clients::connect(stack.addr(), readers, OFFSET_WARMUP)?;
    let mut oracle = Oracle::new(&inputs, &served);
    let warm = Duration::from_secs_f64((args.seconds * 0.1).min(1.0));
    warm_up(
        &inputs,
        &served,
        &mut clients,
        &mut oracle,
        seed,
        warm,
        &mut tally,
    )?;
    drop(clients);
    let rss = rss_mb();
    stage("warm-up");

    // `batch` runs in two stretches, one before the socket phases and
    // one after, ten seconds apart: the host's speed drifts by 10-30 %
    // over seconds, and a phase measured in one stretch reads whatever
    // those seconds were like. Each stretch starts with both cores spun
    // up (see `warm_cpus`). On `live_mixed` the served engine has moved
    // on by the second stretch, so `batch` reads a second, unserved
    // engine of the same configuration, which stays at generation 0.
    let frozen = spec
        .live_writer
        .then(|| Engine::new(inputs.base.clone(), spec.engine_config()));
    let mut frozen_oracle = frozen.as_ref().map(|engine| Oracle::new(&inputs, engine));
    let mut plan = BatchPlan::new(&inputs, args.seconds);
    let mut batch_stretch = |half: usize, served_oracle: &mut Oracle<'_>, tally: &mut Tally| {
        warm_cpus(CPU_WARM_UP);
        match (&frozen, frozen_oracle.as_mut()) {
            (Some(engine), Some(oracle)) => {
                plan.slice((half, 2), &inputs, engine, oracle, seed, tally);
            }
            _ => plan.slice((half, 2), &inputs, &served, served_oracle, seed, tally),
        }
    };
    batch_stretch(0, &mut oracle, &mut tally);
    stage("batch 1");

    // closed, with the writer beside it on `live_mixed` (a fixed number
    // of ticks, so that the engine's state afterwards is the same on
    // every run).
    let dir = scratch_dir(&args.out_dir, name, seed);
    let mut writer = Writer::start(&served, &inputs, seed, &dir);
    let mut clients = Clients::connect(stack.addr(), readers, OFFSET_CLOSED)?;
    let payload = |i: u64| wire_frame(&inputs.request(seed, i));
    let closed_for = Duration::from_secs_f64(args.seconds * CLOSED_SHARE);
    let ticks = (closed_for.as_secs_f64() / CADENCE.as_secs_f64()) as u32;
    let closed = std::thread::scope(|scope| {
        let cadence = spec
            .live_writer
            .then(|| scope.spawn(|| writer.run_on_cadence(ticks)));
        let closed = clients.closed_slice(closed_for, &payload);
        if let Some(handle) = cadence {
            handle
                .join()
                .map_err(|_| "writer thread panicked".to_owned())?;
        }
        closed
    })?;
    drop(clients);
    stage("closed");
    batch_stretch(1, &mut oracle, &mut tally);
    stage("batch 2");

    if spec.live_writer {
        check_live_phases(
            &inputs,
            &writer.log,
            seed,
            &[("closed", &closed)],
            &mut tally,
        );
    } else {
        check_static_phase("closed", &inputs, &mut oracle, seed, &closed, &mut tally);
    }
    drop(oracle);
    stage("checked");

    // The operator's window: two rounds of ticks and a delta checkpoint
    // (after the writer's own cadence ticks on `live_mixed`), then the
    // final checkpoint, a restart from it, every probe compared and the
    // loaded index checked against a rebuild. Its *times* do not repeat
    // on a shared host and are per-layer metrics of the traced run; what
    // a checkpoint writes and what a snapshot holds are gated here.
    let checkpoint_bytes_per_doc = writer.checkpoint_rounds(2);
    let probes: Vec<Req> = (0..PROBES)
        .map(|i| inputs.request(seed, OFFSET_WARMUP + i))
        .collect();
    writer.final_check(&probes);
    tally.attempted += writer.attempted() as u64;
    for why in std::mem::take(&mut writer.failures) {
        tally.fail("operator", why);
    }
    drop(stack); // shuts the server down and joins its threads
    stage("window");

    let closed_ms = stats::sorted_ms(&closed.latencies_ns());
    let snapshot_bytes = writer.last_report.as_ref().map_or(0, |r| r.total_bytes);
    let mut setup_sorted = setup_secs.clone();
    let mut batch_rates = std::mem::take(&mut plan.rates);
    let batch_chunks = batch_rates.len();
    let batch_requests = plan.done * plan.chunk;
    let measured = [
        ("setup_s", stats::median(&mut setup_sorted)),
        ("rss_mb", rss),
        ("batch_qps", stats::median(&mut batch_rates)),
        ("closed_qps", closed.answered_per_s),
        ("closed_p50_ms", stats::percentile(&closed_ms, 0.50)),
        ("closed_p95_ms", stats::percentile(&closed_ms, 0.95)),
        ("checkpoint_bytes_per_doc", checkpoint_bytes_per_doc),
        (
            "snapshot_bytes_per_doc",
            snapshot_bytes as f64 / writer.live_docs().max(1) as f64,
        ),
    ];
    // Reported in the order, and with the units, of the metric table.
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            measured
                .iter()
                .find(|(name, _)| *name == m.name)
                .map(|&(_, value)| Metric {
                    name: m.name,
                    value,
                    unit: m.unit,
                })
                .ok_or_else(|| format!("end-to-end metric {} was not measured", m.name))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let detail = Value::object([
        (
            "timeline_s",
            Value::object(
                timeline
                    .iter()
                    .map(|&(label, at)| (label, Value::Number(at))),
            ),
        ),
        (
            "setup_s_each",
            Value::Array(setup_secs.iter().map(|&s| s.into()).collect()),
        ),
        (
            "batch",
            Value::object([
                ("requests", Value::Number(batch_requests as f64)),
                ("chunks", Value::Number(batch_chunks as f64)),
            ]),
        ),
        ("closed", latency_detail(&closed, &closed_ms)),
        (
            "operator",
            Value::object([
                ("mutations", Value::Number(writer.mutation_ns.len() as f64)),
                ("snapshot_bytes", Value::Number(snapshot_bytes as f64)),
                ("live_docs", Value::Number(writer.live_docs() as f64)),
            ]),
        ),
    ]);
    Ok(RunReport {
        workload: name,
        quick: args.quick,
        metrics,
        tally,
        detail,
    })
}
