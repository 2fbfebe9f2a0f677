//! The operator: adds, deletes, compactions, checkpoints and restarts.
//!
//! One tick adds 32 documents from the add pool; every 2nd tick deletes
//! 16 random live documents, every 20th compacts, every 50th saves a
//! (delta) checkpoint. `live_mixed` runs the ticks on a fixed cadence
//! beside its socket phases; the read-only workloads run them back to
//! back in a maintenance window after theirs. Every mutation is logged
//! with the generation it published so that answers given meanwhile can
//! be checked against a replay (`verify::OpLog`).

use crate::rng::Rng;
use crate::verify::{Op, OpLog, probe_answers};
use crate::workload::{Inputs, LANE_WRITER, Req};
use divtopk_engine::Engine;
use divtopk_text::persist::SaveReport;
use divtopk_text::prelude::*;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub const ADDS_PER_TICK: usize = 32;
pub const DELETES_PER_TICK: usize = 16;
const DELETE_EVERY: u64 = 2;
const COMPACT_EVERY: u64 = 20;
const CHECKPOINT_EVERY: u64 = 50;
/// Cadence of `live_mixed`'s writer.
pub const CADENCE: Duration = Duration::from_millis(50);
/// Ticks per round of a maintenance window.
pub const WINDOW_TICKS: u64 = 40;

/// One round of the maintenance window.
pub struct WindowRound {
    pub checkpoint_ns: u64,
    pub restart_s: f64,
}

pub struct Writer<'a> {
    engine: &'a Engine,
    inputs: &'a Inputs,
    seed: u64,
    dir: PathBuf,
    tick: u64,
    next_pool: usize,
    /// Ids that may still be deleted.
    live: Vec<DocId>,
    pub log: OpLog,
    /// One `add_docs` / `delete_docs` call each: time until the write
    /// is visible.
    pub mutation_ns: Vec<u64>,
    pub add_ns: Vec<u64>,
    pub compact_ns: Vec<u64>,
    saves: usize,
    restarts: usize,
    pub full_save_ns: u64,
    pub last_report: Option<SaveReport>,
    pub failures: Vec<String>,
}

impl<'a> Writer<'a> {
    /// Takes the initial full checkpoint into `dir`, so that every later
    /// one is a delta.
    pub fn start(engine: &'a Engine, inputs: &'a Inputs, seed: u64, dir: &Path) -> Writer<'a> {
        let _ = std::fs::remove_dir_all(dir);
        let mut writer = Writer {
            engine,
            inputs,
            seed,
            dir: dir.to_path_buf(),
            tick: 0,
            next_pool: 0,
            live: (0..inputs.base.num_docs() as DocId).collect(),
            log: OpLog::default(),
            mutation_ns: Vec::new(),
            add_ns: Vec::new(),
            compact_ns: Vec::new(),
            saves: 0,
            restarts: 0,
            full_save_ns: 0,
            last_report: None,
            failures: Vec::new(),
        };
        writer.full_save_ns = writer.save();
        writer
    }

    fn save(&mut self) -> u64 {
        self.saves += 1;
        let started = Instant::now();
        match self.engine.save_snapshot(&self.dir) {
            Ok(report) => self.last_report = Some(report),
            Err(e) => self.failures.push(format!("checkpoint failed: {e}")),
        }
        started.elapsed().as_nanos() as u64
    }

    /// Operations attempted so far: mutations, compactions, checkpoints
    /// (the initial full one too) and restarts.
    pub fn attempted(&self) -> usize {
        self.mutation_ns.len() + self.compact_ns.len() + self.saves + self.restarts
    }

    pub fn tick(&mut self) {
        self.tick += 1;
        let end = self.next_pool + ADDS_PER_TICK;
        if end <= self.inputs.pool.len() {
            let docs = self.inputs.pool[self.next_pool..end].to_vec();
            let started = Instant::now();
            let range = self.engine.add_docs(docs);
            let ns = started.elapsed().as_nanos() as u64;
            self.mutation_ns.push(ns);
            self.add_ns.push(ns);
            self.live.extend(range);
            self.log
                .ops
                .push((Op::Add(self.next_pool..end), self.engine.generation()));
            self.next_pool = end;
        } else {
            self.failures.push("add pool exhausted".to_owned());
        }
        if self.tick % DELETE_EVERY == 0 {
            let mut rng = Rng::at(self.seed, LANE_WRITER, self.tick);
            let victims: Vec<DocId> = (0..DELETES_PER_TICK.min(self.live.len()))
                .map(|_| self.live.swap_remove(rng.below(self.live.len())))
                .collect();
            let started = Instant::now();
            let deleted = self.engine.delete_docs(&victims);
            let ns = started.elapsed().as_nanos() as u64;
            self.mutation_ns.push(ns);
            if deleted != victims.len() {
                self.failures
                    .push(format!("deleted {deleted} of {} live docs", victims.len()));
            }
            self.log
                .ops
                .push((Op::Delete(victims), self.engine.generation()));
        }
        if self.tick % COMPACT_EVERY == 0 {
            let started = Instant::now();
            self.engine.compact();
            self.compact_ns.push(started.elapsed().as_nanos() as u64);
            self.log.ops.push((Op::Compact, self.engine.generation()));
        }
        if self.tick % CHECKPOINT_EVERY == 0 {
            self.save();
        }
    }

    /// `ticks` ticks, one per [`CADENCE`] slot. A tick that overruns its
    /// slot delays the next; none is skipped, so the engine's state after
    /// the phase does not depend on how the phase went.
    pub fn run_on_cadence(&mut self, ticks: u32) {
        let started = Instant::now();
        for slot in 0..ticks {
            if let Some(wait) = (started + CADENCE * slot).checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            self.tick();
        }
    }

    /// `rounds` rounds of [`WINDOW_TICKS`] ticks and a delta checkpoint;
    /// returns the bytes a checkpoint physically wrote per document added
    /// since the one before (the last round's: by then the window's
    /// compactions are part of the cycle).
    pub fn checkpoint_rounds(&mut self, rounds: usize) -> f64 {
        let mut per_doc = 0.0;
        for _ in 0..rounds {
            let added_before = self.next_pool;
            for _ in 0..WINDOW_TICKS {
                self.tick();
            }
            self.save();
            let added = (self.next_pool - added_before).max(1);
            per_doc = self
                .last_report
                .as_ref()
                .map_or(0.0, |r| r.bytes_written as f64)
                / added as f64;
        }
        per_doc
    }

    /// One round of the maintenance window: [`WINDOW_TICKS`] ticks, a
    /// delta checkpoint, and a restart from it — load the snapshot and
    /// answer a first query, which must be correct. With `thorough`,
    /// every probe is then compared between the saving and the loaded
    /// engine and the loaded index is checked against a rebuild, off the
    /// clock.
    pub fn window_round(&mut self, probes: &[Req], thorough: bool) -> WindowRound {
        for _ in 0..WINDOW_TICKS {
            self.tick();
        }
        let checkpoint_ns = self.save();
        let (restart_s, verdict) = self.restart(probes, thorough);
        if let Err(why) = verdict {
            self.failures.push(format!("restart: {why}"));
        }
        WindowRound {
            checkpoint_ns,
            restart_s,
        }
    }

    /// A restart from the latest checkpoint; returns its time in seconds
    /// (load + first answer) and whether the loaded engine is right.
    fn restart(&mut self, probes: &[Req], thorough: bool) -> (f64, Result<(), String>) {
        self.restarts += 1;
        if probes.is_empty() {
            return (0.0, Err("no probe queries".to_owned()));
        }
        let checked = if thorough { probes } else { &probes[..1] };
        let expected = probe_answers(self.engine, checked);
        let config = self.inputs.spec.engine_config();
        let started = Instant::now();
        let loaded = Engine::load_snapshot(&self.dir, &config);
        let first = loaded
            .as_ref()
            .map_err(|e| format!("load failed: {e}"))
            .and_then(|engine| probe_answers(engine, &probes[..1]));
        let restart_s = started.elapsed().as_secs_f64();
        let verdict = first.and_then(|first| {
            let expected = expected?;
            let loaded = loaded.as_ref().map_err(|e| e.to_string())?;
            if first[0] != expected[0] || probe_answers(loaded, checked)? != expected {
                return Err("the loaded engine answers a probe differently".to_owned());
            }
            if loaded.generation() != self.engine.generation() {
                return Err("the loaded engine resumed at another generation".to_owned());
            }
            if thorough {
                loaded.verify_rebuild_equivalence()?;
            }
            Ok(())
        });
        (restart_s, verdict)
    }

    /// The run's last act: a final checkpoint, a restart from it, every
    /// probe compared, the loaded index checked against a rebuild; then
    /// the scratch directory goes.
    pub fn final_check(&mut self, probes: &[Req]) {
        self.save();
        if let (_, Err(why)) = self.restart(probes, true) {
            self.failures.push(format!("final restart: {why}"));
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    pub fn live_docs(&self) -> usize {
        self.live.len()
    }
}
