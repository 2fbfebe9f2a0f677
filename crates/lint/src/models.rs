//! The four concurrency models checked by the interleaving explorer.
//!
//! Each model is a faithful miniature of one hand-rolled protocol in the
//! workspace, built on the [`crate::sched`] shims, asserting that
//! protocol's DESIGN.md invariant under every explored schedule. Each
//! carries intentionally-broken variants — the exact bug the production
//! protocol defends against — which the regression tests require the
//! explorer to catch. That turns the prose soundness arguments into
//! executable fixtures: if a refactor ever weakens the real protocol the
//! same way, DESIGN.md §13 points at the model that proves why it breaks.
//!
//! | model | mirrors | invariant |
//! |---|---|---|
//! | [`pool_handshake`] | `divtopk_core::pool` inject/worker | no lost wakeup: every injected task executes and the scope completes |
//! | [`prefetch_pump`] | `divtopk_core::prefetch` park/re-spawn | exactly one pump alive; consumer drains all items in order |
//! | [`single_flight`] | `divtopk_engine::engine` inflight set | one computation per key; every waiter gets the value |
//! | [`admission_gate`] | `divtopk_engine::server` gate/permit | never more than `workers` inside; waiters admitted in ticket order and none stranded; refusals never block |

use crate::sched::{
    Explorer, Failure, Report, SimAtomicBool, SimCondvar, SimCounter, SimMutex, spawn,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::sync::atomic::Ordering;

/// Which deliberate bug (if any) to plant in a model. `None` must pass
/// exhaustively; the others must be caught by the explorer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bug {
    None,
    /// `pool_handshake`: the injector skips the signal-mutex
    /// serialization before ringing the bell — the classic lost-wakeup
    /// window the real `WorkerPool::inject` closes by locking and
    /// dropping `signal` before `notify_one` (DESIGN.md §8).
    PoolSkipSignalSerialization,
    /// `prefetch_pump`: the consumer forgets to re-spawn the pump after
    /// popping from a parked feed — the queue never refills and the
    /// consumer waits forever (the re-spawn duty `Feed::pop` carries).
    PrefetchNoRespawn,
    /// `prefetch_pump`: the consumer re-spawns without checking the
    /// parked flag, so two pumps run concurrently — the second finds the
    /// source taken and the single-pump invariant breaks.
    PrefetchDoubleRespawn,
    /// `single_flight`: the claim holder releases the inflight claim
    /// *before* inserting into the cache, so a notified waiter re-misses
    /// and recomputes — the insert-before-release ordering
    /// `InflightClaim` exists to enforce.
    FlightInsertAfterRelease,
    /// `single_flight`: the claim holder never notifies the condvar —
    /// waiters sleep forever (the dropped-notify regression).
    FlightDropNotify,
    /// `admission_gate`: a released permit wakes one waiter instead of
    /// all — the wakeup can land behind the head of the line, whose
    /// owner goes back to sleep while the head is never told.
    GateReleaseNotifyOne,
    /// `admission_gate`: a waiter takes a free slot without checking
    /// that its ticket is the one being served — a later arrival
    /// overtakes an earlier one.
    GateSkipTurnCheck,
}

// ---------------------------------------------------------------------
// Model 1: worker-pool handshake (divtopk_core::pool)
// ---------------------------------------------------------------------

struct PoolModel {
    queue: SimMutex<VecDeque<u32>>,
    /// The handshake mutex (`PoolShared::signal`).
    signal: SimMutex<()>,
    /// The wakeup condvar (`PoolShared::bell`).
    bell: SimCondvar,
    shutdown: SimAtomicBool,
    /// Completed-task count + completion condvar (the scope's wait-all).
    done: SimMutex<usize>,
    done_cv: SimCondvar,
}

/// The pool's inject/worker lost-wakeup handshake, `workers` workers ×
/// `tasks` tasks. Invariant: the injector's wait-all always completes
/// and every task executes exactly once — i.e. no notify is ever lost.
///
/// Protocol under test (mirrors `pool.rs` line for line):
/// * inject: push task → lock+drop `signal` → `bell.notify_one()`;
/// * worker: drain queue → lock `signal` → re-check shutdown and queue
///   under the lock → only then `bell.wait(signal)`.
pub fn pool_handshake(
    explorer: &Explorer,
    workers: usize,
    tasks: u32,
    bug: Bug,
) -> Result<Report, Failure> {
    explorer.explore(move || {
        let m = Arc::new(PoolModel {
            queue: SimMutex::new(VecDeque::new()),
            signal: SimMutex::new(()),
            bell: SimCondvar::new(),
            shutdown: SimAtomicBool::new(false),
            done: SimMutex::new(0),
            done_cv: SimCondvar::new(),
        });
        let mut handles = Vec::new();
        for _ in 0..workers {
            let m = Arc::clone(&m);
            handles.push(spawn(move || pool_worker(&m)));
        }
        // Injector (the scope owner): push every task, ring the bell,
        // then wait for all of them to complete before shutting down —
        // `WorkerPool::scope`'s wait-all. If a wakeup is lost, neither
        // the worker (waiting on the bell) nor the injector (waiting on
        // completion) can make progress: the explorer reports deadlock.
        for task in 0..tasks {
            m.queue.lock().push_back(task);
            if bug != Bug::PoolSkipSignalSerialization {
                // Serialize with any worker between its empty re-check
                // and its wait: by the time we ring, it is registered.
                drop(m.signal.lock());
            }
            m.bell.notify_one();
        }
        {
            let mut done = m.done.lock();
            while *done < tasks as usize {
                done = m.done_cv.wait(done);
            }
        }
        {
            let _serialize = m.signal.lock();
            m.shutdown.store(true, Ordering::SeqCst);
        }
        m.bell.notify_all();
        for h in handles {
            h.join();
        }
        let executed = *m.done.lock();
        assert!(
            executed == tasks as usize,
            "pool model: {executed} of {tasks} tasks executed"
        );
    })
}

fn pool_worker(m: &PoolModel) {
    loop {
        // Fast path: drain without touching the handshake mutex.
        while let Some(task) = m.queue.lock().pop_front() {
            pool_complete(m, task);
        }
        let guard = m.signal.lock();
        if m.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Re-check under the signal lock: a task pushed since the drain
        // would otherwise be missed while we sleep.
        let recheck = m.queue.lock().pop_front();
        if let Some(task) = recheck {
            drop(guard);
            pool_complete(m, task);
            continue;
        }
        drop(m.bell.wait(guard));
    }
}

fn pool_complete(m: &PoolModel, _task: u32) {
    let mut done = m.done.lock();
    *done += 1;
    m.done_cv.notify_all();
}

// ---------------------------------------------------------------------
// Model 2: prefetch park/re-spawn (divtopk_core::prefetch)
// ---------------------------------------------------------------------

struct FeedModel {
    state: SimMutex<FeedState>,
    ready: SimCondvar,
}

struct FeedState {
    queue: VecDeque<u32>,
    /// Models `FeedState::source: Option<S>` — `take`n for the
    /// duration of each out-of-lock pull.
    source_present: bool,
    next_item: u32,
    total: u32,
    closed: bool,
    parked: bool,
    /// Pumps currently holding the duty (entered, not yet parked or
    /// closed). Tracked under the state lock: a pump that has parked
    /// has relinquished the duty even if its thread has not yet exited,
    /// so this — not thread liveness — is the single-pump invariant.
    pumps_on_duty: usize,
}

/// The prefetch feed's cooperative pump: bounded queue of `depth`,
/// `total` items, pump parks when full, consumer re-spawns on pop.
/// Invariants: at most one pump is ever alive, and the consumer drains
/// all `total` items in source order.
pub fn prefetch_pump(
    explorer: &Explorer,
    depth: usize,
    total: u32,
    bug: Bug,
) -> Result<Report, Failure> {
    explorer.explore(move || {
        let m = Arc::new(FeedModel {
            state: SimMutex::new(FeedState {
                queue: VecDeque::new(),
                source_present: true,
                next_item: 0,
                total,
                closed: false,
                parked: false,
                pumps_on_duty: 0,
            }),
            ready: SimCondvar::new(),
        });
        let mut pumps = Vec::new();
        {
            let m = Arc::clone(&m);
            pumps.push(spawn(move || feed_pump(&m, depth)));
        }
        // Consumer: pop items until the feed closes (Feed::pop).
        let mut got = Vec::new();
        loop {
            let mut st = m.state.lock();
            let item = loop {
                if let Some(item) = st.queue.pop_front() {
                    break Some(item);
                }
                if st.closed {
                    break None;
                }
                st = m.ready.wait(st);
            };
            let Some(item) = item else { break };
            // The re-spawn duty: a parked pump runs no thread, so the
            // slot this pop just opened must be refilled by us.
            let respawn = match bug {
                Bug::PrefetchNoRespawn => false,
                Bug::PrefetchDoubleRespawn => true,
                _ => st.parked,
            };
            if respawn {
                st.parked = false;
                let m2 = Arc::clone(&m);
                pumps.push(spawn(move || feed_pump(&m2, depth)));
            }
            drop(st);
            got.push(item);
        }
        for p in pumps {
            p.join();
        }
        let expected: Vec<u32> = (0..total).collect();
        assert!(
            got == expected,
            "prefetch model: drained {got:?}, expected {expected:?}"
        );
    })
}

fn feed_pump(m: &FeedModel, depth: usize) {
    let mut entered = false;
    loop {
        let mut st = m.state.lock();
        if !entered {
            entered = true;
            st.pumps_on_duty += 1;
            assert!(
                st.pumps_on_duty == 1,
                "prefetch model: two pumps on duty at once"
            );
        }
        if st.queue.len() >= depth {
            // Queue full: park and relinquish the duty (still under the
            // lock — atomically w.r.t. any consumer respawn decision).
            // From here no pump runs; the consumer's pop re-spawns.
            st.parked = true;
            st.pumps_on_duty -= 1;
            return;
        }
        if !st.source_present {
            st.closed = true;
            st.pumps_on_duty -= 1;
            m.ready.notify_all();
            return;
        }
        if st.next_item >= st.total {
            // Source exhausted (pull returned None): close for good.
            st.source_present = false;
            st.closed = true;
            st.pumps_on_duty -= 1;
            m.ready.notify_all();
            return;
        }
        // Take the source and pull outside the lock (the whole point of
        // the protocol: the pull may be slow).
        st.source_present = false;
        let item = st.next_item;
        drop(st);
        let mut st = m.state.lock();
        st.source_present = true;
        st.next_item = item + 1;
        st.queue.push_back(item);
        m.ready.notify_all();
        drop(st);
    }
}

// ---------------------------------------------------------------------
// Model 3: single-flight cache fill (divtopk_engine::engine)
// ---------------------------------------------------------------------

struct FlightModel {
    /// The result cache (one key suffices for the protocol).
    cache: SimMutex<Option<u32>>,
    /// Models the `inflight: Mutex<HashSet<Key>>` — one key, so a bool.
    inflight: SimMutex<bool>,
    inflight_done: SimCondvar,
    computations: SimCounter,
}

/// The engine's single-flight fill: `callers` concurrent requests for
/// the same cold key. Invariants: the value is computed exactly once,
/// every caller observes it, and no waiter sleeps forever.
///
/// Mirrors `Engine::search_pinned`'s loop: lock inflight → probe cache →
/// claim if idle, else wait on `inflight_done` → compute outside all
/// locks → insert into cache → release claim → notify.
pub fn single_flight(explorer: &Explorer, callers: usize, bug: Bug) -> Result<Report, Failure> {
    explorer.explore(move || {
        let m = Arc::new(FlightModel {
            cache: SimMutex::new(None),
            inflight: SimMutex::new(false),
            inflight_done: SimCondvar::new(),
            computations: SimCounter::new(),
        });
        let mut handles = Vec::new();
        for _ in 0..callers {
            let m = Arc::clone(&m);
            handles.push(spawn(move || {
                let value = flight_caller(&m, bug);
                assert!(value == 42, "single-flight model: wrong value {value}");
            }));
        }
        for h in handles {
            h.join();
        }
        let computed = m.computations.get();
        assert!(
            computed == 1,
            "single-flight model: computed {computed} times for one key"
        );
    })
}

fn flight_caller(m: &FlightModel, bug: Bug) -> u32 {
    loop {
        let mut inflight = m.inflight.lock();
        // Cache probe under the inflight lock (the real code's lock
        // order: inflight, then cache, never the reverse).
        if let Some(value) = *m.cache.lock() {
            return value;
        }
        if !*inflight {
            *inflight = true;
            break;
        }
        inflight = m.inflight_done.wait(inflight);
    }
    // Claim held; compute outside every lock.
    let value = 42;
    m.computations.bump();
    if bug == Bug::FlightInsertAfterRelease {
        // Broken ordering: waiters wake, re-probe an empty cache, find
        // the claim free, and recompute.
        *m.inflight.lock() = false;
        m.inflight_done.notify_all();
        *m.cache.lock() = Some(value);
    } else {
        // Correct ordering (`InflightClaim`): the cache insert happens
        // before the claim drops, so a woken waiter's re-probe hits.
        *m.cache.lock() = Some(value);
        *m.inflight.lock() = false;
        if bug != Bug::FlightDropNotify {
            m.inflight_done.notify_all();
        }
    }
    value
}

// ---------------------------------------------------------------------
// Model 4: admission gate (divtopk_engine::server)
// ---------------------------------------------------------------------

struct GateModel {
    state: SimMutex<GateState>,
    freed: SimCondvar,
    /// Rung by the caller whose ticket makes the line `hold_for_line` long.
    lined_up: SimCondvar,
    /// Callers between `enter` and release, counted outside the gate's
    /// own state so a broken gate cannot vouch for itself.
    inside: SimCounter,
}

#[derive(Default)]
struct GateState {
    running: usize,
    next_ticket: usize,
    now_serving: usize,
    refused: usize,
}

/// The scenario one [`admission_gate`] run explores.
#[derive(Debug, Clone, Copy)]
pub struct GateShape {
    /// Permits.
    pub workers: usize,
    /// Waiting slots.
    pub queue_capacity: usize,
    /// Spawned callers; each enters once.
    pub callers: usize,
    /// 0: the callers race into an idle gate. Otherwise thread 0 is one
    /// more caller — a slow search: it enters before the others exist
    /// and leaves once this many of them wait in line. A
    /// preemption-bounded search from an idle gate reaches a line that
    /// long last; this starts there.
    pub hold_for_line: usize,
}

/// The server's admission gate. Invariants: never more than `workers`
/// callers inside, waiters admitted in ticket order, every admitted
/// caller finishes (no stranded waiter), a refused caller returns
/// without ever waiting, and nobody is refused while the gate has room.
///
/// Mirrors `Gate::enter` / `Permit::drop`: admit at once when a slot is
/// free and nobody waits; refuse when the line is full; otherwise take
/// a ticket, wait until it is being served *and* a slot is free, then
/// `notify_all` for the new head. Release decrements and `notify_all`s.
pub fn admission_gate(explorer: &Explorer, shape: GateShape, bug: Bug) -> Result<Report, Failure> {
    explorer.explore(move || {
        let m = Arc::new(GateModel {
            state: SimMutex::new(GateState::default()),
            freed: SimCondvar::new(),
            lined_up: SimCondvar::new(),
            inside: SimCounter::new(),
        });
        let holding = shape.hold_for_line > 0;
        if holding {
            assert!(gate_enter(&m, shape, bug), "gate model: idle gate refused");
        }
        let handles: Vec<_> = (0..shape.callers)
            .map(|_| {
                let m = Arc::clone(&m);
                spawn(move || {
                    if gate_enter(&m, shape, bug) {
                        gate_leave(&m, shape, bug);
                    }
                })
            })
            .collect();
        if holding {
            let mut st = m.state.lock();
            while st.next_ticket - st.now_serving < shape.hold_for_line {
                st = m.lined_up.wait(st);
            }
            drop(st);
            gate_leave(&m, shape, bug);
        }
        for h in handles {
            h.join();
        }
        let st = m.state.lock();
        assert!(
            st.running == 0 && st.next_ticket == st.now_serving,
            "gate model: {} running, {} waiting at the end",
            st.running,
            st.next_ticket - st.now_serving
        );
        let room = shape.workers + shape.queue_capacity;
        let entered = shape.callers + usize::from(holding);
        assert!(
            st.refused <= entered.saturating_sub(room),
            "gate model: {} of {entered} refused by a gate with room for {room}",
            st.refused
        );
    })
}

/// `Gate::enter`: true = admitted (the caller now holds a permit).
fn gate_enter(m: &GateModel, shape: GateShape, bug: Bug) -> bool {
    let mut st = m.state.lock();
    let waiting = st.next_ticket - st.now_serving;
    if waiting == 0 && st.running < shape.workers {
        st.running += 1;
        return true;
    }
    if waiting >= shape.queue_capacity {
        // Refused: returns from here, having never touched `freed`.
        st.refused += 1;
        return false;
    }
    let mine = st.next_ticket;
    st.next_ticket += 1;
    if waiting + 1 == shape.hold_for_line {
        m.lined_up.notify_all();
    }
    while (bug != Bug::GateSkipTurnCheck && st.now_serving != mine) || st.running >= shape.workers {
        st = m.freed.wait(st);
    }
    assert!(
        st.now_serving == mine,
        "gate model: ticket {mine} admitted ahead of ticket {}",
        st.now_serving
    );
    st.now_serving += 1;
    st.running += 1;
    drop(st);
    m.freed.notify_all();
    true
}

/// The search itself, then `Permit::drop`.
fn gate_leave(m: &GateModel, shape: GateShape, bug: Bug) {
    let others = m.inside.bump();
    assert!(
        others < shape.workers,
        "gate model: {} inside with {} permits",
        others + 1,
        shape.workers
    );
    m.inside.decrement();
    m.state.lock().running -= 1;
    if bug == Bug::GateReleaseNotifyOne {
        m.freed.notify_one();
    } else {
        m.freed.notify_all();
    }
}
