//! The four concurrency models checked by the interleaving explorer,
//! each asserting one protocol's DESIGN.md invariant under every
//! explored schedule.
//!
//! Two run production code: [`single_flight`] and [`admission_gate`]
//! drive `divtopk_core::sync`'s `SingleFlight` and `Gate` on the
//! [`crate::sched::Sim`] primitives, so the code they check is the code
//! that serves. Their broken variants live in the tests, as facade
//! mutants (a `Primitives` whose `notify_all` misbehaves) or small
//! mutants of the protocol's logic. The other two are still miniatures
//! of `core::pool` and `core::prefetch`, built on the shims, with their
//! bugs planted by [`Bug`].
//!
//! | model | checks | invariant |
//! |---|---|---|
//! | [`pool_handshake`] | a miniature of `divtopk_core::pool` inject/worker | no lost wakeup: every injected task executes and the scope completes |
//! | [`prefetch_pump`] | a miniature of `divtopk_core::prefetch` park/re-spawn | exactly one pump alive; consumer drains all items in order |
//! | [`single_flight`] | `divtopk_core::sync::SingleFlight` | one computation per key; every waiter gets the value |
//! | [`admission_gate`] | `divtopk_core::sync::Gate` | never more than `workers` inside; a line admitted in ticket order and none stranded; nobody refused while there is room |

use crate::sched::{
    Explorer, Failure, Report, SimAtomicBool, SimCondvar, SimMutex, spawn, wait_for_blocked,
};
use divtopk_core::sync::{Gate, Primitives, SingleFlight};
use std::collections::VecDeque;
use std::convert::Infallible;
use std::sync::Arc;
use std::sync::atomic::Ordering;

/// Which deliberate bug (if any) to plant in a miniature. `None` must
/// pass exhaustively; the others must be caught by the explorer.
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
// Model 3: single-flight cache fill (divtopk_core::sync::SingleFlight)
// ---------------------------------------------------------------------

/// One [`single_flight`] caller filling a one-key cache through the
/// flight and counting its computations: [`fill`], or a test's mutant.
pub type Fill<P> = fn(&SingleFlight<u32, P>, &SimMutex<Option<u32>>, &SimMutex<usize>) -> u32;

/// The engine's fill: [`SingleFlight::get_or_compute`], computing 42.
pub fn fill<P: Primitives>(
    flight: &SingleFlight<u32, P>,
    cache: &SimMutex<Option<u32>>,
    computed: &SimMutex<usize>,
) -> u32 {
    let compute = || {
        *computed.lock() += 1;
        Ok::<u32, Infallible>(42)
    };
    let insert = |&value: &u32| *cache.lock() = Some(value);
    let Ok(value) = flight.get_or_compute(&0, || *cache.lock(), compute, insert);
    value
}

/// `callers` concurrent fills of the same cold key on `P`'s primitives.
/// Invariants: the value is computed exactly once, every caller
/// observes it, and no waiter sleeps forever.
pub fn single_flight<P>(
    explorer: &Explorer,
    callers: usize,
    fill: Fill<P>,
) -> Result<Report, Failure>
where
    P: Primitives + 'static,
    SingleFlight<u32, P>: Send + Sync,
{
    explorer.explore(move || {
        let m = Arc::new((
            SingleFlight::default(),
            SimMutex::new(None),
            SimMutex::new(0),
        ));
        let handles: Vec<_> = (0..callers)
            .map(|_| {
                let m = Arc::clone(&m);
                spawn(move || {
                    let value = fill(&m.0, &m.1, &m.2);
                    assert!(value == 42, "single-flight model: wrong value {value}");
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        let computed = *m.2.lock();
        assert!(
            computed == 1,
            "single-flight model: computed {computed} times for one key"
        );
    })
}

// ---------------------------------------------------------------------
// Model 4: admission gate (divtopk_core::sync::Gate)
// ---------------------------------------------------------------------

/// What [`admission_gate`] drives: `Gate` on any [`Primitives`], or a
/// test's mutant gate.
pub trait Admission: Send + Sync + 'static {
    fn new(workers: usize, queue_capacity: usize) -> Self;
    /// Enters, runs `inside` holding a permit, leaves; false = refused.
    fn pass(&self, inside: impl FnOnce()) -> bool;
}

impl<P: Primitives + 'static> Admission for Gate<P>
where
    Gate<P>: Send + Sync,
{
    fn new(workers: usize, queue_capacity: usize) -> Gate<P> {
        Gate::new(workers, queue_capacity)
    }

    fn pass(&self, inside: impl FnOnce()) -> bool {
        let permit = self.enter();
        if permit.is_some() {
            inside();
        }
        permit.is_some()
    }
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
    /// false: the callers race into an idle gate. true: thread 0 is one
    /// more caller — a slow search that enters first and spawns the
    /// callers one at a time, each once the one before sleeps in line
    /// (so spawn order is ticket order), then leaves. A
    /// preemption-bounded search from an idle gate reaches a long line
    /// last; this starts there.
    pub line_up: bool,
}

impl GateShape {
    /// The shape `lint --models` runs: three callers race into an idle
    /// gate with one permit and one waiting slot.
    pub const RACE: GateShape = GateShape {
        workers: 1,
        queue_capacity: 1,
        callers: 3,
        line_up: false,
    };
}

/// What the callers saw, counted outside the gate so a broken gate
/// cannot vouch for itself.
#[derive(Default)]
struct Seen {
    inside: usize,
    /// Lined-up callers admitted so far.
    lined: usize,
    refused: usize,
}

/// An admission gate. Invariants: never more than `workers` callers
/// inside, a line admitted in ticket order, every caller finishes (no
/// stranded waiter), nobody refused while the gate has room, and the
/// drained gate admits again.
pub fn admission_gate<G: Admission>(
    explorer: &Explorer,
    shape: GateShape,
) -> Result<Report, Failure> {
    explorer.explore(move || {
        let m = Arc::new((
            G::new(shape.workers, shape.queue_capacity),
            SimMutex::new(Seen::default()),
        ));
        let caller = |ticket: Option<usize>| {
            let m = Arc::clone(&m);
            spawn(move || {
                if !m.0.pass(|| occupy(&m.1, shape.workers, ticket, || ())) {
                    m.1.lock().refused += 1;
                }
            })
        };
        let mut handles = Vec::new();
        if shape.line_up {
            let admitted = m.0.pass(|| {
                occupy(&m.1, shape.workers, None, || {
                    for ticket in 0..shape.callers {
                        handles.push(caller(Some(ticket)));
                        wait_for_blocked(ticket + 1);
                    }
                });
            });
            assert!(admitted, "gate model: idle gate refused");
        } else {
            handles.extend((0..shape.callers).map(|_| caller(None)));
        }
        for h in handles {
            h.join();
        }
        let room = shape.workers + shape.queue_capacity;
        let entered = shape.callers + usize::from(shape.line_up);
        let refused = m.1.lock().refused;
        assert!(
            refused <= entered.saturating_sub(room),
            "gate model: {refused} of {entered} refused by a gate with room for {room}"
        );
        assert!(m.0.pass(|| ()), "gate model: the drained gate refused");
    })
}

/// One admitted caller's stay inside the gate, running `body` there.
fn occupy(seen: &SimMutex<Seen>, workers: usize, ticket: Option<usize>, body: impl FnOnce()) {
    let mut s = seen.lock();
    let inside = s.inside + 1;
    assert!(
        inside <= workers,
        "gate model: {inside} inside with {workers} permits"
    );
    s.inside = inside;
    if let Some(mine) = ticket {
        let head = s.lined;
        assert!(
            head == mine,
            "gate model: ticket {mine} admitted ahead of ticket {head}"
        );
        s.lined += 1;
    }
    drop(s);
    body();
    seen.lock().inside -= 1;
}
