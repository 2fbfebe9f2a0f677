//! A miniature loom-style interleaving explorer: shimmed `Mutex` /
//! `Condvar` / atomics driven by a deterministic scheduler that
//! enumerates bounded thread interleavings exhaustively (DESIGN.md §13).
//!
//! ## How it works
//!
//! A model is a closure that spawns [`spawn`]ed threads and manipulates
//! shared state **only** through the shim types ([`SimMutex`],
//! [`SimCondvar`], [`SimAtomicBool`]). Each shim
//! operation is a *yield point*: the running thread hands control back
//! to the scheduler, which picks which thread performs its next
//! operation. Exactly one model thread runs between yield points, so an
//! execution is fully determined by the sequence of scheduling choices —
//! and the explorer enumerates those sequences by depth-first search,
//! replaying the model from scratch with a forced decision prefix.
//!
//! Real OS threads carry the model (so borrowing, guards, and unwinding
//! behave exactly as in production code), but the scheduler's handshake
//! means they never actually run concurrently; every cross-thread
//! transition goes through one `Mutex`+`Condvar`, which also provides
//! the happens-before edges making the shims' `UnsafeCell` sound.
//!
//! ## Schedule bounding
//!
//! Exhaustive enumeration of all interleavings is exponential, so the
//! explorer bounds the search the CHESS way, by **preemption count**: a
//! context switch away from a thread that could have kept running is a
//! preemption, and schedules with more than
//! [`Explorer::max_preemptions`] of them are not explored. (Switches at
//! a block, a park, or an exit are forced and always free.) Most real
//! concurrency bugs — including every lost-wakeup variant the models in
//! [`crate::models`] guard — need only one or two preemptions, so a
//! small bound buys systematic coverage of the interesting schedules at
//! a tiny fraction of the full space. A `max_schedules` budget caps the
//! run regardless, and a per-schedule step budget converts accidental
//! livelock into a typed failure.
//!
//! ## What a failure looks like
//!
//! [`Explorer::explore`] returns the failing decision sequence — a
//! replayable witness — plus the kind: [`FailureKind::Deadlock`] (no
//! runnable thread, not all finished: how a lost wakeup manifests),
//! [`FailureKind::ModelPanic`] (a model assertion fired under some
//! schedule), or the step/replay guards.
//!
//! The shims execute atomics under sequential consistency: the explorer
//! checks *protocol logic* (who waits, who wakes, who holds what), not
//! weak-memory reorderings — the right level for the repo's
//! `Mutex`/`Condvar`-based protocols, whose atomics are all loads and
//! stores of monotone flags re-checked under locks.

// `unpoisoned`: the workspace's poison policy holds here too — a
// poisoning panic is either a model assertion (captured separately) or
// the abort sentinel, and in both cases the controller state is still
// consistent.
use divtopk_core::sync::{Primitives, unpoisoned};
use std::cell::{RefCell, UnsafeCell};
use std::collections::VecDeque;
use std::panic::{AssertUnwindSafe, catch_unwind};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};

/// Panic payload used to unwind managed threads at teardown.
struct Abort;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TState {
    /// Can be scheduled: will run to its next yield point when picked.
    Ready,
    /// Waiting on a shim primitive; some other thread must ready it.
    Blocked,
    /// In [`wait_for_blocked`]: the scheduler readies it once this many
    /// threads are `Blocked`.
    Watching(usize),
    Done,
}

struct SchedState {
    threads: Vec<TState>,
    /// Which managed thread may run right now; `None` = control is with
    /// the scheduler.
    current: Option<usize>,
    /// Threads waiting in `join()` on each thread, readied when it ends.
    joiners: Vec<Vec<usize>>,
    abort: bool,
    /// First model panic message of the execution, if any.
    panic_msg: Option<String>,
}

struct Control {
    state: Mutex<SchedState>,
    cv: Condvar,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

thread_local! {
    /// (controller, my thread id) for the managed thread running here.
    static CTX: RefCell<Option<(Arc<Control>, usize)>> = const { RefCell::new(None) };
}

fn ctx() -> (Arc<Control>, usize) {
    CTX.with(|c| {
        c.borrow()
            .clone()
            .expect("sim primitives may only be used inside Explorer::explore")
    })
}

/// Waits until the scheduler hands this thread the turn. Panics with the
/// abort sentinel at teardown (guard released first — no poisoning).
fn wait_for_turn(control: &Control, me: usize) {
    let mut s = unpoisoned(control.state.lock());
    loop {
        if s.abort {
            drop(s);
            std::panic::panic_any(Abort);
        }
        if s.current == Some(me) {
            return;
        }
        s = unpoisoned(control.cv.wait(s));
    }
}

/// The universal yield point: hand control back, wait to be rescheduled.
fn yield_now() {
    let (control, me) = ctx();
    {
        let mut s = unpoisoned(control.state.lock());
        s.current = None;
    }
    control.cv.notify_all();
    wait_for_turn(&control, me);
}

/// Transition to `Blocked` and hand control back. The caller must have
/// arranged for some other thread to ready this one eventually.
fn block_self() {
    let (control, me) = ctx();
    {
        let mut s = unpoisoned(control.state.lock());
        s.threads[me] = TState::Blocked;
        s.current = None;
    }
    control.cv.notify_all();
    wait_for_turn(&control, me);
}

/// Blocks the calling model thread until at least `n` other model
/// threads are blocked — on a mutex, a condvar or a join. It lets a
/// model wait for a state it cannot see: with no lock held and nothing
/// notifying, "every caller blocked" means every caller sleeps in the
/// protocol's own wait. Like a block, the switch away is free.
pub fn wait_for_blocked(n: usize) {
    let (control, me) = ctx();
    {
        let mut s = unpoisoned(control.state.lock());
        s.threads[me] = TState::Watching(n);
        s.current = None;
    }
    control.cv.notify_all();
    wait_for_turn(&control, me);
}

/// Marks `who` runnable again (no-op unless currently blocked).
fn ready(control: &Control, who: usize) {
    let mut s = unpoisoned(control.state.lock());
    if s.threads[who] == TState::Blocked {
        s.threads[who] = TState::Ready;
    }
}

/// Spawns a managed model thread. Must be called from inside a model.
/// The spawn itself is a yield point; the new thread starts `Ready` and
/// runs only when the scheduler picks it.
pub fn spawn<F>(f: F) -> SimJoinHandle
where
    F: FnOnce() + Send + 'static,
{
    yield_now();
    let (control, _) = ctx();
    let tid = {
        let mut s = unpoisoned(control.state.lock());
        s.threads.push(TState::Ready);
        s.joiners.push(Vec::new());
        s.threads.len() - 1
    };
    let thread_control = Arc::clone(&control);
    let handle = std::thread::Builder::new()
        .name(format!("divtopk-sim-{tid}"))
        .spawn(move || thread_main(thread_control, tid, f))
        // LINT-ALLOW is not needed here (lint crate is not a serving
        // module), but the same policy applies: spawn failure is fatal.
        .expect("spawn sim thread");
    unpoisoned(control.handles.lock()).push(handle);
    SimJoinHandle { tid }
}

/// Body wrapper for every managed thread (thread 0 included).
fn thread_main<F: FnOnce()>(control: Arc<Control>, me: usize, f: F) {
    CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&control), me)));
    wait_for_turn(&control, me);
    let result = catch_unwind(AssertUnwindSafe(f));
    let mut s = unpoisoned(control.state.lock());
    if let Err(payload) = result {
        if !payload.is::<Abort>() {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|m| (*m).to_owned()))
                .unwrap_or_else(|| "model panicked with a non-string payload".to_owned());
            s.panic_msg.get_or_insert(message);
        }
    }
    s.threads[me] = TState::Done;
    let joiners = std::mem::take(&mut s.joiners[me]);
    for j in joiners {
        if s.threads[j] == TState::Blocked {
            s.threads[j] = TState::Ready;
        }
    }
    s.current = None;
    drop(s);
    control.cv.notify_all();
}

/// Handle returned by [`spawn`]; joining is itself a yield point.
pub struct SimJoinHandle {
    tid: usize,
}

impl SimJoinHandle {
    /// Blocks (in the simulated sense) until the spawned thread ends.
    pub fn join(self) {
        yield_now();
        let (control, me) = ctx();
        {
            let mut s = unpoisoned(control.state.lock());
            if s.threads[self.tid] == TState::Done {
                return;
            }
            s.joiners[self.tid].push(me);
            s.threads[me] = TState::Blocked;
            s.current = None;
        }
        control.cv.notify_all();
        wait_for_turn(&control, me);
    }
}

// ---------------------------------------------------------------------
// Shim primitives
// ---------------------------------------------------------------------

struct MutexInner {
    locked: bool,
    waiters: Vec<usize>,
}

/// The shimmed mutex. Lock acquisition is a yield point; contention
/// blocks the simulated thread until the holder unlocks.
pub struct SimMutex<T> {
    sync: Mutex<MutexInner>,
    data: UnsafeCell<T>,
}

// SAFETY: exactly one managed thread executes between yield points, and
// the data is only reachable through a held guard; every cross-thread
// handoff goes through the controller's real Mutex/Condvar, which
// provides the necessary happens-before edges. This is the same
// contract as `std::sync::Mutex<T>: Sync where T: Send`.
unsafe impl<T: Send> Sync for SimMutex<T> {}
// SAFETY: sending the container only moves ownership of T (as for std).
unsafe impl<T: Send> Send for SimMutex<T> {}

impl<T> SimMutex<T> {
    pub fn new(value: T) -> SimMutex<T> {
        SimMutex {
            sync: Mutex::new(MutexInner {
                locked: false,
                waiters: Vec::new(),
            }),
            data: UnsafeCell::new(value),
        }
    }

    /// Acquires the simulated lock (yield point; blocks on contention).
    pub fn lock(&self) -> SimMutexGuard<'_, T> {
        loop {
            yield_now();
            let mut inner = unpoisoned(self.sync.lock());
            if !inner.locked {
                inner.locked = true;
                return SimMutexGuard { mutex: self };
            }
            let (_, me) = ctx();
            inner.waiters.push(me);
            drop(inner);
            block_self();
            // Readied by the unlocker; loop and race to re-acquire.
        }
    }

    /// Releases the lock and readies every waiter (they race to
    /// re-acquire under the scheduler's choices). Not a yield point —
    /// called from guard drop, which must work mid-unwind.
    fn unlock(&self) {
        let waiters = {
            let mut inner = unpoisoned(self.sync.lock());
            inner.locked = false;
            std::mem::take(&mut inner.waiters)
        };
        if waiters.is_empty() {
            return;
        }
        let (control, _) = ctx();
        for w in waiters {
            ready(&control, w);
        }
    }
}

impl<T> From<T> for SimMutex<T> {
    fn from(value: T) -> SimMutex<T> {
        SimMutex::new(value)
    }
}

/// RAII guard for [`SimMutex`]; releases on drop like the real one.
pub struct SimMutexGuard<'a, T> {
    mutex: &'a SimMutex<T>,
}

impl<T> std::ops::Deref for SimMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard proves this simulated thread holds the lock,
        // and only one managed thread runs at a time (see the Sync impl).
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T> std::ops::DerefMut for SimMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as for `deref`, plus `&mut self` makes aliasing
        // impossible through this guard.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T> Drop for SimMutexGuard<'_, T> {
    fn drop(&mut self) {
        self.mutex.unlock();
    }
}

/// The shimmed condvar. `wait` models the real atomic
/// release-and-sleep: registering as a waiter, releasing the mutex, and
/// blocking happen with no scheduling point in between — but there *is*
/// a yield point on entry, which is exactly the window a lost-wakeup
/// bug needs (the instant between the caller's last predicate check and
/// the wait).
pub struct SimCondvar {
    waiters: Mutex<VecDeque<usize>>,
}

impl Default for SimCondvar {
    fn default() -> SimCondvar {
        SimCondvar::new()
    }
}

impl SimCondvar {
    pub fn new() -> SimCondvar {
        SimCondvar {
            waiters: Mutex::new(VecDeque::new()),
        }
    }

    /// Releases `guard`'s mutex and sleeps until notified, then
    /// re-acquires. No spurious wakeups (the explorer wants minimal
    /// nondeterminism; real callers must loop anyway).
    pub fn wait<'a, T>(&self, guard: SimMutexGuard<'a, T>) -> SimMutexGuard<'a, T> {
        yield_now();
        let mutex = guard.mutex;
        let (_, me) = ctx();
        unpoisoned(self.waiters.lock()).push_back(me);
        // Atomic w.r.t. the schedule: between here and `block_self` no
        // other model thread can run, so a notify either precedes the
        // registration (and this thread never sleeps on it) or follows
        // it (and wakes it) — never in between.
        drop(guard);
        block_self();
        mutex.lock()
    }

    /// Wakes the longest-waiting thread, if any (FIFO — deterministic;
    /// the scheduler's choices still explore wake orderings).
    pub fn notify_one(&self) {
        yield_now();
        let woken = unpoisoned(self.waiters.lock()).pop_front();
        if let Some(w) = woken {
            let (control, _) = ctx();
            ready(&control, w);
        }
    }

    /// Wakes every waiting thread.
    pub fn notify_all(&self) {
        yield_now();
        let woken: Vec<usize> = unpoisoned(self.waiters.lock()).drain(..).collect();
        let (control, _) = ctx();
        for w in woken {
            ready(&control, w);
        }
    }
}

/// The [`Primitives`] facade on the shims: `divtopk_core::sync`'s
/// `Gate<Sim>` and `SingleFlight<K, Sim>` are the production protocols,
/// run under the explorer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sim;

impl Primitives for Sim {
    type Mutex<T> = SimMutex<T>;
    type Guard<'a, T: 'a> = SimMutexGuard<'a, T>;
    type Condvar = SimCondvar;

    fn lock<T>(mutex: &SimMutex<T>) -> Self::Guard<'_, T> {
        mutex.lock()
    }

    fn wait<'a, T>(condvar: &SimCondvar, guard: Self::Guard<'a, T>) -> Self::Guard<'a, T> {
        condvar.wait(guard)
    }

    fn notify_all(condvar: &SimCondvar) {
        condvar.notify_all();
    }
}

/// Shimmed atomic bool: every operation is a yield point; the value
/// itself is sequentially consistent (see the module docs for why that
/// is the right model here). The `Ordering` argument is accepted for
/// signature fidelity with the real type.
pub struct SimAtomicBool {
    inner: std::sync::atomic::AtomicBool,
}

impl SimAtomicBool {
    pub fn new(value: bool) -> SimAtomicBool {
        SimAtomicBool {
            inner: std::sync::atomic::AtomicBool::new(value),
        }
    }

    pub fn load(&self, _order: Ordering) -> bool {
        yield_now();
        self.inner.load(Ordering::SeqCst)
    }

    pub fn store(&self, value: bool, _order: Ordering) {
        yield_now();
        self.inner.store(value, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------
// The explorer
// ---------------------------------------------------------------------

/// Exploration bounds. See the module docs for the strategy.
#[derive(Debug, Clone, Copy)]
pub struct Explorer {
    /// Stop after this many schedules even if the bounded space is not
    /// exhausted (the CI budget knob).
    pub max_schedules: usize,
    /// CHESS-style preemption bound per schedule.
    pub max_preemptions: usize,
    /// Per-schedule step guard: exceeding it is a typed failure (a
    /// livelocked model, not an explorer hang).
    pub max_steps: usize,
}

impl Default for Explorer {
    /// Two preemptions, a 4096-schedule budget, 10k steps per schedule.
    fn default() -> Explorer {
        Explorer {
            max_schedules: 4096,
            max_preemptions: 2,
            max_steps: 10_000,
        }
    }
}

/// A successful exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    /// Distinct schedules executed.
    pub schedules: usize,
    /// True when the preemption-bounded space was fully enumerated
    /// (false = the `max_schedules` budget cut the search short).
    pub exhausted: bool,
    /// Deepest decision sequence seen.
    pub max_decisions: usize,
    /// FNV-1a hash over every decision sequence explored — two runs of
    /// the same model must produce the same fingerprint (the
    /// determinism the acceptance tests pin).
    pub fingerprint: u64,
}

/// Why a model failed, plus the replayable witness schedule.
#[derive(Debug, Clone)]
pub struct Failure {
    pub kind: FailureKind,
    /// The decision sequence of the failing execution.
    pub schedule: Vec<usize>,
    /// Schedules fully explored before this one failed.
    pub schedules_before: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// No runnable thread but not all threads finished — how a lost
    /// wakeup (or any missing-notify protocol bug) manifests.
    Deadlock { blocked: usize, finished: usize },
    /// A model assertion panicked under this schedule.
    ModelPanic { message: String },
    /// The per-schedule step budget was exceeded (livelock guard).
    StepBudget,
    /// Replay diverged — the model has nondeterminism outside the shims
    /// (a model bug, not a protocol bug).
    ReplayDiverged,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Deadlock { blocked, finished } => write!(
                f,
                "deadlock: no runnable thread ({blocked} blocked, {finished} finished)"
            ),
            FailureKind::ModelPanic { message } => write!(f, "model panic: {message}"),
            FailureKind::StepBudget => write!(f, "step budget exceeded (livelock?)"),
            FailureKind::ReplayDiverged => write!(f, "replay diverged (nondeterministic model)"),
        }
    }
}

impl Explorer {
    /// Explores the model's schedules depth-first under the configured
    /// bounds. `Ok` = every explored schedule upheld every assertion and
    /// terminated; `Err` = the first failing schedule, as a witness.
    pub fn explore<F>(&self, model: F) -> Result<Report, Failure>
    where
        F: Fn() + Send + Sync + 'static,
    {
        let model = Arc::new(model);
        let mut prefix: Vec<usize> = Vec::new();
        let mut schedules = 0usize;
        let mut max_decisions = 0usize;
        let mut fingerprint: u64 = 0xcbf2_9ce4_8422_2325;
        loop {
            let (trace, failure) = self.run_once(&model, &prefix);
            max_decisions = max_decisions.max(trace.len());
            for &(choice, _) in &trace {
                fingerprint ^= choice as u64 + 1;
                fingerprint = fingerprint.wrapping_mul(0x0000_0100_0000_01b3);
            }
            fingerprint ^= 0xff;
            fingerprint = fingerprint.wrapping_mul(0x0000_0100_0000_01b3);
            if let Some(kind) = failure {
                return Err(Failure {
                    kind,
                    schedule: trace.iter().map(|&(c, _)| c).collect(),
                    schedules_before: schedules,
                });
            }
            schedules += 1;
            match next_prefix(&trace) {
                None => {
                    return Ok(Report {
                        schedules,
                        exhausted: true,
                        max_decisions,
                        fingerprint,
                    });
                }
                Some(_) if schedules >= self.max_schedules => {
                    return Ok(Report {
                        schedules,
                        exhausted: false,
                        max_decisions,
                        fingerprint,
                    });
                }
                Some(next) => prefix = next,
            }
        }
    }

    /// Runs one execution, forcing the decision `prefix` and extending
    /// it first-choice beyond. Returns the full decision trace as
    /// `(choice, options)` pairs plus the failure, if any.
    fn run_once<F>(
        &self,
        model: &Arc<F>,
        prefix: &[usize],
    ) -> (Vec<(usize, usize)>, Option<FailureKind>)
    where
        F: Fn() + Send + Sync + 'static,
    {
        let control = Arc::new(Control {
            state: Mutex::new(SchedState {
                threads: vec![TState::Ready],
                current: None,
                joiners: vec![Vec::new()],
                abort: false,
                panic_msg: None,
            }),
            cv: Condvar::new(),
            handles: Mutex::new(Vec::new()),
        });
        {
            let thread_control = Arc::clone(&control);
            let model = Arc::clone(model);
            let handle = std::thread::Builder::new()
                .name("divtopk-sim-0".to_owned())
                .spawn(move || thread_main(thread_control, 0, move || model()))
                .expect("spawn sim thread 0");
            unpoisoned(control.handles.lock()).push(handle);
        }
        let mut trace: Vec<(usize, usize)> = Vec::new();
        let mut preemptions = 0usize;
        let mut last_run: Option<usize> = None;
        let mut steps = 0usize;
        let failure = loop {
            let mut s = unpoisoned(control.state.lock());
            while s.current.is_some() {
                s = unpoisoned(control.cv.wait(s));
            }
            if let Some(message) = s.panic_msg.take() {
                break Some(FailureKind::ModelPanic { message });
            }
            let blocked = s.threads.iter().filter(|&&t| t == TState::Blocked).count();
            for t in &mut s.threads {
                if matches!(*t, TState::Watching(n) if blocked >= n) {
                    *t = TState::Ready;
                }
            }
            let runnable: Vec<usize> = s
                .threads
                .iter()
                .enumerate()
                .filter(|&(_, &t)| t == TState::Ready)
                .map(|(i, _)| i)
                .collect();
            if runnable.is_empty() {
                let finished = s.threads.iter().filter(|&&t| t == TState::Done).count();
                if finished == s.threads.len() {
                    break None; // all Done: clean completion
                }
                let blocked = s.threads.len() - finished;
                break Some(FailureKind::Deadlock { blocked, finished });
            }
            steps += 1;
            if steps > self.max_steps {
                break Some(FailureKind::StepBudget);
            }
            // Preemption bounding: if the last-run thread could continue
            // and the budget is spent, it is the only option.
            let prev_runnable = last_run.is_some_and(|p| s.threads[p] == TState::Ready);
            let options: Vec<usize> = if prev_runnable && preemptions >= self.max_preemptions {
                vec![last_run.unwrap_or(0)]
            } else {
                runnable
            };
            let choice = prefix.get(trace.len()).copied().unwrap_or(0);
            if choice >= options.len() {
                break Some(FailureKind::ReplayDiverged);
            }
            trace.push((choice, options.len()));
            let chosen = options[choice];
            if prev_runnable && Some(chosen) != last_run {
                preemptions += 1;
            }
            s.current = Some(chosen);
            last_run = Some(chosen);
            drop(s);
            control.cv.notify_all();
        };
        // Teardown: unwind every still-parked thread, then join all.
        {
            let mut s = unpoisoned(control.state.lock());
            s.abort = true;
            s.current = None;
        }
        control.cv.notify_all();
        let handles = std::mem::take(&mut *unpoisoned(control.handles.lock()));
        for handle in handles {
            let _ = handle.join();
        }
        (trace, failure)
    }
}

/// DFS successor: the next forced prefix, or `None` when the bounded
/// space is exhausted. Backtracks the deepest decision with an
/// untried alternative.
fn next_prefix(trace: &[(usize, usize)]) -> Option<Vec<usize>> {
    let mut depth = trace.len();
    while depth > 0 {
        let (choice, options) = trace[depth - 1];
        if choice + 1 < options {
            let mut prefix: Vec<usize> = trace[..depth].iter().map(|&(c, _)| c).collect();
            prefix[depth - 1] += 1;
            return Some(prefix);
        }
        depth -= 1;
    }
    None
}
