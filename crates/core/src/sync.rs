//! The workspace's locking conventions and the two serving protocols
//! built on them: the poison policy (DESIGN.md §13), the server's
//! admission [`Gate`] and the cache's [`SingleFlight`] fill (§8).
//!
//! ## Two protocols, one facade
//!
//! [`Gate`] and [`SingleFlight`] are written once, against
//! [`Primitives`] — a mutex, its guard and a condition variable, with
//! `lock`, `wait` and `notify_all`. [`Std`] implements it on `std::sync`
//! under the poison policy below, and is the default, so production code
//! names `Gate` and `SingleFlight<K>`. `divtopk-lint` implements it on
//! its simulated primitives, and its interleaving explorer runs these
//! same two types under every bounded schedule — the code it checks is
//! the code that serves. (`core::pool` and `core::prefetch` are still
//! checked as hand-written miniatures there.)
//!
//! ## Policy: poisoning is ignored, deliberately
//!
//! A `std` lock poisons when a thread panics while holding it, and every
//! subsequent `lock()` returns `Err(PoisonError)` carrying the perfectly
//! usable guard. The poison bit is a *heuristic* ("a critical section
//! died mid-write; the data may be torn"), not a soundness fence. This
//! workspace converts that heuristic into a concrete, checkable policy:
//!
//! 1. **Critical sections are panic-free by construction.** The
//!    `divtopk-lint` `panic` rule forbids `unwrap`/`expect`/`panic!` in
//!    every serving-path module, this one included, so the code that
//!    runs while holding a serving lock has no panic sites of its own
//!    (the only residual sources are allocator aborts, which never
//!    unwind and therefore never poison).
//! 2. **Lock-held state transitions are small and total.** The pool,
//!    prefetch, gate, and single-flight protocols mutate a handful of
//!    plain fields under their locks (queue push/pop, flag flips,
//!    counter bumps) — each is a single assignment that cannot be
//!    observed half-done by the next holder.
//!
//! Under those two invariants a poisoned lock can only mean "a *test*
//! or caller-supplied closure panicked on another thread", and the
//! right behavior for the serving path is to keep serving, not to
//! propagate a second panic out of an unrelated worker. Hence: every
//! serving-path lock acquisition goes through these helpers, which
//! strip the poison bit and return the guard. Bare `.lock().unwrap()`
//! is banned by the linter — the point is not the four saved
//! characters, it is that grepping `sync::` finds every place the
//! policy applies, and this module is the one place the argument lives.
//!
//! (A [`SingleFlight`] claim relies on it: the claim is released while
//! unwinding from a panicking compute, or every waiter on the key would
//! hang, and that release must not panic on a poisoned lock.)

use std::collections::HashSet;
use std::hash::Hash;
use std::ops::DerefMut;
use std::sync::{Condvar, LockResult, Mutex, MutexGuard, PoisonError, RwLock};

/// Strips the poison bit off any `std::sync` lock result and returns
/// the guard. See the module docs for why this is sound here.
#[inline]
pub fn unpoisoned<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// `mutex.lock()` that tolerates poisoning (never panics, never blocks
/// differently from `lock()` itself).
#[inline]
pub fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    unpoisoned(mutex.lock())
}

/// `rwlock.read()` that tolerates poisoning.
#[inline]
pub fn read_unpoisoned<T>(rwlock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    unpoisoned(rwlock.read())
}

/// `rwlock.write()` that tolerates poisoning.
#[inline]
pub fn write_unpoisoned<T>(rwlock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    unpoisoned(rwlock.write())
}

/// `condvar.wait(guard)` that tolerates poisoning. Spurious wakeups are
/// still possible, as with the underlying wait — callers loop on their
/// predicate exactly as before.
#[inline]
pub fn wait_unpoisoned<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    unpoisoned(condvar.wait(guard))
}

/// The lock primitives [`Gate`] and [`SingleFlight`] are written
/// against. [`Std`] is the production implementation; `divtopk-lint`
/// supplies simulated ones.
pub trait Primitives {
    /// A mutex holding a `T`.
    type Mutex<T>: From<T>;
    /// Proof of holding a [`Primitives::Mutex`]; unlocks on drop.
    type Guard<'a, T: 'a>: DerefMut<Target = T>;
    /// A condition variable waited on with a [`Primitives::Guard`].
    type Condvar: Default;

    /// Locks `mutex`, blocking until it is free.
    fn lock<T>(mutex: &Self::Mutex<T>) -> Self::Guard<'_, T>;
    /// Releases `guard`'s mutex, sleeps until notified, and locks it
    /// again. May wake spuriously: callers loop on their predicate.
    fn wait<'a, T>(condvar: &Self::Condvar, guard: Self::Guard<'a, T>) -> Self::Guard<'a, T>;
    /// Wakes every thread waiting on `condvar`.
    fn notify_all(condvar: &Self::Condvar);
}

/// [`Primitives`] on `std::sync`, poisoning ignored (module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct Std;

impl Primitives for Std {
    type Mutex<T> = Mutex<T>;
    type Guard<'a, T: 'a> = MutexGuard<'a, T>;
    type Condvar = Condvar;

    #[inline]
    fn lock<T>(mutex: &Mutex<T>) -> Self::Guard<'_, T> {
        lock_unpoisoned(mutex)
    }

    #[inline]
    fn wait<'a, T>(condvar: &Condvar, guard: Self::Guard<'a, T>) -> Self::Guard<'a, T> {
        wait_unpoisoned(condvar, guard)
    }

    #[inline]
    fn notify_all(condvar: &Condvar) {
        condvar.notify_all();
    }
}

/// The server's admission gate: at most `workers` callers hold a
/// [`Permit`], at most `queue_capacity` more wait for one, in arrival
/// order, and anyone beyond that is refused without blocking.
pub struct Gate<P: Primitives = Std> {
    state: P::Mutex<GateState>,
    freed: P::Condvar,
    workers: usize,
    queue_capacity: usize,
}

#[derive(Debug, Default)]
struct GateState {
    /// Permits out right now.
    running: usize,
    /// The ticket the next waiter takes.
    next_ticket: u64,
    /// The ticket at the head of the line; `next_ticket - now_serving`
    /// callers are waiting.
    now_serving: u64,
}

impl<P: Primitives> std::fmt::Debug for Gate<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gate")
            .field("workers", &self.workers)
            .field("queue_capacity", &self.queue_capacity)
            .finish_non_exhaustive()
    }
}

impl<P: Primitives> Gate<P> {
    /// A gate with `workers` permits and `queue_capacity` waiting slots.
    pub fn new(workers: usize, queue_capacity: usize) -> Gate<P> {
        Gate {
            state: GateState::default().into(),
            freed: Default::default(),
            workers,
            queue_capacity,
        }
    }

    /// How many callers may wait for a permit.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Permits out right now.
    pub fn running(&self) -> usize {
        P::lock(&self.state).running
    }

    /// Callers waiting for a permit right now.
    pub fn waiting(&self) -> usize {
        let state = P::lock(&self.state);
        (state.next_ticket - state.now_serving) as usize
    }

    /// A permit — at once if a slot is free and nobody is waiting, after
    /// waiting in line if the line has room — or `None`, without
    /// blocking, if it does not.
    pub fn enter(&self) -> Option<Permit<'_, P>> {
        let mut state = P::lock(&self.state);
        let waiting = state.next_ticket - state.now_serving;
        if waiting == 0 && state.running < self.workers {
            state.running += 1;
            return Some(Permit { gate: self });
        }
        if waiting >= self.queue_capacity as u64 {
            return None;
        }
        let mine = state.next_ticket;
        state.next_ticket += 1;
        while state.now_serving != mine || state.running >= self.workers {
            state = P::wait(&self.freed, state);
        }
        state.now_serving += 1;
        state.running += 1;
        drop(state);
        // The waiter behind this one may have been woken while it was
        // not yet at the head and gone back to sleep; if a second slot
        // is free it must hear that it now is.
        P::notify_all(&self.freed);
        Some(Permit { gate: self })
    }
}

/// One of the gate's `workers` slots, given back on drop — so also when
/// the work it covers unwinds.
pub struct Permit<'a, P: Primitives = Std> {
    gate: &'a Gate<P>,
}

impl<P: Primitives> Drop for Permit<'_, P> {
    fn drop(&mut self) {
        P::lock(&self.gate.state).running -= 1;
        // Every waiter, not one: only the head of the line may take the
        // slot, and a single wakeup can land on somebody behind it.
        P::notify_all(&self.gate.freed);
    }
}

/// Single-flight fills of a cache: of the callers that miss on one key
/// at the same time, one computes and the others wait for its entry.
///
/// The cache itself stays with the caller, who hands in how to probe it
/// and how to insert into it. Probes run under the in-flight lock, and a
/// computer inserts before it releases its claim, so a caller that finds
/// the key neither cached nor claimed may compute it. (Lock order is
/// in-flight set, then the caller's cache; the insert holds only the
/// cache, so there is no inversion.)
pub struct SingleFlight<K, P: Primitives = Std> {
    /// Keys some caller is computing right now.
    inflight: P::Mutex<HashSet<K>>,
    /// Signalled whenever a claim is released.
    done: P::Condvar,
}

impl<K, P: Primitives> std::fmt::Debug for SingleFlight<K, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SingleFlight").finish_non_exhaustive()
    }
}

impl<K, P: Primitives> Default for SingleFlight<K, P> {
    /// No key in flight.
    fn default() -> SingleFlight<K, P> {
        SingleFlight {
            inflight: HashSet::new().into(),
            done: Default::default(),
        }
    }
}

/// The right to compute one key, released on drop — also while
/// unwinding from a panicking compute, or every waiter on the key would
/// sleep forever.
struct Claim<'a, K: Eq + Hash, P: Primitives> {
    flight: &'a SingleFlight<K, P>,
    key: &'a K,
}

impl<K: Eq + Hash, P: Primitives> Drop for Claim<'_, K, P> {
    fn drop(&mut self) {
        P::lock(&self.flight.inflight).remove(self.key);
        P::notify_all(&self.flight.done);
    }
}

impl<K: Eq + Hash + Clone, P: Primitives> SingleFlight<K, P> {
    /// The probed value, or the computed one. A caller that misses while
    /// another computes the key waits for it and probes again; one that
    /// misses while nobody does claims the key, runs `compute` outside
    /// every lock — a slow compute serializes neither the cache nor
    /// unrelated keys — and `insert`s an `Ok` value before releasing the
    /// claim, so a woken waiter's probe finds it.
    pub fn get_or_compute<V, E>(
        &self,
        key: &K,
        mut probe: impl FnMut() -> Option<V>,
        compute: impl FnOnce() -> Result<V, E>,
        insert: impl FnOnce(&V),
    ) -> Result<V, E> {
        let mut inflight = P::lock(&self.inflight);
        let claim = loop {
            if let Some(hit) = probe() {
                return Ok(hit);
            }
            if !inflight.contains(key) {
                inflight.insert(key.clone());
                break Claim { flight: self, key };
            }
            inflight = P::wait(&self.done, inflight);
        };
        drop(inflight);
        let result = compute();
        if let Ok(value) = &result {
            insert(value);
        }
        drop(claim);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{AssertUnwindSafe, catch_unwind};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex, RwLock};
    use std::time::{Duration, Instant};

    #[test]
    fn lock_unpoisoned_recovers_a_poisoned_mutex() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.lock().is_err(), "mutex should be poisoned");
        assert_eq!(*lock_unpoisoned(&m), 7);
        *lock_unpoisoned(&m) = 8;
        assert_eq!(*lock_unpoisoned(&m), 8);
    }

    #[test]
    fn rwlock_helpers_recover_a_poisoned_rwlock() {
        let l = Arc::new(RwLock::new(1u32));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write().unwrap();
            panic!("poison it");
        })
        .join();
        assert_eq!(*read_unpoisoned(&l), 1);
        *write_unpoisoned(&l) = 2;
        assert_eq!(*read_unpoisoned(&l), 2);
    }

    #[test]
    fn wait_unpoisoned_wakes_like_wait() {
        use std::sync::Condvar;
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut flagged = lock_unpoisoned(m);
            while !*flagged {
                flagged = wait_unpoisoned(cv, flagged);
            }
        });
        {
            let (m, cv) = &*pair;
            *lock_unpoisoned(m) = true;
            cv.notify_all();
        }
        t.join().unwrap();
    }

    /// Spins until `done` holds; a gate that never gets there fails the
    /// test instead of hanging it.
    fn wait_until(done: impl Fn() -> bool) {
        let started = Instant::now();
        while !done() {
            assert!(started.elapsed() < Duration::from_secs(10), "timed out");
            std::thread::yield_now();
        }
    }

    #[test]
    fn gate_never_lets_more_than_workers_inside() {
        // Properties of the gate, not of the host's scheduling: every
        // attempt is answered one way or the other, no more than
        // `workers` are ever inside, and a thread that keeps asking gets
        // in — a refused `enter` returns rather than blocks, so the retry
        // loop ends once the others let go.
        let gate: Gate = Gate::new(2, 3);
        let inside = AtomicUsize::new(0);
        let (admitted, refused) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let visit = || {
            assert!(inside.fetch_add(1, Ordering::SeqCst) < 2);
            std::thread::yield_now();
            inside.fetch_sub(1, Ordering::SeqCst);
        };
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let mut mine = 0;
                    for _ in 0..500 {
                        match gate.enter() {
                            Some(_permit) => {
                                mine += 1;
                                visit();
                            }
                            None => {
                                refused.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                    }
                    admitted.fetch_add(mine, Ordering::SeqCst);
                    while mine == 0 {
                        match gate.enter() {
                            Some(_permit) => {
                                mine += 1;
                                visit();
                            }
                            None => std::thread::yield_now(),
                        }
                    }
                });
            }
        });
        assert_eq!(
            admitted.load(Ordering::SeqCst) + refused.load(Ordering::SeqCst),
            8 * 500
        );
        assert_eq!(gate.running(), 0);
        assert_eq!(gate.waiting(), 0);
    }

    #[test]
    fn gate_holds_queue_capacity_waiters_in_ticket_order_and_refuses_the_next() {
        let gate: Gate = Gate::new(1, 3);
        let order = Mutex::new(Vec::new());
        let held = gate.enter().expect("an idle gate admits");
        std::thread::scope(|scope| {
            for i in 0..3 {
                let (gate, order) = (&gate, &order);
                scope.spawn(move || {
                    let _permit = gate.enter().expect("the line has room");
                    lock_unpoisoned(order).push(i);
                });
                // Parked before the next one starts, so ticket order is
                // spawn order.
                wait_until(|| gate.waiting() == i + 1);
            }
            // The line is full: the next caller is refused, and this
            // thread — the only one that could free a slot — got the
            // refusal, so `enter` did not block for it.
            assert!(gate.enter().is_none());
            assert!(lock_unpoisoned(&order).is_empty());
            drop(held);
        });
        assert_eq!(*lock_unpoisoned(&order), vec![0, 1, 2]);
    }

    #[test]
    fn a_panic_inside_a_permit_gives_the_slot_back() {
        let gate: Gate = Gate::new(2, 2);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        let _permit = gate.enter().expect("2 + 2 holds four callers");
                        panic!("search blew up");
                    }));
                    assert!(outcome.is_err());
                });
            }
        });
        assert_eq!(gate.running(), 0);
        assert_eq!(gate.waiting(), 0);
        let both: Vec<_> = (0..2).map(|_| gate.enter()).collect();
        assert!(both.iter().all(Option::is_some), "full capacity is back");
    }

    #[test]
    fn a_panicking_compute_releases_its_claim() {
        let flight: Arc<SingleFlight<u32>> = Arc::default();
        let cache = Arc::new(Mutex::new(None::<u64>));
        let fill = |flight: &SingleFlight<u32>, cache: &Mutex<Option<u64>>, value| {
            flight.get_or_compute(
                &7,
                || *lock_unpoisoned(cache),
                || {
                    if value == 0 {
                        panic!("search blew up")
                    } else {
                        Ok::<u64, ()>(value)
                    }
                },
                |v| *lock_unpoisoned(cache) = Some(*v),
            )
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| fill(&flight, &cache, 0)));
        assert!(outcome.is_err());
        // The key is free again: the next caller computes rather than
        // waiting for a computer that is gone.
        let second = {
            let (flight, cache) = (Arc::clone(&flight), Arc::clone(&cache));
            std::thread::spawn(move || fill(&flight, &cache, 42))
        };
        wait_until(|| second.is_finished());
        assert_eq!(second.join().unwrap(), Ok(42));
        assert_eq!(*lock_unpoisoned(&cache), Some(42));
    }
}
