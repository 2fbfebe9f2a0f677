//! Acceptance tests for the interleaving explorer and the four protocol
//! models: each good model explores ≥1000 distinct schedules
//! deterministically and passes; each broken variant is caught. The
//! pool and prefetch miniatures plant their bugs with `Bug`; the
//! single-flight and admission-gate models run the production
//! `divtopk_core::sync` types, so their bugs are planted here — as
//! facade mutants (`Primitives` with a broken `notify_all`) or as small
//! mutants of the protocol's own logic.

use divtopk_core::sync::{Gate, Primitives, SingleFlight};
use divtopk_lint::models::{self, Admission, Bug, GateShape};
use divtopk_lint::sched::{
    Explorer, FailureKind, Sim, SimAtomicBool, SimCondvar, SimMutex, SimMutexGuard, spawn,
};
use std::convert::Infallible;
use std::sync::Arc;
use std::sync::atomic::Ordering;

fn explorer() -> Explorer {
    Explorer {
        max_schedules: 4096,
        max_preemptions: 2,
        max_steps: 10_000,
    }
}

/// The prefetch model's interesting schedules need more context switches
/// (park → pop → re-spawn); same bound the `lint --models` CLI uses.
fn deep_explorer() -> Explorer {
    Explorer {
        max_preemptions: 4,
        ..explorer()
    }
}

// ---------------------------------------------------------- the explorer

#[test]
fn explorer_finds_a_textbook_lost_wakeup() {
    // The minimal broken protocol: flag + condvar, but the signaller
    // does not hold the mutex across the flag store, and the waiter's
    // check and wait are separated by a yield — the explorer must find
    // the schedule where the notify lands in between.
    let result = explorer().explore(|| {
        let m = Arc::new((
            SimMutex::new(()),
            SimCondvar::new(),
            SimAtomicBool::new(false),
        ));
        let m2 = Arc::clone(&m);
        let t = spawn(move || {
            let (lock, cv, flag) = &*m2;
            if !flag.load(Ordering::SeqCst) {
                let guard = lock.lock();
                // BUG: no re-check under the lock before waiting.
                drop(cv.wait(guard));
            }
        });
        let (_, cv, flag) = &*m;
        flag.store(true, Ordering::SeqCst);
        cv.notify_one();
        t.join();
    });
    let failure = result.expect_err("lost wakeup must be found");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock { .. }),
        "expected deadlock, got {:?}",
        failure.kind
    );
}

#[test]
fn explorer_passes_the_corrected_handshake() {
    // Same protocol with both protections: store under the mutex and
    // re-check under the mutex before waiting. No schedule deadlocks.
    let report = explorer()
        .explore(|| {
            let m = Arc::new((SimMutex::new(false), SimCondvar::new()));
            let m2 = Arc::clone(&m);
            let t = spawn(move || {
                let (lock, cv) = &*m2;
                let mut flag = lock.lock();
                while !*flag {
                    flag = cv.wait(flag);
                }
            });
            let (lock, cv) = &*m;
            *lock.lock() = true;
            cv.notify_one();
            t.join();
        })
        .expect("corrected handshake must pass every schedule");
    assert!(report.exhausted, "small model should exhaust its space");
    assert!(report.schedules > 1, "must explore more than one schedule");
}

#[test]
fn exploration_is_deterministic() {
    let run = || {
        explorer()
            .explore(|| {
                let m = Arc::new(SimMutex::new(0u32));
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        let m = Arc::clone(&m);
                        spawn(move || *m.lock() += 1)
                    })
                    .collect();
                for h in handles {
                    h.join();
                }
                assert!(*m.lock() == 2);
            })
            .expect("trivial counter model passes")
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "two runs must produce identical reports");
    assert_eq!(a.fingerprint, b.fingerprint);
}

// ------------------------------------------------------------ the models

#[test]
fn pool_handshake_good_explores_1000_schedules() {
    let report = models::pool_handshake(&explorer(), 2, 2, Bug::None)
        .expect("pool handshake must pass every schedule");
    assert!(
        report.schedules >= 1000,
        "coverage floor: {} schedules",
        report.schedules
    );
}

#[test]
fn pool_handshake_is_deterministic() {
    let e = Explorer {
        max_schedules: 1500,
        ..explorer()
    };
    let a = models::pool_handshake(&e, 2, 2, Bug::None).expect("passes");
    let b = models::pool_handshake(&e, 2, 2, Bug::None).expect("passes");
    assert_eq!(a, b);
}

#[test]
fn pool_handshake_without_signal_serialization_deadlocks() {
    let failure = models::pool_handshake(&explorer(), 1, 1, Bug::PoolSkipSignalSerialization)
        .expect_err("dropping the signal serialization must lose a wakeup");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock { .. }),
        "expected deadlock, got {:?}",
        failure.kind
    );
}

#[test]
fn prefetch_pump_good_explores_1000_schedules() {
    let report = models::prefetch_pump(&deep_explorer(), 1, 4, Bug::None)
        .expect("prefetch pump must pass every schedule");
    assert!(
        report.schedules >= 1000,
        "coverage floor: {} schedules",
        report.schedules
    );
    assert!(
        report.exhausted,
        "this config is sized to exhaust its bounded space"
    );
}

#[test]
fn prefetch_pump_is_deterministic() {
    let a = models::prefetch_pump(&deep_explorer(), 1, 4, Bug::None).expect("passes");
    let b = models::prefetch_pump(&deep_explorer(), 1, 4, Bug::None).expect("passes");
    assert_eq!(a, b);
}

#[test]
fn prefetch_pump_without_respawn_deadlocks() {
    let failure = models::prefetch_pump(&deep_explorer(), 1, 3, Bug::PrefetchNoRespawn)
        .expect_err("a consumer that never re-spawns must starve");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock { .. }),
        "expected deadlock, got {:?}",
        failure.kind
    );
}

#[test]
fn prefetch_pump_with_unconditional_respawn_doubles_the_pump() {
    let failure = models::prefetch_pump(&deep_explorer(), 1, 3, Bug::PrefetchDoubleRespawn)
        .expect_err("re-spawning without checking parked must double-pump");
    match failure.kind {
        FailureKind::ModelPanic { message } => {
            assert!(
                message.contains("two pumps on duty"),
                "wrong assertion: {message}"
            );
        }
        other => panic!("expected the two-pumps assertion, got {other:?}"),
    }
}

// ------------------------------------------------------------ the mutants

/// [`Sim`] with a broken `notify_all` — a broken primitive call in
/// whichever production protocol runs on it: `ONE` wakes one waiter,
/// otherwise none.
struct Mutant<const ONE: bool>;
type NotifyOne = Mutant<true>;
type NoNotify = Mutant<false>;

impl<const ONE: bool> Primitives for Mutant<ONE> {
    type Mutex<T> = SimMutex<T>;
    type Guard<'a, T: 'a> = SimMutexGuard<'a, T>;
    type Condvar = SimCondvar;

    fn lock<T>(mutex: &SimMutex<T>) -> Self::Guard<'_, T> {
        Sim::lock(mutex)
    }
    fn wait<'a, T>(condvar: &SimCondvar, guard: Self::Guard<'a, T>) -> Self::Guard<'a, T> {
        Sim::wait(condvar, guard)
    }
    fn notify_all(condvar: &SimCondvar) {
        if ONE {
            condvar.notify_one();
        }
    }
}

/// The computer inserts only after `get_or_compute` has released its
/// claim, so a woken waiter re-misses and recomputes — the order
/// `get_or_compute` keeps by inserting before the release.
fn insert_after_release(
    flight: &SingleFlight<u32, Sim>,
    cache: &SimMutex<Option<u32>>,
    computed: &SimMutex<usize>,
) -> u32 {
    let compute = || {
        *computed.lock() += 1;
        Ok::<u32, Infallible>(42)
    };
    let Ok(value) = flight.get_or_compute(&0, || *cache.lock(), compute, |_| ());
    *cache.lock() = Some(value);
    value
}

/// `Gate` with one permit and no turn check: any waiter takes the free
/// slot (and without the check, tickets have no use).
struct FirstCome(SimMutex<bool>, SimCondvar);

impl Admission for FirstCome {
    fn new(_workers: usize, _queue_capacity: usize) -> FirstCome {
        FirstCome(SimMutex::new(false), SimCondvar::new())
    }

    fn pass(&self, inside: impl FnOnce()) -> bool {
        let mut busy = self.0.lock();
        while *busy {
            busy = self.1.wait(busy);
        }
        *busy = true;
        drop(busy);
        inside();
        *self.0.lock() = false;
        self.1.notify_all();
        true
    }
}

// ------------------------------------------------- the production models

#[test]
fn single_flight_good_explores_1000_schedules() {
    let report = models::single_flight(&explorer(), 3, models::fill::<Sim>)
        .expect("single flight must pass every schedule");
    assert!(
        report.schedules >= 1000,
        "coverage floor: {} schedules",
        report.schedules
    );
}

#[test]
fn single_flight_is_deterministic() {
    let e = Explorer {
        max_schedules: 1500,
        ..explorer()
    };
    let a = models::single_flight(&e, 3, models::fill::<Sim>).expect("passes");
    let b = models::single_flight(&e, 3, models::fill::<Sim>).expect("passes");
    assert_eq!(a, b);
}

#[test]
fn single_flight_with_insert_after_release_recomputes() {
    let failure = models::single_flight(&explorer(), 2, insert_after_release)
        .expect_err("releasing the claim before the insert must recompute");
    match failure.kind {
        FailureKind::ModelPanic { message } => {
            assert!(
                message.contains("computed 2 times"),
                "wrong assertion: {message}"
            );
        }
        other => panic!("expected the recompute assertion, got {other:?}"),
    }
}

#[test]
fn single_flight_with_dropped_notify_deadlocks() {
    let failure = models::single_flight(&explorer(), 2, models::fill::<NoNotify>)
        .expect_err("a dropped notify must strand the waiter");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock { .. }),
        "expected deadlock, got {:?}",
        failure.kind
    );
}

/// One permit held by a slow search until `line` callers wait behind it.
fn gate_with_a_line(line: usize) -> GateShape {
    GateShape {
        workers: 1,
        queue_capacity: line,
        callers: line,
        line_up: true,
    }
}

#[test]
fn admission_gate_good_explores_1000_schedules() {
    let report = models::admission_gate::<Gate<Sim>>(&explorer(), GateShape::RACE)
        .expect("admission gate must pass every schedule");
    assert!(
        report.schedules >= 1000,
        "coverage floor: {} schedules",
        report.schedules
    );
}

#[test]
fn admission_gate_is_deterministic() {
    let e = Explorer {
        max_schedules: 1500,
        ..explorer()
    };
    let a = models::admission_gate::<Gate<Sim>>(&e, GateShape::RACE).expect("passes");
    let b = models::admission_gate::<Gate<Sim>>(&e, GateShape::RACE).expect("passes");
    assert_eq!(a, b);
}

#[test]
fn admission_gate_good_passes_the_shapes_its_bugs_are_caught_on() {
    // Or the two catches below would prove nothing.
    for line in [3, 2] {
        models::admission_gate::<Gate<Sim>>(&explorer(), gate_with_a_line(line))
            .expect("admission gate must pass every schedule");
    }
}

#[test]
fn admission_gate_release_with_notify_one_strands_the_head() {
    // Three waiters: an admission's wakeup reaches the waiter behind the
    // head, which re-queues on the condvar behind the last one, and the
    // next release's single wakeup then lands on that last one.
    let failure = models::admission_gate::<Gate<NotifyOne>>(&explorer(), gate_with_a_line(3))
        .expect_err("a one-waiter wakeup must strand the head of the line");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock { .. }),
        "expected deadlock, got {:?}",
        failure.kind
    );
}

#[test]
fn admission_gate_without_the_turn_check_lets_a_waiter_overtake() {
    let failure = models::admission_gate::<FirstCome>(&explorer(), gate_with_a_line(2))
        .expect_err("a waiter that ignores its turn must overtake");
    match failure.kind {
        FailureKind::ModelPanic { message } => {
            assert!(
                message.contains("admitted ahead of"),
                "wrong assertion: {message}"
            );
        }
        other => panic!("expected the ticket-order assertion, got {other:?}"),
    }
}

// --------------------------------------------------------------- the CLI

#[test]
fn lint_bin_flags_a_seeded_violation_and_passes_a_clean_tree() {
    use std::process::Command;
    let dir = std::env::temp_dir().join(format!("divtopk-lint-fixture-{}", std::process::id()));
    let src = dir.join("crates/engine/src");
    std::fs::create_dir_all(&src).expect("mkdir fixture");
    // Seeded violation: an unwrap in a serving-path module.
    std::fs::write(
        src.join("server.rs"),
        "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    )
    .expect("write fixture");
    let out = Command::new(env!("CARGO_BIN_EXE_lint"))
        .args(["--root", dir.to_str().expect("utf8 tmpdir")])
        .output()
        .expect("run lint bin");
    assert!(!out.status.success(), "seeded violation must exit nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/engine/src/server.rs:2") && stdout.contains("[panic]"),
        "diagnostic names file, line, and rule: {stdout}"
    );
    // Fix the file: the same tree must now pass with exit 0.
    std::fs::write(
        src.join("server.rs"),
        "fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0)\n}\n",
    )
    .expect("rewrite fixture");
    let out = Command::new(env!("CARGO_BIN_EXE_lint"))
        .args(["--root", dir.to_str().expect("utf8 tmpdir")])
        .output()
        .expect("run lint bin");
    assert!(out.status.success(), "clean tree must exit zero");
    std::fs::remove_dir_all(&dir).ok();
}
