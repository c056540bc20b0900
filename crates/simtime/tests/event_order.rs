//! Event order through `Sim` (DESIGN.md §17).
//!
//! The event loop's one ordering obligation: events run in `(at, seq)`
//! order — the earliest instant first, same-instant events in scheduling
//! order — however scheduling, `run_until` and `step` interleave, and
//! also for events a handler schedules at its own instant while it runs.
//! Each random schedule is driven through a `Sim` and a
//! `BTreeSet<(SimTime, seq)>` oracle at once: every handler pops the
//! oracle's head and checks that it is its own key, and `events_pending`
//! is compared with the oracle's size after every event and every step.

use ofc_simtime::{Sim, SimTime};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::Duration;

/// One step of a random schedule.
#[derive(Debug, Clone)]
enum Op {
    /// `schedule_at(now + dt_ns)`; the handler, when it runs, schedules
    /// `at_now` more events at its own instant.
    Schedule { dt_ns: u64, at_now: u8 },
    /// `run_until(now + dt_ns)`.
    RunUntil { dt_ns: u64 },
    /// `step(n)`.
    Step { n: u64 },
}

/// The oracle and the count of executed events, shared by `run_schedule`
/// and every handler.
#[derive(Default)]
struct Book {
    oracle: BTreeSet<(SimTime, u64)>,
    /// The next `seq` the simulator hands out: one per `schedule_at`.
    next_seq: u64,
    ran: u64,
}

type Shared = Rc<RefCell<Book>>;

/// Schedules one event at `at` on `sim` and enters its key in the oracle.
/// When it runs, the event checks that it is the oracle's head, that the
/// clock reads its instant and that `events_pending` matches the oracle.
fn schedule(sim: &mut Sim, book: &Shared, at: SimTime, at_now: u8) {
    let key = {
        let mut b = book.borrow_mut();
        let key = (at.max(sim.now()), b.next_seq);
        b.next_seq += 1;
        b.oracle.insert(key);
        key
    };
    let book = Rc::clone(book);
    sim.schedule_at(at, move |sim| {
        {
            let mut b = book.borrow_mut();
            assert_eq!(b.oracle.pop_first(), Some(key), "out of (at, seq) order");
            assert_eq!(sim.now(), key.0, "clock is not the event's instant");
            assert_eq!(sim.events_pending(), b.oracle.len());
            b.ran += 1;
        }
        for _ in 0..at_now {
            schedule(sim, &book, sim.now(), 0);
        }
    });
}

/// Drives one schedule through the simulator and the oracle, checking
/// after every step; the tail is drained with `run`.
fn run_schedule(ops: &[Op]) {
    let mut sim = Sim::new(0);
    let book = Shared::default();
    for op in ops {
        let (now, before) = (sim.now(), sim.events_executed());
        match *op {
            Op::Schedule { dt_ns, at_now } => {
                schedule(&mut sim, &book, now + Duration::from_nanos(dt_ns), at_now);
            }
            Op::RunUntil { dt_ns } => {
                let deadline = now + Duration::from_nanos(dt_ns);
                assert_eq!(sim.run_until(deadline), sim.events_executed() - before);
                assert_eq!(sim.now(), deadline, "clock left short of the deadline");
                let b = book.borrow();
                assert!(b.oracle.first().is_none_or(|&(at, _)| at > deadline));
            }
            Op::Step { n } => {
                let ran = sim.step(n);
                assert_eq!(ran, sim.events_executed() - before);
                assert!(ran == n || book.borrow().oracle.is_empty());
            }
        }
        assert_eq!(sim.events_executed(), book.borrow().ran);
        assert_eq!(sim.events_pending(), book.borrow().oracle.len());
    }
    sim.run();
    assert_eq!(sim.events_pending(), 0);
    assert!(book.borrow().oracle.is_empty());
    assert_eq!(sim.events_executed(), book.borrow().ran);
    assert_eq!(book.borrow().ran, book.borrow().next_seq);
}

/// Deltas biased toward the interesting cases: exact ties (0), sub-µs,
/// millisecond scale, and far-future jumps. (The vendored `prop_oneof!`
/// has no arm weights; a repeated arm biases.)
fn dt_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(0u64),
        1..1_000u64,
        1..1_000u64,
        1_000_000..10_000_000u64,
        1_000_000..10_000_000u64,
        (1u64 << 30)..(1u64 << 40),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        dt_strategy().prop_map(|dt_ns| Op::Schedule { dt_ns, at_now: 0 }),
        dt_strategy().prop_map(|dt_ns| Op::Schedule { dt_ns, at_now: 0 }),
        (dt_strategy(), 1..4u8).prop_map(|(dt_ns, at_now)| Op::Schedule { dt_ns, at_now }),
        dt_strategy().prop_map(|dt_ns| Op::RunUntil { dt_ns }),
        (0..4u64).prop_map(|n| Op::Step { n }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random schedules, including handlers that schedule at their own
    /// instant, run in exactly the oracle's `(at, seq)` order.
    #[test]
    fn sim_runs_events_in_oracle_order(
        ops in proptest::collection::vec(op_strategy(), 1..200)
    ) {
        run_schedule(&ops);
    }
}

/// Ties spanning a schedule/step/schedule pattern: an event scheduled at
/// an instant that has already run events still runs after the earlier
/// events left at that instant.
#[test]
fn ties_interleaved_with_pops() {
    const STEP: Op = Op::Step { n: 1 };
    let at = |dt_ns| Op::Schedule { dt_ns, at_now: 0 };
    run_schedule(&[at(0), at(0), STEP, at(0), at(1 << 21), STEP, STEP, STEP]);
}
