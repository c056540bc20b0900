//! Property tier for the bucketed calendar queue (DESIGN.md §17).
//!
//! The queue replaced the event loop's global `BinaryHeap`, so its one
//! obligation is *exact* order equivalence: pops come out in `(at, seq)`
//! ascending — including same-instant FIFO by insertion sequence — no
//! matter how pushes, peeks, and pops interleave across bucket
//! boundaries. Each random schedule is driven through the queue and a
//! `BTreeSet<(SimTime, seq)>` oracle simultaneously, comparing `len`,
//! `peek_key`, and every popped `(at, seq, item)` triple after each step.

use ofc_simtime::calendar::CalendarQueue;
use ofc_simtime::SimTime;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One step of a random schedule. Times are expressed as deltas so the
/// generated schedule always respects the queue's contract (pushes never
/// precede the bucket of an already-popped entry; the simulator clamps
/// scheduling to `now`, and so does the driver below).
#[derive(Debug, Clone)]
enum Op {
    /// Push at `now + dt_ns`.
    Push { dt_ns: u64 },
    /// Pop once and advance `now` to the popped timestamp.
    Pop,
    /// Peek without removing.
    Peek,
}

/// Delta distribution deliberately biased toward the queue's edge cases:
/// exact ties (dt = 0), sub-bucket deltas, deltas straddling the 2^20 ns
/// bucket width, and far-future jumps that leapfrog many empty buckets.
/// (The vendored `prop_oneof!` has no arm weights; repeated arms bias.)
fn dt_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(0u64),
        1..(1u64 << 10),
        1..(1u64 << 10),
        (1u64 << 18)..(1u64 << 22),
        (1u64 << 18)..(1u64 << 22),
        (1u64 << 30)..(1u64 << 34),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        dt_strategy().prop_map(|dt_ns| Op::Push { dt_ns }),
        dt_strategy().prop_map(|dt_ns| Op::Push { dt_ns }),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Peek),
    ]
}

/// Drives one schedule through the calendar queue and the ordered-set
/// oracle, checking observable equivalence after every step. Shared by the
/// proptest and the pinned regression replays.
fn run_schedule(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut queue: CalendarQueue<u64> = CalendarQueue::new();
    let mut oracle: BTreeSet<(SimTime, u64)> = BTreeSet::new();
    let mut now = SimTime::ZERO;
    let mut seq = 0u64;

    for op in ops {
        match *op {
            Op::Push { dt_ns } => {
                let at = now + std::time::Duration::from_nanos(dt_ns);
                // The item carries the seq so pop can verify the payload
                // travelled with the right key.
                queue.push(at, seq, seq);
                oracle.insert((at, seq));
                seq += 1;
            }
            Op::Pop => {
                let expect = oracle.pop_first();
                let got = queue.pop();
                match (expect, got) {
                    (None, None) => {}
                    (Some((at, s)), Some((gat, gs, item))) => {
                        prop_assert_eq!((at, s), (gat, gs), "pop key mismatch");
                        prop_assert_eq!(item, s, "pop payload mismatch");
                        now = at;
                    }
                    (e, g) => {
                        return Err(TestCaseError::fail(format!(
                            "pop disagrees: oracle {e:?} vs queue {:?}",
                            g.map(|(a, s, _)| (a, s))
                        )))
                    }
                }
            }
            Op::Peek => {
                prop_assert_eq!(queue.peek_key(), oracle.first().copied(), "peek mismatch");
            }
        }
        prop_assert_eq!(queue.len(), oracle.len(), "len mismatch after {:?}", op);
        prop_assert_eq!(queue.is_empty(), oracle.is_empty());
    }

    // Drain: the tail must come out in exactly oracle order.
    while let Some((at, s)) = oracle.pop_first() {
        let Some((gat, gs, item)) = queue.pop() else {
            return Err(TestCaseError::fail("queue drained before oracle"));
        };
        prop_assert_eq!((at, s), (gat, gs), "drain key mismatch");
        prop_assert_eq!(item, s);
    }
    prop_assert_eq!(queue.pop().map(|(a, s, _)| (a, s)), None);
    prop_assert!(queue.is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random interleavings of push/pop/peek match the ordered-set
    /// oracle observation-for-observation.
    #[test]
    fn calendar_queue_matches_btreeset_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..200)
    ) {
        run_schedule(&ops)?;
    }

    /// All-ties stress: every push lands at the same instant, so pop order
    /// degenerates to pure insertion-sequence FIFO.
    #[test]
    fn same_instant_pops_are_fifo(n in 1usize..64) {
        let ops: Vec<Op> = (0..n).map(|_| Op::Push { dt_ns: 0 }).collect();
        run_schedule(&ops)?;
    }
}

/// Pinned replays of schedules that exercised past trouble spots; kept as
/// named deterministic cases so a shrinker regression can never lose them.
mod regressions {
    use super::*;

    /// Empty-queue re-anchor: drain completely, then push into a much
    /// earlier bucket index than the drained one would suggest is "past".
    #[test]
    fn reanchor_after_full_drain() {
        let ops = [
            Op::Push { dt_ns: 1 << 33 },
            Op::Pop,
            Op::Push { dt_ns: 5 },
            Op::Peek,
            Op::Pop,
            Op::Pop,
        ];
        run_schedule(&ops).unwrap();
    }

    /// Ties spanning a push/pop/push pattern: later pushes at the already
    /// popped instant must still pop after earlier-seq survivors.
    #[test]
    fn ties_interleaved_with_pops() {
        let ops = [
            Op::Push { dt_ns: 0 },
            Op::Push { dt_ns: 0 },
            Op::Pop,
            Op::Push { dt_ns: 0 },
            Op::Push { dt_ns: 1 << 21 },
            Op::Pop,
            Op::Pop,
            Op::Pop,
        ];
        run_schedule(&ops).unwrap();
    }
}
