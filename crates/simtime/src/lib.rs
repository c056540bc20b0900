//! Deterministic discrete-event simulation (DES) substrate for the OFC
//! reproduction.
//!
//! The paper evaluates OFC on a six-machine testbed; we reproduce the
//! evaluation on a virtual cluster driven by this engine. The engine provides:
//!
//! * [`SimTime`] — a nanosecond-resolution virtual instant,
//! * [`Sim`] — the event loop: a binary heap of scheduled closures plus a
//!   seeded random number generator so every experiment is reproducible
//!   bit-for-bit,
//! * [`stats`] — the sample containers the figures read: exact percentiles
//!   and means ([`stats::Summary`]) and the series behind every telemetry
//!   gauge ([`stats::TimeSeries`]).
//!
//! # Examples
//!
//! ```
//! use ofc_simtime::{Sim, SimTime};
//! use std::cell::Cell;
//! use std::rc::Rc;
//!
//! let mut sim = Sim::new(42);
//! let fired = Rc::new(Cell::new(false));
//! let flag = Rc::clone(&fired);
//! sim.schedule_in(SimTime::from_millis(5).as_duration(), move |sim| {
//!     assert_eq!(sim.now(), SimTime::from_millis(5));
//!     flag.set(true);
//! });
//! sim.run();
//! assert!(fired.get());
//! ```

pub mod stats;

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::fmt;
use std::time::Duration;

/// A virtual instant, counted in nanoseconds since the start of the
/// simulation.
///
/// `SimTime` is totally ordered and cheap to copy; durations are expressed
/// with [`std::time::Duration`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates an instant from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates an instant from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Creates an instant from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid simulated time: {s}");
        SimTime((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds since the simulation origin.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This instant expressed as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This instant reinterpreted as a duration since the origin.
    pub const fn as_duration(self) -> Duration {
        Duration::from_nanos(self.0)
    }

    /// Saturating difference `self - earlier`.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl std::ops::Add<Duration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: Duration) -> SimTime {
        let ns = u64::try_from(rhs.as_nanos()).unwrap_or(u64::MAX);
        SimTime(self.0.saturating_add(ns))
    }
}

impl std::ops::AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl std::ops::Sub<SimTime> for SimTime {
    type Output = Duration;

    fn sub(self, rhs: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

/// An event scheduled on the simulator: a one-shot closure run at a virtual
/// instant.
type Event = Box<dyn FnOnce(&mut Sim)>;

/// A pending event with its key: the instant it runs at and its scheduling
/// sequence number, unique for the simulator's lifetime.
struct Scheduled {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    /// Reversed `(at, seq)`, so the max-heap pops the earliest event first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The discrete-event simulator: a virtual clock plus a binary heap of
/// pending events.
///
/// Events are closures receiving `&mut Sim`, so handlers can schedule further
/// events and draw from the simulation RNG. The heap pops in `(at, seq)`
/// order: the earliest instant first, and two events scheduled for the same
/// instant in scheduling order, which makes runs deterministic for a given
/// seed.
pub struct Sim {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Scheduled>,
    rng: ChaCha8Rng,
    executed: u64,
}

impl Sim {
    /// Creates a simulator whose RNG is seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            rng: ChaCha8Rng::seed_from_u64(seed),
            executed: 0,
        }
    }

    /// The current virtual instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The seeded random number generator backing this simulation.
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        &mut self.rng
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
    pub fn events_pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` to run at the absolute instant `at`.
    ///
    /// Events scheduled in the past run at the current instant (time never
    /// flows backwards).
    pub fn schedule_at(&mut self, at: SimTime, event: impl FnOnce(&mut Sim) + 'static) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled {
            at,
            seq,
            event: Box::new(event),
        });
    }

    /// Schedules `event` to run `delay` after the current instant.
    pub fn schedule_in(&mut self, delay: Duration, event: impl FnOnce(&mut Sim) + 'static) {
        self.schedule_at(self.now + delay, event);
    }

    /// Runs `f` every `period`, first at `now + period`, forever.
    ///
    /// Each occurrence runs `f` and then queues the next one, so an event
    /// `f` schedules for the next occurrence's instant runs before it.
    pub fn every(&mut self, period: Duration, f: impl FnMut(&mut Sim) + 'static) {
        fn arm<F: FnMut(&mut Sim) + 'static>(sim: &mut Sim, period: Duration, mut f: F) {
            sim.schedule_in(period, move |sim| {
                f(sim);
                arm(sim, period, f);
            });
        }
        arm(self, period, f);
    }

    /// Runs events until the queue drains; returns the number of events run.
    pub fn run(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    /// Runs events with timestamps `<= deadline`, then advances the clock to
    /// `deadline` if any events remain beyond it.
    ///
    /// Returns the number of events executed by this call.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let before = self.executed;
        loop {
            let Some(head) = self.queue.peek_mut() else {
                break;
            };
            if head.at > deadline {
                break;
            }
            let Scheduled { at, event, .. } = PeekMut::pop(head);
            debug_assert!(at >= self.now, "event scheduled in the past");
            self.now = at;
            self.executed += 1;
            event(self);
        }
        if deadline != SimTime::MAX && deadline > self.now {
            self.now = deadline;
        }
        self.executed - before
    }

    /// Runs at most `n` further events; returns how many actually ran.
    pub fn step(&mut self, n: u64) -> u64 {
        let before = self.executed;
        for _ in 0..n {
            match self.queue.pop() {
                Some(Scheduled { at, event, .. }) => {
                    self.now = self.now.max(at);
                    self.executed += 1;
                    event(self);
                }
                None => break,
            }
        }
        self.executed - before
    }
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("executed", &self.executed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn simtime_conversions_round_trip() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimTime::from_secs_f64(0.5), SimTime::from_millis(500));
        assert!((SimTime::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn simtime_arithmetic() {
        let t = SimTime::from_millis(10) + Duration::from_millis(5);
        assert_eq!(t, SimTime::from_millis(15));
        assert_eq!(t - SimTime::from_millis(10), Duration::from_millis(5));
        // Saturating: subtracting a later instant yields zero.
        assert_eq!(
            SimTime::from_millis(1) - SimTime::from_millis(9),
            Duration::ZERO
        );
        // Saturating: a duration past u64 nanoseconds is "never", not a
        // truncated instant.
        assert_eq!(SimTime::ZERO + Duration::from_secs(1 << 40), SimTime::MAX);
        assert_eq!(SimTime::from_secs(1) + Duration::MAX, SimTime::MAX);
    }

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Sim::new(0);
        let order = Rc::new(RefCell::new(Vec::new()));
        for (delay_ms, tag) in [(30u64, 'c'), (10, 'a'), (20, 'b')] {
            let order = Rc::clone(&order);
            sim.schedule_in(Duration::from_millis(delay_ms), move |_| {
                order.borrow_mut().push(tag);
            });
        }
        assert_eq!(sim.run(), 3);
        assert_eq!(*order.borrow(), vec!['a', 'b', 'c']);
    }

    #[test]
    fn same_instant_events_run_in_scheduling_order() {
        let mut sim = Sim::new(0);
        let order = Rc::new(RefCell::new(Vec::new()));
        for tag in 0..16 {
            let order = Rc::clone(&order);
            sim.schedule_at(SimTime::from_millis(5), move |_| {
                order.borrow_mut().push(tag);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        let mut sim = Sim::new(0);
        let hits = Rc::new(RefCell::new(0u32));
        fn tick(sim: &mut Sim, hits: Rc<RefCell<u32>>, remaining: u32) {
            *hits.borrow_mut() += 1;
            if remaining > 0 {
                sim.schedule_in(Duration::from_secs(1), move |sim| {
                    tick(sim, hits, remaining - 1)
                });
            }
        }
        let h = Rc::clone(&hits);
        sim.schedule_at(SimTime::ZERO, move |sim| tick(sim, h, 9));
        sim.run();
        assert_eq!(*hits.borrow(), 10);
        assert_eq!(sim.now(), SimTime::from_secs(9));
    }

    #[test]
    fn every_runs_the_body_before_queueing_the_next_occurrence() {
        let mut sim = Sim::new(0);
        let order = Rc::new(RefCell::new(Vec::new()));
        let (a, b) = (Rc::clone(&order), Rc::clone(&order));
        let period = Duration::from_secs(10);
        sim.every(period, move |sim| {
            a.borrow_mut().push(("a", sim.now().as_secs_f64()));
            // A one-shot at the next tick's instant was queued first.
            let a = Rc::clone(&a);
            sim.schedule_in(period, move |sim| {
                a.borrow_mut().push(("one-shot", sim.now().as_secs_f64()));
            });
        });
        // Same period, started second: stays second at every instant.
        sim.every(period, move |sim| {
            b.borrow_mut().push(("b", sim.now().as_secs_f64()));
        });
        sim.run_until(SimTime::from_secs(25));
        assert_eq!(
            *order.borrow(),
            [
                ("a", 10.0),
                ("b", 10.0),
                ("one-shot", 20.0),
                ("a", 20.0),
                ("b", 20.0),
            ]
        );
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut sim = Sim::new(0);
        let count = Rc::new(RefCell::new(0u32));
        for s in 1..=10u64 {
            let count = Rc::clone(&count);
            sim.schedule_at(SimTime::from_secs(s), move |_| *count.borrow_mut() += 1);
        }
        let ran = sim.run_until(SimTime::from_secs(4));
        assert_eq!(ran, 4);
        assert_eq!(sim.now(), SimTime::from_secs(4));
        assert_eq!(sim.events_pending(), 6);
        sim.run();
        assert_eq!(*count.borrow(), 10);
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut sim = Sim::new(0);
        sim.schedule_at(SimTime::from_secs(5), |sim| {
            // Scheduling for an instant already in the past must not rewind.
            sim.schedule_at(SimTime::from_secs(1), |sim| {
                assert_eq!(sim.now(), SimTime::from_secs(5));
            });
        });
        sim.run();
    }

    #[test]
    fn deterministic_rng_per_seed() {
        use rand::Rng;
        let draw = |seed| {
            let mut sim = Sim::new(seed);
            let v: u64 = sim.rng().gen();
            v
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn step_limits_execution() {
        let mut sim = Sim::new(0);
        for s in 0..5u64 {
            sim.schedule_at(SimTime::from_secs(s), |_| {});
        }
        assert_eq!(sim.step(2), 2);
        assert_eq!(sim.events_pending(), 3);
        assert_eq!(sim.step(100), 3);
    }
}
