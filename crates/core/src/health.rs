//! Cache-plane health monitoring: a circuit breaker between the data
//! plane and the cache store.
//!
//! OFC must never be worse than the vanilla platform (§4's transparency
//! goal). When the cache store starts failing — injected faults, a
//! crashed quorum, a partition — the plane trips a per-plane breaker and
//! serves reads/writes straight from the RSDS until the store proves
//! healthy again. The breaker is the classic three-state machine:
//!
//! * **Closed** — normal operation; consecutive store failures are
//!   counted and trip the breaker at a threshold.
//! * **Open** — every cache access is refused up front (the caller
//!   bypasses to the RSDS) for a cool-down period.
//! * **Half-open** — after the cool-down, probe operations are let
//!   through; one success re-closes the breaker, any failure re-opens it.
//!
//! State transitions are exported on the `plane.breaker_state` gauge
//! (0 = closed, 1 = half-open, 2 = open) so dashboards and the chaos
//! bench can chart degradation windows.

use ofc_simtime::SimTime;
use ofc_telemetry::{Gauge, Telemetry};
use std::time::Duration;

/// Consecutive store failures that trip the breaker open.
pub const BREAKER_FAILURES: u32 = 5;

/// How long a tripped breaker stays open before it admits a probe.
pub const BREAKER_OPEN_FOR: Duration = Duration::from_secs(30);

/// Breaker state (gauge encoding in parentheses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation (0).
    Closed,
    /// Probing after a cool-down (1).
    HalfOpen,
    /// Tripped: all cache accesses bypass (2).
    Open,
}

impl BreakerState {
    fn gauge_value(self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::HalfOpen => 1.0,
            BreakerState::Open => 2.0,
        }
    }
}

/// The circuit breaker guarding cache-store access.
#[derive(Debug)]
pub struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: SimTime,
    gauge: Gauge,
}

impl CircuitBreaker {
    /// A closed breaker recording its state on `telemetry`.
    pub fn new(telemetry: &Telemetry) -> Self {
        let gauge = telemetry.gauge("plane.breaker_state");
        gauge.set(SimTime::ZERO, BreakerState::Closed.gauge_value());
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: SimTime::ZERO,
            gauge,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether a cache access may proceed at `now`. An open breaker
    /// transitions to half-open once the cool-down has elapsed; half-open
    /// admits probes.
    pub fn allow(&mut self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now.saturating_since(self.opened_at) >= BREAKER_OPEN_FOR {
                    self.transition(BreakerState::HalfOpen, now);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful store operation.
    pub fn record_success(&mut self, now: SimTime) {
        match self.state {
            BreakerState::Closed => self.consecutive_failures = 0,
            BreakerState::HalfOpen => self.transition(BreakerState::Closed, now),
            BreakerState::Open => {}
        }
    }

    /// Records a failed (transient) store operation.
    pub fn record_failure(&mut self, now: SimTime) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= BREAKER_FAILURES {
                    self.transition(BreakerState::Open, now);
                }
            }
            // A failed probe re-opens for a full cool-down.
            BreakerState::HalfOpen => self.transition(BreakerState::Open, now),
            BreakerState::Open => {}
        }
    }

    fn transition(&mut self, to: BreakerState, now: SimTime) {
        self.state = to;
        self.consecutive_failures = 0;
        if to == BreakerState::Open {
            self.opened_at = now;
        }
        self.gauge.set(now, to.gauge_value());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trips a fresh breaker open at `at`.
    fn trip(b: &mut CircuitBreaker, at: SimTime) {
        for _ in 0..BREAKER_FAILURES {
            b.record_failure(at);
        }
    }

    #[test]
    fn trips_after_consecutive_failures() {
        let t = Telemetry::new();
        let mut b = CircuitBreaker::new(&t);
        let now = SimTime::ZERO;
        for _ in 1..BREAKER_FAILURES {
            b.record_failure(now);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        // A success resets the streak.
        b.record_success(now);
        for _ in 1..BREAKER_FAILURES {
            b.record_failure(now);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(now);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(now));
        assert_eq!(t.metrics().gauge("plane.breaker_state"), Some(2.0));
    }

    #[test]
    fn cooldown_then_probe_then_close() {
        let t = Telemetry::new();
        let mut b = CircuitBreaker::new(&t);
        trip(&mut b, SimTime::ZERO);
        assert!(!b.allow(SimTime::from_secs(29)), "still cooling down");
        assert!(b.allow(SimTime::from_secs(30)), "probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(t.metrics().gauge("plane.breaker_state"), Some(1.0));
        b.record_success(SimTime::from_secs(30));
        assert_eq!(b.state(), BreakerState::Closed, "one probe closes");
        assert_eq!(t.metrics().gauge("plane.breaker_state"), Some(0.0));
    }

    #[test]
    fn failed_probe_reopens() {
        let t = Telemetry::new();
        let mut b = CircuitBreaker::new(&t);
        trip(&mut b, SimTime::ZERO);
        assert!(b.allow(SimTime::from_secs(30)));
        b.record_failure(SimTime::from_secs(30));
        assert_eq!(b.state(), BreakerState::Open);
        // The cool-down restarts from the failed probe.
        assert!(!b.allow(SimTime::from_secs(59)));
        assert!(b.allow(SimTime::from_secs(60)));
    }
}
