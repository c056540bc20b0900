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
//! * **Half-open** — after the cool-down, a limited number of probe
//!   operations are let through; enough successes re-close the breaker,
//!   any failure re-opens it.
//!
//! State transitions are exported on the `plane.breaker_state` gauge
//! (0 = closed, 1 = half-open, 2 = open) so dashboards and the chaos
//! bench can chart degradation windows.

use ofc_simtime::SimTime;
use ofc_telemetry::{Gauge, Telemetry};
use std::time::Duration;

/// Breaker tunables.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before probing.
    pub open_for: Duration,
    /// Probe successes required to close again from half-open.
    pub half_open_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            open_for: Duration::from_secs(30),
            half_open_successes: 1,
        }
    }
}

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
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    probe_successes: u32,
    opened_at: SimTime,
    gauge: Gauge,
}

impl CircuitBreaker {
    /// A closed breaker recording its state on `telemetry`.
    pub fn new(cfg: BreakerConfig, telemetry: &Telemetry) -> Self {
        let gauge = telemetry.gauge("plane.breaker_state");
        gauge.set(SimTime::ZERO, BreakerState::Closed.gauge_value());
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            probe_successes: 0,
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
                if now.saturating_since(self.opened_at) >= self.cfg.open_for {
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
            BreakerState::HalfOpen => {
                self.probe_successes += 1;
                if self.probe_successes >= self.cfg.half_open_successes {
                    self.transition(BreakerState::Closed, now);
                }
            }
            BreakerState::Open => {}
        }
    }

    /// Records a failed (transient) store operation.
    pub fn record_failure(&mut self, now: SimTime) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.cfg.failure_threshold {
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
        self.probe_successes = 0;
        if to == BreakerState::Open {
            self.opened_at = now;
        }
        self.gauge.set(now, to.gauge_value());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(t: &Telemetry) -> CircuitBreaker {
        CircuitBreaker::new(
            BreakerConfig {
                failure_threshold: 3,
                open_for: Duration::from_secs(10),
                half_open_successes: 2,
            },
            t,
        )
    }

    #[test]
    fn trips_after_consecutive_failures() {
        let t = Telemetry::standalone();
        let mut b = breaker(&t);
        let now = SimTime::ZERO;
        b.record_failure(now);
        b.record_failure(now);
        assert_eq!(b.state(), BreakerState::Closed);
        // A success resets the streak.
        b.record_success(now);
        b.record_failure(now);
        b.record_failure(now);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(now);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(now));
        assert_eq!(t.metrics().gauge("plane.breaker_state"), Some(2.0));
    }

    #[test]
    fn cooldown_then_probe_then_close() {
        let t = Telemetry::standalone();
        let mut b = breaker(&t);
        for _ in 0..3 {
            b.record_failure(SimTime::ZERO);
        }
        assert!(!b.allow(SimTime::from_secs(5)), "still cooling down");
        assert!(b.allow(SimTime::from_secs(10)), "probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success(SimTime::from_secs(10));
        assert_eq!(b.state(), BreakerState::HalfOpen, "needs 2 successes");
        b.record_success(SimTime::from_secs(11));
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(t.metrics().gauge("plane.breaker_state"), Some(0.0));
    }

    #[test]
    fn failed_probe_reopens() {
        let t = Telemetry::standalone();
        let mut b = breaker(&t);
        for _ in 0..3 {
            b.record_failure(SimTime::ZERO);
        }
        assert!(b.allow(SimTime::from_secs(10)));
        b.record_failure(SimTime::from_secs(10));
        assert_eq!(b.state(), BreakerState::Open);
        // The cool-down restarts from the failed probe.
        assert!(!b.allow(SimTime::from_secs(19)));
        assert!(b.allow(SimTime::from_secs(20)));
    }
}
