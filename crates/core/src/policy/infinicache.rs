//! InfiniCache-style policy (PAPERS.md: *InfiniCache: Exploiting Ephemeral
//! Serverless Functions to Build a Cost-Effective Memory Cache*, Wang et
//! al., FAST '20).
//!
//! InfiniCache stores objects erasure-coded across pools of idle
//! serverless sandboxes: RAM that would sit in keep-alive anyway becomes a
//! pay-per-use cold tier. The reproduction parks the janitor's eviction
//! victims there instead of dropping them outright:
//!
//! * when [`CachePolicy::select_victims`] returns the §6.3 expirable set,
//!   the policy first records each victim in its cold tier (k data + r
//!   parity chunks spread over idle keep-alive sandboxes in `ofc-faas`),
//! * a later RAM miss consults [`CachePolicy::lookup_cold`]: a parked
//!   object restores at the k-lane parallel decode latency and re-enters
//!   the RAM cache,
//! * parked entries expire with the sandbox keep-alive (600 s idle), and
//!   every tick accrues the **sandbox-rental cost model** — the
//!   `(k + r) / k` storage overhead billed at Lambda-style GB-seconds —
//!   surfaced as the `policy.rental_cost` counter (nanodollars).

use super::{Admission, CachePolicy, CapacityTelemetry, ColdHit, EvictView, PrefetchRequest};
use crate::ml::Prediction;
use ofc_faas::{NodeId, TenantId};
use ofc_rcstore::Key;
use ofc_simtime::SimTime;
use ofc_telemetry::{Counter, Gauge, Telemetry};
use std::collections::BTreeMap;
use std::time::Duration;

/// Data chunks per parked object (InfiniCache's default RS(10, 2)).
const EC_DATA: u64 = 10;
/// Parity chunks per parked object.
const EC_PARITY: u64 = 2;
/// Sandbox keep-alive bounding a parked object's life (OWK: 600 s).
const KEEP_ALIVE: Duration = Duration::from_secs(600);
/// Rental rate in nanodollars per GB-second (Lambda-style memory pricing:
/// ~$0.0000166667 per GB-s).
const RENT_NANODOLLARS_PER_GB_S: u128 = 16_667;
/// Fixed restore overhead: sandbox wake + first-byte over the node network.
const RESTORE_OVERHEAD: Duration = Duration::from_micros(1500);
/// Per-lane streaming bandwidth of a restoring sandbox (~100 MB/s).
const LANE_BYTES_PER_SEC: u64 = 100_000_000;

#[derive(Debug, Clone, Copy)]
struct Parked {
    size: u64,
    last_touch: SimTime,
}

/// The InfiniCache rival policy. See the module docs for the mapping.
pub struct InfiniCachePolicy {
    /// Cold tier: parked objects by key (deterministic iteration).
    parked: BTreeMap<Key, Parked>,
    parked_bytes: u64,
    last_accrual: SimTime,
    rental_cost: Counter,
    cold_hits: Counter,
    cold_expiries: Counter,
    parked_gauge: Gauge,
}

impl InfiniCachePolicy {
    /// Builds the policy, recording `policy.*` telemetry.
    pub fn new(telemetry: &Telemetry) -> Self {
        InfiniCachePolicy {
            parked: BTreeMap::new(),
            parked_bytes: 0,
            last_accrual: SimTime::ZERO,
            rental_cost: telemetry.counter("policy.rental_cost"),
            cold_hits: telemetry.counter("policy.cold_hits"),
            cold_expiries: telemetry.counter("policy.cold_expiries"),
            parked_gauge: telemetry.gauge("policy.parked_bytes"),
        }
    }

    /// Erasure-coded restore latency: k lanes stream chunks in parallel.
    fn restore_latency(size: u64) -> Duration {
        let chunk = size.div_ceil(EC_DATA);
        RESTORE_OVERHEAD
            + Duration::from_nanos(chunk.saturating_mul(1_000_000_000) / LANE_BYTES_PER_SEC)
    }

    /// Drops entries idle past the sandbox keep-alive.
    fn expire(&mut self, now: SimTime) {
        let dead: Vec<Key> = self
            .parked
            .iter()
            .filter(|(_, p)| now.saturating_since(p.last_touch) > KEEP_ALIVE)
            .map(|(k, _)| *k)
            .collect();
        for key in dead {
            if let Some(p) = self.parked.remove(&key) {
                self.parked_bytes -= p.size;
                self.cold_expiries.inc();
            }
        }
    }

    /// Accrues sandbox rent since the last accrual: parked bytes times the
    /// `(k + r) / k` storage overhead, billed per GB-second.
    fn accrue_rent(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_accrual);
        self.last_accrual = now;
        if self.parked_bytes == 0 || dt.is_zero() {
            return;
        }
        let stored =
            u128::from(self.parked_bytes) * u128::from(EC_DATA + EC_PARITY) / u128::from(EC_DATA);
        let nanodollars =
            stored * u128::from(dt.as_secs()) * RENT_NANODOLLARS_PER_GB_S / (1u128 << 30);
        self.rental_cost.add(nanodollars as u64);
    }

    /// Parked-object count (tests and the bake-off report).
    pub fn parked_count(&self) -> usize {
        self.parked.len()
    }

    /// Parked bytes, pre-erasure-coding (tests and the bake-off report).
    pub fn parked_bytes(&self) -> u64 {
        self.parked_bytes
    }
}

impl CachePolicy for InfiniCachePolicy {
    fn admit(&mut self, _prediction: Option<&Prediction>) -> Admission {
        // InfiniCache fronts the object store for everything; the RAM tier
        // keeps the plane's size ceiling, the cold tier catches evictions.
        Admission::admit()
    }

    fn select_victims(&mut self, view: &EvictView<'_>) -> Vec<Key> {
        // Park every janitor victim in the cold tier before the agent
        // drops its RAM copy: eviction demotes instead of discarding.
        let victims = view.expirable();
        for key in &victims {
            if let Some(size) = view.size_of(key) {
                let prev = self.parked.insert(
                    *key,
                    Parked {
                        size,
                        last_touch: view.now,
                    },
                );
                self.parked_bytes += size;
                if let Some(p) = prev {
                    self.parked_bytes -= p.size;
                }
            }
        }
        self.parked_gauge.set(view.now, self.parked_bytes as f64);
        victims
    }

    fn target_capacity(&mut self, telemetry: &CapacityTelemetry) -> u64 {
        // RAM sizing follows the §6.4 formula; the cold tier absorbs what
        // the RAM cache sheds, so no extra RAM pressure is applied.
        telemetry.ofc_target()
    }

    fn place(
        &mut self,
        _tenant: &TenantId,
        _n_nodes: usize,
        input_master: Option<NodeId>,
    ) -> Option<NodeId> {
        input_master
    }

    fn lookup_cold(&mut self, key: &Key, now: SimTime) -> Option<ColdHit> {
        let parked = self.parked.remove(key)?;
        self.parked_bytes -= parked.size;
        if now.saturating_since(parked.last_touch) > KEEP_ALIVE {
            // The hosting sandboxes were reclaimed; the copy is gone.
            self.cold_expiries.inc();
            return None;
        }
        self.cold_hits.inc();
        self.parked_gauge.set(now, self.parked_bytes as f64);
        Some(ColdHit {
            latency: Self::restore_latency(parked.size),
        })
    }

    fn tick_every(&self) -> Option<Duration> {
        Some(Duration::from_secs(60))
    }

    fn tick(&mut self, now: SimTime) -> Vec<PrefetchRequest> {
        self.accrue_rent(now);
        self.expire(now);
        self.parked_gauge.set(now, self.parked_bytes as f64);
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> (InfiniCachePolicy, Telemetry) {
        let t = Telemetry::new();
        (InfiniCachePolicy::new(&t), t)
    }

    #[test]
    fn restore_latency_scales_with_size() {
        let small = InfiniCachePolicy::restore_latency(1 << 10);
        let big = InfiniCachePolicy::restore_latency(10 << 20);
        assert!(small >= RESTORE_OVERHEAD);
        assert!(big > small);
        // 10 MB over 10 lanes at 100 MB/s ≈ 10.5 ms + overhead.
        assert!(big < Duration::from_millis(15), "{big:?}");
    }

    #[test]
    fn cold_hit_within_keep_alive_then_gone() {
        let (mut p, t) = policy();
        p.parked.insert(
            Key::from("obj"),
            Parked {
                size: 1 << 20,
                last_touch: SimTime::ZERO,
            },
        );
        p.parked_bytes = 1 << 20;
        let hit = p.lookup_cold(&Key::from("obj"), SimTime::from_secs(30));
        assert!(hit.is_some());
        assert_eq!(p.parked_count(), 0, "restore unparks");
        // A second lookup misses: the object moved back to RAM.
        assert!(p
            .lookup_cold(&Key::from("obj"), SimTime::from_secs(31))
            .is_none());
        assert_eq!(t.metrics().counter("policy.cold_hits"), 1);
    }

    #[test]
    fn parked_objects_expire_with_keep_alive() {
        let (mut p, t) = policy();
        p.parked.insert(
            Key::from("obj"),
            Parked {
                size: 1 << 20,
                last_touch: SimTime::ZERO,
            },
        );
        p.parked_bytes = 1 << 20;
        assert!(p
            .lookup_cold(&Key::from("obj"), SimTime::from_secs(601))
            .is_none());
        assert_eq!(t.metrics().counter("policy.cold_expiries"), 1);
        assert_eq!(p.parked_bytes(), 0);
    }

    #[test]
    fn rent_accrues_per_gb_second() {
        let (mut p, t) = policy();
        p.parked_bytes = 1 << 30; // 1 GB parked
        p.parked.insert(
            Key::from("obj"),
            Parked {
                size: 1 << 30,
                last_touch: SimTime::ZERO,
            },
        );
        p.tick(SimTime::from_secs(100));
        // 1 GB × 1.2 EC overhead × 100 s × 16 667 nd/GB-s ≈ 2 000 040 nd.
        let rent = t.metrics().counter("policy.rental_cost");
        assert!(
            (1_900_000..2_100_000).contains(&rent),
            "rent {rent} out of range"
        );
    }

    #[test]
    fn tick_expires_idle_entries() {
        let (mut p, _t) = policy();
        p.parked.insert(
            Key::from("old"),
            Parked {
                size: 512,
                last_touch: SimTime::ZERO,
            },
        );
        p.parked.insert(
            Key::from("fresh"),
            Parked {
                size: 512,
                last_touch: SimTime::from_secs(650),
            },
        );
        p.parked_bytes = 1024;
        let reqs = p.tick(SimTime::from_secs(700));
        assert!(reqs.is_empty(), "no prefetching in this policy");
        assert_eq!(p.parked_count(), 1);
        assert_eq!(p.parked_bytes(), 512);
    }
}
