//! Faa$T-style policy (PAPERS.md: *Faa$T: A Transparent Auto-Scaling
//! Cache for Serverless Applications*, Romero et al.).
//!
//! Faa$T attaches a cache *instance* to each application, anchored where
//! the application runs, auto-scales it by both working-set **size** and
//! access **bandwidth**, and prefetches objects by access frequency. The
//! reproduction maps those ideas onto the shared cache substrate:
//!
//! * per-application anchoring — [`CachePolicy::place`] routes every
//!   request of a tenant to a deterministic anchor node, so a tenant's
//!   working set masters together (the per-app "cache instance"),
//! * size+bandwidth scaling — [`CachePolicy::target_capacity`] starts
//!   from the churn-based size target and shrinks slack (grows the cache)
//!   under miss pressure, the bandwidth signal,
//! * frequency prefetch — the data plane feeds [`CachePolicy::on_access`];
//!   every tick the hottest tracked objects are re-filled if evicted.
//!
//! Faa$T has no benefit classifier: everything is admitted, and oversized
//! objects are chunked (its large-object path) rather than bypassed.

use super::{Admission, CachePolicy, CapacityTelemetry, EvictView, PrefetchRequest};
use crate::agent::{SLACK_MAX, SLACK_MIN};
use crate::ml::Prediction;
use ofc_faas::{NodeId, TenantId};
use ofc_rcstore::Key;
use ofc_simtime::SimTime;
use ofc_telemetry::{Counter, Telemetry};
use std::collections::BTreeMap;
use std::time::Duration;

/// Cap on tracked objects; the least-frequent entry is displaced first.
const TRACK_CAP: usize = 4096;
/// Objects re-filled per prefetch tick.
const PREFETCH_TOP: usize = 16;
/// Minimum access count before an object is worth prefetching.
const PREFETCH_MIN_COUNT: u64 = 3;

#[derive(Debug, Clone, Copy)]
struct Tracked {
    count: u64,
    size: u64,
    node: NodeId,
}

/// The Faa$T rival policy. See the module docs for the mapping.
pub struct FaastPolicy {
    /// Access-frequency map (deterministic iteration: BTreeMap).
    freq: BTreeMap<Key, Tracked>,
    prefetch_wanted: Counter,
}

impl FaastPolicy {
    /// Builds the policy, recording `policy.*` telemetry.
    pub fn new(telemetry: &Telemetry) -> Self {
        FaastPolicy {
            freq: BTreeMap::new(),
            prefetch_wanted: telemetry.counter("policy.prefetch_wanted"),
        }
    }

    /// Deterministic per-tenant anchor node (FNV-1a over the tenant id).
    fn anchor(tenant: &str, n_nodes: usize) -> NodeId {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in tenant.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        (h % n_nodes.max(1) as u64) as NodeId
    }
}

impl CachePolicy for FaastPolicy {
    fn admit(&mut self, _prediction: Option<&Prediction>) -> Admission {
        // Faa$T caches every application object; large objects chunk.
        Admission {
            cache: true,
            chunk_large: true,
        }
    }

    fn select_victims(&mut self, view: &EvictView<'_>) -> Vec<Key> {
        view.expirable()
    }

    fn target_capacity(&mut self, telemetry: &CapacityTelemetry) -> u64 {
        // Size scaling: the churn-based target. Bandwidth scaling: misses
        // mean remote-store traffic, so shed slack (grow the cache)
        // proportionally to the miss ratio.
        let base = telemetry.ofc_target();
        let scaled = (base as f64 * (1.0 - 0.5 * telemetry.miss_ratio())) as u64;
        scaled.clamp(SLACK_MIN, SLACK_MAX)
    }

    fn place(
        &mut self,
        tenant: &TenantId,
        n_nodes: usize,
        _input_master: Option<NodeId>,
    ) -> Option<NodeId> {
        Some(Self::anchor(tenant, n_nodes))
    }

    fn on_access(&mut self, key: &Key, size: u64, node: NodeId, _hit: bool) {
        if let Some(t) = self.freq.get_mut(key) {
            t.count += 1;
            t.size = size;
            t.node = node;
            return;
        }
        if self.freq.len() >= TRACK_CAP {
            // Displace the least-frequent entry (ties: smallest key) so
            // the map stays bounded and iteration deterministic.
            if let Some(coldest) = self
                .freq
                .iter()
                .min_by_key(|(k, t)| (t.count, *(*k)))
                .map(|(k, _)| *k)
            {
                self.freq.remove(&coldest);
            }
        }
        self.freq.insert(
            *key,
            Tracked {
                count: 1,
                size,
                node,
            },
        );
    }

    fn tick_every(&self) -> Option<Duration> {
        Some(Duration::from_secs(60))
    }

    fn tick(&mut self, _now: SimTime) -> Vec<PrefetchRequest> {
        // Hottest tracked objects, by (count desc, key asc): the runtime
        // re-fills any that were evicted since their last access.
        let mut hot: Vec<(&Key, &Tracked)> = self
            .freq
            .iter()
            .filter(|(_, t)| t.count >= PREFETCH_MIN_COUNT)
            .collect();
        hot.sort_by(|a, b| b.1.count.cmp(&a.1.count).then_with(|| a.0.cmp(b.0)));
        let reqs: Vec<PrefetchRequest> = hot
            .into_iter()
            .take(PREFETCH_TOP)
            .map(|(key, t)| PrefetchRequest {
                key: *key,
                size: t.size,
                node: t.node,
            })
            .collect();
        self.prefetch_wanted.add(reqs.len() as u64);
        reqs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchor_is_stable_and_in_range() {
        for tenant in ["alice", "bob", "carol"] {
            let a = FaastPolicy::anchor(tenant, 4);
            assert_eq!(a, FaastPolicy::anchor(tenant, 4));
            assert!(a < 4);
        }
        assert_eq!(FaastPolicy::anchor("anyone", 1), 0);
    }

    #[test]
    fn place_anchors_by_tenant() {
        let t = Telemetry::new();
        let mut p = FaastPolicy::new(&t);
        let placed = p.place(&TenantId::from("alice"), 4, Some(2));
        // Ignores the input master: the app cache instance wins.
        assert_eq!(placed, Some(FaastPolicy::anchor("alice", 4)));
    }

    #[test]
    fn prefetch_ranks_by_frequency() {
        let t = Telemetry::new();
        let mut p = FaastPolicy::new(&t);
        for (key, n) in [("a", 5u32), ("b", 2), ("c", 9)] {
            for _ in 0..n {
                p.on_access(&Key::from(key), 1024, 0, true);
            }
        }
        let reqs = p.tick(SimTime::ZERO);
        // "b" is under the count floor; "c" outranks "a".
        let keys: Vec<String> = reqs.iter().map(|r| r.key.to_string()).collect();
        assert_eq!(keys, vec!["c".to_string(), "a".to_string()]);
    }

    #[test]
    fn frequency_map_stays_bounded() {
        let t = Telemetry::new();
        let mut p = FaastPolicy::new(&t);
        for i in 0..(TRACK_CAP + 10) {
            p.on_access(&Key::from(format!("k{i:05}")), 1, 0, false);
        }
        assert!(p.freq.len() <= TRACK_CAP);
    }

    #[test]
    fn capacity_shrinks_slack_under_miss_pressure() {
        let t = Telemetry::new();
        let mut p = FaastPolicy::new(&t);
        let base = CapacityTelemetry {
            churn_mean: Some(200.0 * (1 << 20) as f64),
            current_slack: 100 << 20,
            local_hits: 0,
            remote_hits: 0,
            misses: 0,
        };
        let relaxed = p.target_capacity(&base);
        let pressured = p.target_capacity(&CapacityTelemetry {
            local_hits: 10,
            misses: 90,
            ..base
        });
        assert!(pressured < relaxed, "{pressured} !< {relaxed}");
        assert!(pressured >= SLACK_MIN);
    }
}
