//! Property tests pinning [`OfcPolicy`] to the pre-refactor behavior.
//!
//! The policy-plane refactor (DESIGN.md §15) moved every cache decision —
//! admission, eviction, capacity — behind the `CachePolicy` trait. These
//! tests assert the default policy still computes exactly what the old
//! inline code did, on randomized inputs and random cluster schedules, so
//! a behavioral drift shows up here even before the golden byte-diffs.

use ofc_core::ml::Prediction;
use ofc_core::policy::{CachePolicy, CapacityTelemetry, EvictView, OfcPolicy, PredictionCtx};
use ofc_faas::{FunctionId, TenantId};
use ofc_rcstore::cluster::Cluster;
use ofc_rcstore::{ClusterConfig, Key, Value};
use ofc_simtime::SimTime;
use proptest::prelude::*;
use std::time::Duration;

const GRACE: Duration = Duration::from_secs(300);
const IDLE: Duration = Duration::from_secs(1800);
const MIN_ACCESS: u64 = 5;

proptest! {
    /// Admission: the old scheduler cached unless a mature benefit model
    /// said not to (`prediction.map_or(true, |p| p.should_cache)`), with
    /// no size cap or chunking intent of its own.
    #[test]
    fn admission_matches_pre_refactor_rule(
        has_prediction in any::<bool>(),
        should_cache in any::<bool>(),
        booked in 0u64..=(4 << 30),
    ) {
        let tenant = TenantId::from("t");
        let function = FunctionId::from("f");
        let prediction = Prediction {
            mem_bytes: None,
            raw_interval: None,
            should_cache,
        };
        let ctx = PredictionCtx {
            tenant: &tenant,
            function: &function,
            booked_mem: booked,
            prediction: has_prediction.then_some(&prediction),
        };
        let a = OfcPolicy::new().admit(&ctx);
        prop_assert_eq!(a.cache, !has_prediction || should_cache);
        prop_assert_eq!(a.byte_limit, u64::MAX);
        prop_assert!(!a.chunk_large);
    }

    /// Capacity: the §6.4 slack formula, `clamp(churn_mean × factor, min,
    /// max)`, holding the current slack before the first churn sample.
    #[test]
    fn capacity_matches_pre_refactor_formula(
        has_churn in any::<bool>(),
        churn_val in 0.0f64..1e12,
        current in 0u64..=(1 << 30),
        min_mb in 1u64..=128,
        span_mb in 0u64..=1024,
        factor in 0.5f64..4.0,
        hits in (any::<u32>(), any::<u32>(), any::<u32>()),
    ) {
        let churn = has_churn.then_some(churn_val);
        let (local, remote, misses) = hits;
        let slack_min = min_mb << 20;
        let slack_max = (min_mb + span_mb) << 20;
        let t = CapacityTelemetry {
            node: 0,
            churn_mean: churn,
            current_slack: current,
            slack_min,
            slack_max,
            slack_factor: factor,
            local_hits: u64::from(local),
            remote_hits: u64::from(remote),
            misses: u64::from(misses),
        };
        let got = OfcPolicy::new().target_capacity(&t);
        let want = match churn {
            Some(mean) => ((mean * factor) as u64).clamp(slack_min, slack_max),
            None => current,
        };
        prop_assert_eq!(got, want);
    }

    /// Eviction: on a random (time-sorted) schedule of writes and touch
    /// reads, the default policy's indexed victim selection returns
    /// exactly the §6.3 set — cold (`n_access < 5` after the grace
    /// period) or stale (idle ≥ 30 min) masters, key-sorted — that the
    /// pre-refactor janitor computed.
    #[test]
    fn eviction_matches_pre_refactor_rule_on_random_schedules(
        raw_ops in proptest::collection::vec(
            (0u8..3, 0u64..32, 1u64..(2 << 20), 0u64..3600),
            1..80,
        ),
        extra_s in 0u64..7200,
    ) {
        let mut ops = raw_ops;
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 4,
            replication_factor: 2,
            node_pool_bytes: 1 << 30,
            max_object_bytes: 10 << 20,
            ..ClusterConfig::default()
        });
        // The simulation only moves forward; replay the schedule in time
        // order (stable: equal timestamps keep their generated order).
        ops.sort_by_key(|&(_, _, _, at_s)| at_s);
        for (op, k, size, at_s) in ops {
            let key = Key::from(format!("k{k}"));
            let node = (k % 4) as usize;
            let at = SimTime::from_secs(at_s);
            match op {
                0 | 1 => {
                    let _ = cluster.write_with_dirty(
                        node,
                        &key,
                        Value::synthetic(size),
                        at,
                        op == 1,
                    );
                }
                _ => {
                    let _ = cluster.read(node, &key, at);
                }
            }
        }

        let now = SimTime::from_secs(3600 + extra_s);
        let view = EvictView::new(&cluster, now, GRACE, IDLE);
        let got = OfcPolicy::new().select_victims(&view, 0);

        // Reference: the pre-refactor janitor's exhaustive sweep.
        let mut want = Vec::new();
        for node in 0..cluster.n_nodes() {
            for (key, obj) in cluster.node(node).masters() {
                let idle_for = now.saturating_since(obj.stats.t_access);
                let age = now.saturating_since(obj.stats.created);
                let cold = obj.stats.n_access < MIN_ACCESS && age >= GRACE;
                let stale = idle_for >= IDLE;
                if cold || stale {
                    want.push(*key);
                }
            }
        }
        want.sort();
        prop_assert_eq!(got, want);
    }
}
