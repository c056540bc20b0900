//! Property-based tests of the ML stack and the memory-arbitration
//! invariants.

use ofc::core::agent::{AgentConfig, CacheAgent};
use ofc::core::ml::{MlConfig, MlEngine, Observation};
use ofc::core::policy::OfcPolicy;
use ofc::dtree::data::{AttrKind, Dataset, Value};
use ofc::dtree::hoeffding::{HoeffdingParams, HoeffdingTree};
use ofc::dtree::Classifier;
use ofc::faas::{FunctionId, MemoryBroker, TenantId};
use ofc::rcstore::cluster::Cluster;
use ofc::rcstore::ClusterConfig;
use ofc::simtime::Sim;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

const MB: u64 = 1 << 20;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A Hoeffding tree absorbs any stream without panicking, and its
    /// predictions always fall in the label range.
    #[test]
    fn hoeffding_stream_safety(
        stream in prop::collection::vec((0.0f64..100.0, -50.0f64..50.0, 0..3u32), 20..400),
    ) {
        let mut tree = HoeffdingTree::new(
            vec![AttrKind::Numeric, AttrKind::Numeric],
            3,
            HoeffdingParams::default(),
        );
        for (x, y, label) in &stream {
            tree.learn(&[Value::Num(*x), Value::Num(*y)], *label);
        }
        prop_assert_eq!(tree.instances_seen(), stream.len() as u64);
        let p = tree.predict(&[Value::Num(12.0), Value::Num(-3.0)]);
        prop_assert!(p < 3);
        let d = tree.distribution(&[Value::Num(0.0), Value::Num(0.0)]);
        prop_assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    /// C4.5 never predicts worse than the majority class on its own
    /// training data (a weak but universal learning bound).
    #[test]
    fn c45_beats_or_ties_majority_on_training_data(
        rows in prop::collection::vec((0.0f64..10.0, 0..3u32), 12..150),
    ) {
        use ofc::dtree::c45::{C45Params, C45};
        let mut ds = Dataset::builder()
            .numeric_attr("x")
            .classes(["a", "b", "c"])
            .build();
        for (x, label) in &rows {
            ds.push(vec![Value::Num(*x)], *label);
        }
        let tree = C45::train(&ds, &C45Params::default());
        let correct = ds
            .rows()
            .iter()
            .filter(|r| tree.predict(&r.values) == r.label)
            .count();
        let majority = ds.majority_class();
        let baseline = ds.rows().iter().filter(|r| r.label == majority).count();
        prop_assert!(
            correct >= baseline,
            "tree {correct} < majority baseline {baseline}"
        );
    }

    /// The MlEngine never emits an allocation below the raw prediction's
    /// interval upper bound, never exceeds 2 GB, and only predicts once
    /// mature.
    #[test]
    fn engine_allocations_are_sound(
        observations in prop::collection::vec((0.0f64..50.0, 32u64..900), 1..250),
        probe in 0.0f64..50.0,
    ) {
        let mut ml = MlEngine::new(MlConfig::default());
        let key = (TenantId::from("t"), FunctionId::from("f"));
        ml.register(
            key,
            vec![ofc::dtree::data::Attribute {
                name: "x".into(),
                kind: AttrKind::Numeric,
            }],
        );
        for (x, mem_mb) in &observations {
            ml.observe(
                &key,
                Observation {
                    features: vec![Value::Num(*x)],
                    actual_mem: mem_mb * MB,
                    el_ratio: 0.7,
                },
            );
        }
        let p = ml.predict(&key, &[Value::Num(probe)]);
        if let Some(alloc) = p.mem_bytes {
            prop_assert!(ml.is_mature(&key), "allocation from an immature model");
            let raw = p.raw_interval.expect("raw accompanies allocation");
            prop_assert!(alloc <= 2 << 30);
            prop_assert!(alloc >= (u64::from(raw) + 1) * (16 * MB));
        }
        if ml.is_mature(&key) {
            prop_assert!(observations.len() >= 100, "matured too early");
        }
    }

    /// Memory conservation at the broker: after any sequence of reserves
    /// and releases, `committed + cache pool <= node memory` on the touched
    /// node, and a granted reserve is never beyond capacity.
    #[test]
    fn agent_conserves_node_memory(
        ops in prop::collection::vec((any::<bool>(), 1u64..60), 1..60),
    ) {
        let total = 4u64 << 30;
        let cluster = Rc::new(RefCell::new(Cluster::new(ClusterConfig {
            nodes: 2,
            replication_factor: 1,
            node_pool_bytes: total - (100 * MB),
            max_object_bytes: 10 * MB,
            ..ClusterConfig::default()
        })));
        let agent = CacheAgent::new(
            AgentConfig::default(),
            Rc::clone(&cluster),
            Rc::new(RefCell::new(OfcPolicy::new())),
            &ofc::core::telemetry::Telemetry::new(),
        );
        let mut sim = Sim::new(0);
        let mut committed: u64 = 0;
        for (grow, chunk_64mb) in ops {
            let delta = chunk_64mb * 64 * MB;
            let mut broker = agent.clone();
            if grow {
                let after = committed + delta;
                if broker.reserve(&mut sim, 0, after, total).is_some() {
                    prop_assert!(after <= total, "granted beyond capacity");
                    committed = after;
                }
            } else {
                let after = committed.saturating_sub(delta);
                broker.release(&mut sim, 0, after, total);
                committed = after;
            }
            let pool = cluster.borrow().node(0).pool_bytes();
            prop_assert!(
                committed + pool <= total,
                "conservation violated: {committed} + {pool} > {total}"
            );
        }
    }
}
