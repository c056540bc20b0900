//! Layer drivers (`*.drv_*` metrics): a seeded operation stream replayed
//! straight into one layer's public functions, at the population the
//! traced pass of *this workload* reached — functions registered, keys
//! resident, events pending. The same name therefore reads differently on
//! `paper_macro` and `mega_tail`; that difference is the point.
//!
//! The ML, object-store and telemetry drivers run against the finished
//! stack of the traced pass (its models, objects and registry are the
//! population); the simulator and cache-store drivers build a fresh
//! instance filled to the observed peak.

use crate::pass::Pass;
use crate::stats::fold;
use crate::trace::Tracer;
use crate::workloads::{FnEntry, FnKind, Spec, Stack};
use ofc::core::ml::{MlConfig, MlEngine, Observation};
use ofc::dtree::c45::{C45Params, C45};
use ofc::dtree::data::Value;
use ofc::faas::TenantId;
use ofc::objstore::{ObjectId, Payload};
use ofc::rcstore::cluster::Cluster;
use ofc::rcstore::{ClusterConfig, Key, Value as RcValue};
use ofc::simtime::{Sim, SimTime};
use ofc::workloads::datasets::{invocation_stream, memory_dataset};
use ofc::workloads::multimedia::profile;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nanoseconds per operation of `ops` operations run by `f`.
fn ns_per_op(ops: u64, f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64() * 1e9 / ops.max(1) as f64
}

fn median(v: Vec<f64>) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        fold(&v).median
    }
}

/// `schedule_in` + execution of closures that only reschedule themselves,
/// with `depth` events pending throughout.
fn simtime(depth: u64) -> f64 {
    const EVENTS: u64 = 1_000_000;
    const PERIOD: Duration = Duration::from_secs(1);
    // Each closure owns a word of state, so it is boxed onto the heap as
    // the stack's own events are.
    fn tick(sim: &mut Sim, token: u64) {
        sim.schedule_in(PERIOD, move |sim| tick(sim, black_box(token)));
    }
    let depth = depth.max(1);
    let mut sim = Sim::new(0);
    for i in 0..depth {
        let offset = Duration::from_nanos(PERIOD.as_nanos() as u64 * i / depth);
        sim.schedule_in(offset, move |sim| tick(sim, i));
    }
    ns_per_op(EVENTS, || {
        black_box(sim.step(EVENTS));
    })
}

/// Feature vectors and ground truth matching `f`'s schema.
fn observations(f: &FnEntry, n: usize, seed: u64) -> Vec<Observation> {
    match f.kind {
        FnKind::Single(p) => invocation_stream(p, n, seed)
            .into_iter()
            .map(|s| Observation {
                features: s.features,
                actual_mem: s.mem_bytes,
                el_ratio: if s.cache_benefit { 0.9 } else { 0.1 },
            })
            .collect(),
        FnKind::Stage(sp) => {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            (0..n)
                .map(|_| {
                    let bytes: u64 = rng.gen_range(4 << 10..30 << 20);
                    Observation {
                        features: vec![
                            Value::Num(bytes as f64),
                            Value::Num(f64::from(rng.gen_range(1..10u32))),
                            Value::Num(f64::from(rng.gen_range(0..10u32))),
                        ],
                        actual_mem: sp.mem_base + ((bytes as f64) * sp.mem_per_byte) as u64,
                        el_ratio: 0.7,
                    }
                })
                .collect()
        }
    }
}

/// `MlEngine::predict` / `observe` over functions drawn from the whole
/// registered population.
fn ml_population(stack: &Stack, rng: &mut ChaCha8Rng, out: &mut Vec<(&'static str, f64)>) {
    let Some(ofc) = &stack.ofc else { return };
    const FUNCTIONS: usize = 512;
    const PER_FUNCTION: usize = 8;
    let mut stream = Vec::with_capacity(FUNCTIONS * PER_FUNCTION);
    for i in 0..FUNCTIONS {
        let f = stack.functions[rng.gen_range(0..stack.functions.len())];
        for obs in observations(&f, PER_FUNCTION, i as u64) {
            stream.push(((f.tenant, f.function), obs));
        }
    }
    let mut ml = ofc.ml.borrow_mut();
    const ROUNDS: u64 = 16;
    let predict_ns = ns_per_op(ROUNDS * stream.len() as u64, || {
        for _ in 0..ROUNDS {
            for (key, obs) in &stream {
                black_box(ml.predict(key, &obs.features));
            }
        }
    });
    // Per-call timing: a call that triggers a retrain is three orders of
    // magnitude longer, so the median is the plain bookkeeping cost.
    let per_call: Vec<f64> = stream
        .into_iter()
        .map(|(key, obs)| ns_per_op(1, || ml.observe(&key, obs)))
        .collect();
    out.push(("core.ml.drv_predict_ns", predict_ns));
    out.push(("core.ml.drv_observe_ns", median(per_call)));
}

/// One full retrain (two C4.5 trees over the 2 000-sample retention cap)
/// and a bare `C45::train` on a dataset of the same size.
fn ml_retrain(out: &mut Vec<(&'static str, f64)>) {
    let p = profile("wand_blur").expect("known profile");
    // Never mature: a mature model keeps only its mispredictions, and the
    // training set would stop short of the cap the driver wants to time.
    let cfg = MlConfig {
        min_invocations: u64::MAX,
        ..MlConfig::default()
    };
    let cap = cfg.max_training_set;
    let mut ml = MlEngine::new(cfg);
    let key = (TenantId::from("drv"), TenantId::from(p.name));
    ml.register(key, p.feature_schema());
    let retrains = |ml: &MlEngine| ml.telemetry().metrics().counter("ml.retrains");
    let mut retrain_us = Vec::new();
    for (i, s) in invocation_stream(p, cap + 250, 0xD17)
        .into_iter()
        .enumerate()
    {
        let obs = Observation {
            features: s.features,
            actual_mem: s.mem_bytes,
            el_ratio: if s.cache_benefit { 0.9 } else { 0.1 },
        };
        let before = retrains(&ml);
        let ns = ns_per_op(1, || ml.observe(&key, obs));
        if i >= cap && retrains(&ml) > before {
            retrain_us.push(ns / 1e3);
        }
    }
    out.push(("core.ml.drv_retrain_us", median(retrain_us)));

    let data = memory_dataset(p, 2000, 16 << 20, 0xD17);
    let fits: Vec<f64> = (0..5)
        .map(|_| {
            ns_per_op(1, || {
                black_box(C45::train(&data, &C45Params::default()));
            }) / 1e3
        })
        .collect();
    out.push(("dtree.drv_c45_fit_us", median(fits)));
}

/// `ObjectStore::get` over the prepared inputs and `put` of new objects,
/// on the store the traced pass left behind.
fn objstore(stack: &Stack, rng: &mut ChaCha8Rng, out: &mut Vec<(&'static str, f64)>) {
    const GETS: u64 = 200_000;
    const PUTS: u64 = 50_000;
    let mut store = stack.store.borrow_mut();
    let stride = stack.input_buckets.len().div_ceil(64).max(1);
    let ids: Vec<ObjectId> = stack
        .input_buckets
        .iter()
        .step_by(stride)
        .flat_map(|b| store.list_bucket(b).0)
        .collect();
    let picks: Vec<usize> = (0..GETS).map(|_| rng.gen_range(0..ids.len())).collect();
    let get_ns = ns_per_op(GETS, || {
        for &i in &picks {
            black_box(store.get(&ids[i]).0.is_ok());
        }
    });
    let fresh: Vec<ObjectId> = (0..PUTS)
        .map(|i| ObjectId::new("drv", format!("o{i:05}")))
        .collect();
    let put_ns = ns_per_op(PUTS, || {
        for id in &fresh {
            black_box(store.put(id, Payload::Synthetic(4096), HashMap::new(), false));
        }
    });
    out.push(("objstore.drv_put_ns", put_ns));
    out.push(("objstore.drv_get_ns", get_ns));
}

/// `Cluster::write/read/evict/evict_candidates` on a fresh cluster shaped
/// like the workload's and filled to the key population the traced pass
/// peaked at (objects of the mean resident size).
fn rcstore(spec: &Spec, pass: &Pass, rng: &mut ChaCha8Rng, out: &mut Vec<(&'static str, f64)>) {
    const OPS: u64 = 100_000;
    let (keys_peak, bytes_peak) = pass.cache_peak;
    let population = keys_peak.max(1);
    let size = (bytes_peak / population).clamp(1 << 10, 1 << 20);
    let max_object = spec.ofc.plane.max_cached_object;
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: spec.nodes,
        replication_factor: 2.min(spec.nodes.saturating_sub(1)),
        // Room for the whole population on every node: the driver times
        // the index and log paths, not admission failures.
        node_pool_bytes: (population * size * 2).max(64 << 20),
        max_object_bytes: max_object,
        segment_bytes: (max_object * 2).max(16 << 20),
        ..ClusterConfig::default()
    });
    let now = SimTime::from_secs(1);
    let keys: Vec<Key> = (0..population)
        .map(|i| Key::from(format!("t{:04}/k{i:06}", i % 1200).as_str()))
        .collect();
    let absent: Vec<Key> = (0..4096)
        .map(|i| Key::from(format!("drv/absent{i:04}").as_str()))
        .collect();
    let home = |i: usize| i % spec.nodes;
    let write_all = |cluster: &mut Cluster| {
        for (i, key) in keys.iter().enumerate() {
            let t = cluster.write_with_dirty(home(i), key, RcValue::synthetic(size), now, false);
            black_box(t.result.is_ok());
        }
    };
    write_all(&mut cluster);

    let rounds = OPS.div_ceil(population);
    let (mut evict_s, mut write_s) = (0.0, 0.0);
    for _ in 0..rounds {
        let started = Instant::now();
        for key in &keys {
            black_box(cluster.evict(key).result.is_ok());
        }
        evict_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        write_all(&mut cluster);
        write_s += started.elapsed().as_secs_f64();
    }
    let per_op = |secs: f64| secs * 1e9 / (rounds * population) as f64;

    let masters: Vec<usize> = keys
        .iter()
        .map(|k| cluster.master_of(k).expect("resident"))
        .collect();
    let picks: Vec<usize> = (0..OPS).map(|_| rng.gen_range(0..keys.len())).collect();
    let hit_ns = ns_per_op(OPS, || {
        for &i in &picks {
            black_box(cluster.read(masters[i], &keys[i], now).result.is_ok());
        }
    });
    let miss_ns = ns_per_op(OPS, || {
        for i in 0..OPS as usize {
            let key = &absent[i % absent.len()];
            black_box(cluster.read(home(i), key, now).result.is_ok());
        }
    });
    const SCANS: u64 = 50;
    let later = now + Duration::from_secs(3600);
    let scan_us = ns_per_op(SCANS, || {
        for _ in 0..SCANS {
            black_box(cluster.evict_candidates(
                later,
                spec.ofc.agent.evict_grace,
                spec.ofc.agent.evict_idle,
            ));
        }
    }) / 1e3;
    out.push(("rcstore.drv_write_ns", per_op(write_s)));
    out.push(("rcstore.drv_read_hit_ns", hit_ns));
    out.push(("rcstore.drv_read_miss_ns", miss_ns));
    out.push(("rcstore.drv_evict_ns", per_op(evict_s)));
    out.push(("rcstore.drv_candidates_us", scan_us));
}

/// Counter, histogram and gauge recording on the traced pass's telemetry
/// plane, and interner hits over the tenant names it holds.
fn telemetry_and_intern(stack: &Stack, out: &mut Vec<(&'static str, f64)>) {
    const OPS: u64 = 1_000_000;
    if let Some(ofc) = &stack.ofc {
        let t = ofc.telemetry();
        let counter = t.counter("bench.ticks");
        let hist = t.histogram("bench.drv_hist_nanos");
        let gauge = t.gauge("bench.drv_gauge");
        out.push((
            "telemetry.drv_counter_ns",
            ns_per_op(OPS, || {
                for _ in 0..OPS {
                    black_box(&counter).inc();
                }
            }),
        ));
        out.push((
            "telemetry.drv_hist_ns",
            ns_per_op(OPS, || {
                for i in 0..OPS {
                    black_box(&hist).record(i.wrapping_mul(0x9E37) & 0xF_FFFF);
                }
            }),
        ));
        // A gauge keeps every sample: 200 k points stand in for a long run
        // without holding on to tens of MB.
        const SETS: u64 = 200_000;
        out.push((
            "telemetry.drv_gauge_set_ns",
            ns_per_op(SETS, || {
                for i in 0..SETS {
                    black_box(&gauge).set(SimTime::from_nanos(i), i as f64);
                }
            }),
        ));
    }
    let stride = stack.functions.len().div_ceil(4096).max(1);
    let names: Vec<String> = stack
        .functions
        .iter()
        .step_by(stride)
        .map(|f| f.tenant.as_str().to_string())
        .collect();
    out.push((
        "intern.drv_hit_ns",
        ns_per_op(OPS, || {
            for i in 0..OPS as usize {
                black_box(TenantId::from(names[i % names.len()].as_str()));
            }
        }),
    ));
}

/// Runs every driver; returns `(metric, value)` pairs.
pub fn run_all(
    spec: &Spec,
    pass: &Pass,
    stack: &Stack,
    tr: &mut Tracer,
) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed ^ 0xD21_7E25);
    let all = tr.open("drivers");

    let open = tr.open("simtime.drv");
    out.push(("simtime.drv_ns_per_event", simtime(pass.pending_peak)));
    tr.close(open);

    let open = tr.open("core.ml.drv");
    ml_population(stack, &mut rng, &mut out);
    ml_retrain(&mut out);
    tr.close(open);

    let open = tr.open("objstore.drv");
    objstore(stack, &mut rng, &mut out);
    tr.close(open);

    let open = tr.open("rcstore.drv");
    rcstore(spec, pass, &mut rng, &mut out);
    tr.close(open);

    let open = tr.open("telemetry.drv");
    telemetry_and_intern(stack, &mut out);
    tr.close(open);

    tr.close(all);
    out
}
