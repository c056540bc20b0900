//! The Monitor (§5.3): runtime memory-pressure handling and the ground
//! truth feedback loop into the ModelTrainer.
//!
//! The Monitor periodically reads each sandbox's cgroup statistics (only
//! for invocations that have run ≥ 3 s — shorter ones are too frequent to
//! be worth the overhead, §5.3.1). On imminent exhaustion it raises the
//! sandbox cap; otherwise the OOM killer fires and the platform retries at
//! the booked size. After every invocation it reports the measured peak to
//! the trainer.

use crate::ml::{FnKey, MlEngine, Observation, INTERVAL_BYTES};
use crate::scheduler::FeatureFn;
use ofc_faas::{Completion, ExecutionMonitor, InvocationRecord, PressureAction};
use ofc_simtime::Sim;
use ofc_telemetry::{Counter, Telemetry};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// Monitor configuration.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Only invocations running at least this long are monitored (3 s).
    pub min_runtime: Duration,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            min_runtime: Duration::from_secs(3),
        }
    }
}

/// The OFC execution monitor.
pub struct OfcMonitor {
    cfg: MonitorConfig,
    ml: Rc<RefCell<MlEngine>>,
    features: FeatureFn,
    telemetry: Telemetry,
    /// Cap raises performed (`monitor.raises`).
    raises: Counter,
    /// OOM kills permitted (`monitor.kills`).
    kills: Counter,
}

impl OfcMonitor {
    /// Builds the monitor over the shared ML engine, with a standalone
    /// telemetry plane.
    pub fn new(cfg: MonitorConfig, ml: Rc<RefCell<MlEngine>>, features: FeatureFn) -> Self {
        Self::with_telemetry(cfg, ml, features, &Telemetry::standalone())
    }

    /// Builds the monitor recording into a shared telemetry plane.
    pub fn with_telemetry(
        cfg: MonitorConfig,
        ml: Rc<RefCell<MlEngine>>,
        features: FeatureFn,
        telemetry: &Telemetry,
    ) -> Self {
        OfcMonitor {
            cfg,
            ml,
            features,
            telemetry: telemetry.clone(),
            raises: telemetry.counter("monitor.raises"),
            kills: telemetry.counter("monitor.kills"),
        }
    }

    /// The telemetry plane this monitor records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}

impl ExecutionMonitor for OfcMonitor {
    fn on_pressure(
        &mut self,
        _sim: &mut Sim,
        record: &InvocationRecord,
        needed: u64,
        elapsed: Duration,
    ) -> PressureAction {
        // Short invocations are not monitored (§5.3.1): the OOM killer
        // fires and the platform retries at the booked size.
        if elapsed < self.cfg.min_runtime {
            self.kills.inc();
            return PressureAction::Kill;
        }
        // Raise to the next interval boundary above the need, bounded by
        // what the tenant booked.
        let target = needed
            .div_ceil(INTERVAL_BYTES)
            .saturating_mul(INTERVAL_BYTES)
            .max(record.mem_limit)
            .min(record.mem_booked.max(needed));
        self.raises.inc();
        PressureAction::RaiseTo(target)
    }

    fn on_complete(&mut self, _sim: &mut Sim, record: &InvocationRecord) {
        // Unschedulable requests never ran: no ground truth to learn from.
        if record.completion == Completion::Unschedulable {
            return;
        }
        let key: FnKey = (record.tenant, record.function);
        let Some(features) = (self.features)(&record.tenant, &record.function, &record.args) else {
            return;
        };
        self.ml.borrow_mut().observe(
            &key,
            Observation {
                features,
                actual_mem: record.mem_actual,
                el_ratio: record.el_ratio(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ml::MlConfig;
    use ofc_dtree::data::{AttrKind, Attribute, Value};
    use ofc_faas::{Args, FunctionId, TenantId};
    use ofc_simtime::SimTime;

    const MB: u64 = 1 << 20;

    fn record(limit: u64, booked: u64, args: Args) -> InvocationRecord {
        InvocationRecord {
            id: 0,
            function: FunctionId::from("f"),
            tenant: TenantId::from("t"),
            args,
            pipeline: None,
            node: 0,
            arrival: SimTime::ZERO,
            exec_start: SimTime::ZERO,
            end: SimTime::from_millis(100),
            sched_time: Duration::ZERO,
            e_time: Duration::from_millis(40),
            t_time: Duration::from_millis(20),
            l_time: Duration::from_millis(40),
            cold_start: false,
            resized: false,
            mem_limit: limit,
            mem_actual: 300 * MB,
            mem_booked: booked,
            reads_served: vec![],
            attempt: 0,
            admission: ofc_faas::Admission::admit(),
            completion: Completion::Success,
        }
    }

    fn monitor() -> OfcMonitor {
        let ml = Rc::new(RefCell::new(MlEngine::new(MlConfig::default())));
        ml.borrow_mut().register(
            (TenantId::from("t"), FunctionId::from("f")),
            vec![Attribute {
                name: "x".into(),
                kind: AttrKind::Numeric,
            }],
        );
        let features: FeatureFn = Rc::new(|_, _, args| {
            args.get("x").map(|v| match v {
                ofc_faas::ArgValue::Num(x) => vec![Value::Num(*x)],
                _ => vec![Value::Missing],
            })
        });
        OfcMonitor::new(MonitorConfig::default(), ml, features)
    }

    #[test]
    fn short_invocations_are_killed_not_raised() {
        let mut m = monitor();
        let mut sim = Sim::new(0);
        let a = m.on_pressure(
            &mut sim,
            &record(128 * MB, 1 << 30, Args::new()),
            300 * MB,
            Duration::from_secs(1),
        );
        assert_eq!(a, PressureAction::Kill);
        assert_eq!(m.telemetry().metrics().counter("monitor.kills"), 1);
    }

    #[test]
    fn long_invocations_get_their_cap_raised() {
        let mut m = monitor();
        let mut sim = Sim::new(0);
        let a = m.on_pressure(
            &mut sim,
            &record(128 * MB, 1 << 30, Args::new()),
            300 * MB,
            Duration::from_secs(5),
        );
        match a {
            PressureAction::RaiseTo(target) => {
                assert!(target >= 300 * MB);
                assert_eq!(target % (16 * MB), 0, "interval-aligned");
                assert!(target <= 1 << 30);
            }
            PressureAction::Kill => panic!("long invocation must be raised"),
        }
        assert_eq!(m.telemetry().metrics().counter("monitor.raises"), 1);
    }

    #[test]
    fn completion_feeds_the_trainer() {
        let mut m = monitor();
        let mut sim = Sim::new(0);
        let key = (TenantId::from("t"), FunctionId::from("f"));
        let mut args = Args::new();
        args.insert("x".into(), ofc_faas::ArgValue::Num(3.0));
        for _ in 0..30 {
            m.on_complete(&mut sim, &record(512 * MB, 1 << 30, args.clone()));
        }
        assert_eq!(m.ml.borrow().training_set_size(&key), 30);
    }

    #[test]
    fn unschedulable_records_are_ignored() {
        let mut m = monitor();
        let mut sim = Sim::new(0);
        let key = (TenantId::from("t"), FunctionId::from("f"));
        let mut args = Args::new();
        args.insert("x".into(), ofc_faas::ArgValue::Num(3.0));
        let mut rec = record(512 * MB, 1 << 30, args);
        rec.completion = Completion::Unschedulable;
        m.on_complete(&mut sim, &rec);
        assert_eq!(m.ml.borrow().training_set_size(&key), 0);
    }
}
