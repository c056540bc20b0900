//! Umbrella crate for the OFC reproduction: re-exports the public API of
//! every subsystem crate so applications depend on a single name.
//!
//! OFC (EuroSys '21) is an opportunistic, transparent, elastic in-memory
//! cache for FaaS platforms. The workspace layout mirrors the system:
//!
//! * [`simtime`] — deterministic discrete-event simulation substrate,
//! * [`dtree`] — from-scratch decision-tree ML (J48/C4.5, RandomForest,
//!   RandomTree, HoeffdingTree) with evaluation machinery,
//! * [`objstore`] — Swift-model RSDS (shadow objects, webhooks) and a
//!   Redis-model IMOC baseline,
//! * [`rcstore`] — RAMCloud-model distributed KV store (access stats,
//!   pool resize, replication, migration-by-promotion, crash recovery),
//! * [`faas`] — OpenWhisk-model platform with the seams OFC hooks into,
//! * [`workloads`] — the 19 multimedia functions, 4 pipelines, and the
//!   FaaSLoad injector of the paper's evaluation,
//! * [`core`] — OFC itself: Predictor/ModelTrainer, CacheAgent,
//!   Proxy/rclib, Monitor, and the assembly,
//! * [`chaos`] — deterministic fault injection (seeded chaos schedules
//!   and their driver) for robustness testing.
//!
//! See `examples/quickstart.rs` for a walk-through and `DESIGN.md` for the
//! experiment index.

pub use ofc_chaos as chaos;
pub use ofc_core as core;
pub use ofc_dtree as dtree;
pub use ofc_faas as faas;
pub use ofc_objstore as objstore;
pub use ofc_rcstore as rcstore;
pub use ofc_simtime as simtime;
pub use ofc_workloads as workloads;
