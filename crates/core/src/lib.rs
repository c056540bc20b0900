//! OFC — Opportunistic FaaS Cache (EuroSys '21) — the paper's primary
//! contribution.
//!
//! OFC turns the memory that FaaS worker nodes waste — tenant
//! over-provisioning plus sandbox keep-alive — into a transparent,
//! vertically and horizontally elastic in-memory cache for the Extract and
//! Load phases of ETL-style cloud functions. This crate implements every
//! OFC component over the substrate crates:
//!
//! | Paper component (§4) | Module |
//! |---|---|
//! | Predictor + ModelTrainer | [`ml`] |
//! | Controller routing policy | [`scheduler`] |
//! | Monitor (+ Sizer feedback) | [`monitor`] |
//! | CacheAgent + autoscaling + slack pool | [`agent`] |
//! | Proxy + rclib + Persistor + webhooks | [`cache`] |
//! | Assembly onto OpenWhisk | [`ofc`] |
//!
//! Observability is unified behind the [`telemetry`] plane (re-exported
//! from `ofc-telemetry`): every component records counters, gauges and
//! histograms into one shared registry, snapshotted via
//! [`ofc::Ofc::metrics`].
//!
//! # Examples
//!
//! Install OFC onto a platform and run a workload (see
//! `examples/quickstart.rs` for a full walk-through):
//!
//! ```
//! use ofc_core::ofc::Ofc;
//! use ofc_faas::baselines::NoopPlane;
//! use ofc_faas::platform::Platform;
//! use ofc_faas::registry::Registry;
//! use ofc_faas::PlatformConfig;
//! use ofc_objstore::store::ObjectStore;
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! let platform = Platform::build(
//!     PlatformConfig::default(),
//!     Registry::new(),
//!     Box::new(NoopPlane),
//! );
//! let store = Rc::new(RefCell::new(ObjectStore::swift()));
//! let ofc = Ofc::builder(&platform)
//!     .store(store)
//!     .features(Rc::new(|_, _, _| None))
//!     .build();
//! assert_eq!(ofc.cluster.borrow().n_nodes(), 4);
//! assert_eq!(ofc.metrics().counter("faas.submitted"), 0);
//! ```

pub mod agent;
pub mod cache;
pub mod fairness;
pub mod health;
pub mod ml;
pub mod monitor;
pub mod ofc;
pub mod policy;
pub mod scheduler;

pub use ofc_telemetry as telemetry;
