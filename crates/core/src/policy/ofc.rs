//! The default policy: the paper's own decisions, ported verbatim so the
//! refactored plane reproduces every committed golden byte-identically.

use super::{Admission, CachePolicy, CapacityTelemetry, EvictView};
use crate::ml::Prediction;
use ofc_faas::{NodeId, TenantId};
use ofc_rcstore::Key;

/// OFC's policy (§5.2, §6.3–6.5):
///
/// * admit when the cache-benefit classifier says E+L dominates (or
///   conservatively, when no prediction exists),
/// * evict the §6.3 expirable set (cold after grace, or idle too long)
///   via the store's candidate index,
/// * size slack as `clamp(mean_churn × 1.5, 64 MB, 512 MB)` (§6.4),
/// * place requests on the node mastering their input (§6.5).
#[derive(Debug, Default)]
pub struct OfcPolicy;

impl OfcPolicy {
    /// Creates the default policy (stateless).
    pub fn new() -> Self {
        OfcPolicy
    }
}

impl CachePolicy for OfcPolicy {
    fn admit(&mut self, prediction: Option<&Prediction>) -> Admission {
        // Unknown function: cache conservatively (the pre-policy behavior
        // of the scheduler's `None` arm). The size ceiling is the plane's.
        Admission {
            cache: prediction.is_none_or(|p| p.should_cache),
            ..Admission::admit()
        }
    }

    fn select_victims(&mut self, view: &EvictView<'_>) -> Vec<Key> {
        view.expirable()
    }

    fn target_capacity(&mut self, telemetry: &CapacityTelemetry) -> u64 {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_follows_benefit_classifier() {
        let mut p = OfcPolicy::new();
        let yes = Prediction {
            mem_bytes: Some(128 << 20),
            raw_interval: None,
            should_cache: true,
        };
        let no = Prediction {
            mem_bytes: Some(128 << 20),
            raw_interval: None,
            should_cache: false,
        };
        assert!(p.admit(Some(&yes)).cache);
        assert!(!p.admit(Some(&no)).cache);
        // No prediction: conservative admit.
        let d = p.admit(None);
        assert!(d.cache);
        assert!(!d.chunk_large);
    }

    #[test]
    fn place_prefers_input_master() {
        let t = TenantId::from("t");
        let mut p = OfcPolicy::new();
        assert_eq!(p.place(&t, 4, Some(3)), Some(3));
        assert_eq!(p.place(&t, 4, None), None);
    }
}
