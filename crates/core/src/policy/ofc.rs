//! The default policy: the paper's own decisions, ported verbatim so the
//! refactored plane reproduces every committed golden byte-identically.

use super::{
    Admission, CachePolicy, CapacityTelemetry, EvictView, Placement, PredictionCtx, ShardView,
};
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
    fn name(&self) -> &'static str {
        "ofc"
    }

    fn admit(&mut self, ctx: &PredictionCtx<'_>) -> Admission {
        // Unknown function: cache conservatively (the pre-policy behavior
        // of the scheduler's `None` arm). Size and chunking ceilings defer
        // to the plane's configuration.
        let cache = ctx.prediction.is_none_or(|p| p.should_cache);
        Admission {
            cache,
            ..Admission::admit()
        }
    }

    fn select_victims(&mut self, view: &EvictView<'_>, _need: u64) -> Vec<Key> {
        view.expirable()
    }

    fn target_capacity(&mut self, telemetry: &CapacityTelemetry) -> u64 {
        telemetry.ofc_target()
    }

    fn place(&mut self, _input: Option<&Key>, view: &ShardView<'_>) -> Placement {
        Placement {
            preferred: view.input_master,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ml::Prediction;
    use ofc_faas::{FunctionId, TenantId};

    fn pctx<'a>(
        tenant: &'a TenantId,
        function: &'a FunctionId,
        prediction: Option<&'a Prediction>,
    ) -> PredictionCtx<'a> {
        PredictionCtx {
            tenant,
            function,
            booked_mem: 512 << 20,
            prediction,
        }
    }

    #[test]
    fn admit_follows_benefit_classifier() {
        let (t, f) = (TenantId::from("t"), FunctionId::from("f"));
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
        assert!(p.admit(&pctx(&t, &f, Some(&yes))).cache);
        assert!(!p.admit(&pctx(&t, &f, Some(&no))).cache);
        // No prediction: conservative admit.
        let d = p.admit(&pctx(&t, &f, None));
        assert!(d.cache);
        assert_eq!(d.byte_limit, u64::MAX, "size ceiling defers to plane");
        assert!(!d.chunk_large);
    }

    #[test]
    fn place_prefers_input_master() {
        let (t, f) = (TenantId::from("t"), FunctionId::from("f"));
        let mut p = OfcPolicy::new();
        let view = ShardView {
            tenant: &t,
            function: &f,
            home: 1,
            n_nodes: 4,
            input_master: Some(3),
        };
        assert_eq!(p.place(None, &view).preferred, Some(3));
        let blind = ShardView {
            input_master: None,
            ..view
        };
        assert_eq!(p.place(None, &blind).preferred, None);
    }
}
