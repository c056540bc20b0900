//! The interner holds a bounded universe: tenants, functions, buckets,
//! prepared inputs and output stems. No name is interned per event.
//!
//! The paper's §7.2.2 mix (six single-stage tenants and the two pipeline
//! tenants) runs on a fresh OFC stack for a window W, then on another
//! fresh stack with the same seed for 2W. The second run replays the first
//! and then doubles the invocations, each of which names fresh outputs,
//! yet it must not intern one string more.
//!
//! W is two hours. A single-stage tenant's output stem is per input
//! (`outputs/{profile}-{input}-`), and at one arrival a minute over 12
//! inputs the W run has named every input already, so all that a longer
//! run could add is names made per event.
//!
//! The interner is process-global, so this file is its own test binary
//! with a single test.

use ofc_bench::cachex::{run_macro, MacroSpec};
use ofc_bench::scenario::PlaneKind;
use ofc_workloads::faasload::TenantProfile;
use std::time::Duration;

const W: Duration = Duration::from_secs(2 * 3600);

#[test]
fn a_longer_run_interns_no_more_names() {
    let run = |window: Duration| {
        run_macro(MacroSpec::new(
            PlaneKind::Ofc,
            TenantProfile::Normal,
            window,
            1,
        ));
        ofc_intern::interned_count()
    };
    let before = ofc_intern::interned_count();
    let w = run(W);
    assert!(w > before, "the W run interned nothing: {before} -> {w}");
    let two_w = run(2 * W);
    assert_eq!(
        two_w,
        w,
        "the 2W run interned {} names the W run did not ({before} before, {w} after W)",
        two_w.saturating_sub(w)
    );
}
