//! The OFC-specific rule set.
//!
//! | id                 | pragma group   | invariant                                   |
//! |--------------------|----------------|---------------------------------------------|
//! | `D1-DETERMINISM`   | `determinism`  | no wall clock / ambient entropy / hash-order export |
//! | `D3-TELEMETRY`     | `telemetry`    | metric names come from the central registry |
//! | `D4-PANIC`         | `panic`        | hot paths don't abort                       |
//! | `D5-HOTLOOP`       | `hotloop`      | no allocations in hot-path loops            |
//! | `D7-DEAD-TELEMETRY`| `telemetry`    | every registry const is emitted somewhere   |
//! | `D0-PRAGMA`        | —              | every `allow(...)` carries a reason         |

pub mod determinism;
pub mod hotloops;
pub mod panics;
pub mod telemetry;

use crate::report::Finding;
use crate::source::SourceFile;

/// Rule id for malformed pragmas.
pub const RULE_PRAGMA: &str = "D0-PRAGMA";

const KNOWN_PRAGMA_GROUPS: [&str; 4] = [
    determinism::PRAGMA,
    hotloops::PRAGMA,
    panics::PRAGMA,
    telemetry::PRAGMA,
];

/// Validates `ofc-lint:` pragmas themselves: unknown rule groups and
/// missing reasons are findings, so suppressions can't rot silently.
pub fn check_pragmas(file: &SourceFile, findings: &mut Vec<Finding>) {
    for p in &file.pragmas {
        if !KNOWN_PRAGMA_GROUPS.contains(&p.rule.as_str()) {
            findings.push(Finding {
                rule: RULE_PRAGMA,
                path: file.path.clone(),
                line: p.line,
                message: format!(
                    "unknown pragma group `{}` — expected one of: determinism, hotloop, panic, telemetry",
                    p.rule
                ),
            });
        } else if p.reason.is_empty() {
            findings.push(Finding {
                rule: RULE_PRAGMA,
                path: file.path.clone(),
                line: p.line,
                message: format!(
                    "pragma `allow({})` without `reason=` — suppressions must be justified",
                    p.rule
                ),
            });
        }
    }
}
