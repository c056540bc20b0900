//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§7). See `DESIGN.md` §4 for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! Each `src/bin/<id>.rs` binary runs one experiment and prints the same
//! rows/series the paper reports; [`report`] also serializes the results as
//! JSON under `results/` so `EXPERIMENTS.md` can be regenerated.

pub mod cachex;
pub mod megarun;
pub mod mlx;
pub mod par;
pub mod report;
pub mod scenario;

/// Bytes per mebibyte.
pub const MB: u64 = 1 << 20;
/// Bytes per kibibyte.
pub const KB: u64 = 1 << 10;

/// The observation window of a macro bin, as the environment sets it.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Window length in minutes.
    pub mins: u64,
    /// Whether `OFC_MACRO_SMOKE=1` pinned the golden suite's short window.
    pub smoke: bool,
}

impl Window {
    /// The window as a duration.
    pub fn duration(&self) -> std::time::Duration {
        std::time::Duration::from_secs(60 * self.mins)
    }

    /// The result-file id of figure `id`: smoke runs save under
    /// `<id>_smoke`, so a short window never overwrites a full-run JSON.
    pub fn file(&self, id: &str) -> String {
        if self.smoke {
            format!("{id}_smoke")
        } else {
            id.to_string()
        }
    }
}

/// Whether `OFC_MACRO_SMOKE=1` asks for the golden suite's short run.
pub fn smoke() -> bool {
    std::env::var("OFC_MACRO_SMOKE").is_ok_and(|v| v == "1")
}

/// Reads the macro window every §7.2.2-shaped bin shares: 2 minutes (the
/// golden suite's window) under [`smoke`], otherwise `default_mins`.
pub fn window(default_mins: u64) -> Window {
    let smoke = smoke();
    let mins = if smoke { 2 } else { default_mins };
    Window { mins, smoke }
}
