//! Process-level measurements: peak resident memory, CPU time, the noise
//! calibration loop, the machine fingerprint, and the counting allocator
//! the traced binary installs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Peak resident set of this process (MB), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds this (single-threaded) process has run, from the first
/// field of `/proc/self/schedstat` (nanoseconds on-CPU).
pub fn cpu_time_s() -> f64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 / 1e9)
}

/// The box's noise thermometer: a fixed amount of ALU work plus a
/// dependent pointer walk over a cache-exceeding table (about 0.3 s on the
/// reference box). The work never changes, so any movement of its time is
/// the machine, not the program under test.
pub struct Calib {
    table: Vec<u64>,
}

impl Default for Calib {
    fn default() -> Self {
        const SLOTS: usize = 1 << 21; // 16 MB of u64: well past the L2.
        let mut table: Vec<u64> = (0..SLOTS as u64).collect();
        // A fixed full-cycle permutation (Sattolo) from a fixed LCG.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..SLOTS).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % i;
            table.swap(i, j);
        }
        Calib { table }
    }
}

impl Calib {
    fn walk(&self, hops: u64, mut acc: u64) -> u64 {
        let mut at = 0u64;
        for i in 0..hops {
            at = self.table[at as usize];
            acc = acc.rotate_left(7) ^ at.wrapping_mul(i | 1);
        }
        acc
    }

    /// Runs the fixed loop once; milliseconds it took.
    pub fn run_ms(&self) -> f64 {
        // An untimed walk first: whatever ran before, the timed walk finds
        // the table in the same cache state.
        let warm = self.walk(1_500_000, 0);
        let started = Instant::now();
        let mut acc = self.walk(1_500_000, warm);
        for i in 0..60_000_000u64 {
            acc = acc.wrapping_mul(0x0000_0100_0000_01b3) ^ i;
        }
        std::hint::black_box(acc);
        started.elapsed().as_secs_f64() * 1e3
    }
}

/// Cores and CPU model of the box the numbers were taken on.
pub fn fingerprint() -> (usize, String) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    (cores, model)
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Allocation totals while counting was on.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocStats {
    /// Allocations (including the allocating half of a realloc).
    pub count: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// Largest number of bytes live at once above the level at which
    /// counting was last switched on.
    pub peak_live: u64,
}

/// Switches the counting of [`CountingAlloc`] on or off. Off, the
/// allocator only forwards, so untraced passes of the traced binary run
/// like the timed binary's. Switching on restarts the live-bytes level at
/// zero: `peak_live` then reads the heap growth of what follows.
pub fn set_counting(on: bool) {
    if on {
        LIVE.store(0, Relaxed);
        PEAK.store(0, Relaxed);
    }
    COUNTING.store(on, Relaxed);
}

/// Current totals; all zero unless [`CountingAlloc`] is the global
/// allocator of the running binary.
pub fn alloc_stats() -> AllocStats {
    AllocStats {
        count: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live: PEAK.load(Relaxed),
    }
}

/// The system allocator plus exact counts. The counters are plain
/// load-then-store pairs, not read-modify-write atomics: the benchmark is
/// single-threaded, and the cheaper form keeps the traced run close to the
/// timed one (`host.trace_overhead_pct`). A second thread would lose
/// counts, nothing worse.
pub struct CountingAlloc;

fn note_alloc(size: u64) {
    if !COUNTING.load(Relaxed) {
        return;
    }
    ALLOCS.store(ALLOCS.load(Relaxed) + 1, Relaxed);
    BYTES.store(BYTES.load(Relaxed) + size, Relaxed);
    let live = LIVE.load(Relaxed) + size;
    LIVE.store(live, Relaxed);
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

fn note_free(size: u64) {
    if !COUNTING.load(Relaxed) {
        return;
    }
    // Saturating: a block allocated before counting was switched on may be
    // freed after.
    LIVE.store(LIVE.load(Relaxed).saturating_sub(size), Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract the caller already upholds; the bookkeeping touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size() as u64);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size() as u64);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size() as u64);
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_free(layout.size() as u64);
        note_alloc(new_size as u64);
        // SAFETY: `ptr`/`layout` describe a live block of this allocator and
        // the caller guarantees `new_size` is valid for the alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
