//! Latency model of the cache store, calibrated to the paper's §7.2.1
//! micro-measurements.
//!
//! The constants reproduce:
//!
//! * pool rescale without data movement ≈ **289 µs** (scenario Sc1),
//! * rescale with eviction ≈ **373 µs** (Sc3),
//! * migration-by-promotion ≈ `0.18 ms @ 8 MB … 13.5 ms @ 1 GB` — a base of
//!   ~75 µs plus ~13.2 µs per migrated MB,
//! * sub-millisecond cache reads (the LH bars of Figure 7), with remote hits
//!   paying roughly +2 ms of network/proxy overhead for small objects
//!   (wand_denoise 1 kB: 19.6 ms → 22.1 ms).

use std::time::Duration;

/// Base latency of a local (same-node) read.
pub const LOCAL_READ_BASE: Duration = Duration::from_micros(120);
/// Extra latency of a remote read or write (network + proxy hop).
pub const REMOTE_EXTRA: Duration = Duration::from_micros(2000);
/// Memory bandwidth for payload copies, bytes per second.
pub const MEM_BW: f64 = 8e9;
/// Network bandwidth between nodes, bytes per second (10 GbE).
pub const NET_BW: f64 = 1.25e9;
/// Base latency of a write (master append + backup acks).
pub const WRITE_BASE: Duration = Duration::from_micros(180);
/// Cost of a pool rescale without data movement (Sc1).
pub const RESCALE_BASE: Duration = Duration::from_micros(289);
/// Extra cost of a rescale that evicts objects (Sc3 − Sc1). The store
/// charges [`RESCALE_BASE`] for every rescale; the cache agent, which
/// does the evicting, adds this.
pub const EVICT_EXTRA: Duration = Duration::from_micros(84);
/// Base cost of one migration-by-promotion.
pub const PROMOTE_BASE: Duration = Duration::from_micros(75);
/// Promotion bandwidth (backup image load into memory), bytes/second.
/// Calibrated from §7.2.1: 1 GB migrates in 13.5 ms ≈ 80 GB/s.
pub const PROMOTE_BW: f64 = 80e9;
/// Latency of a delete.
pub const DELETE_BASE: Duration = Duration::from_micros(90);

/// Latency of a read of `size` bytes, local or remote.
pub fn read(size: u64, remote: bool) -> Duration {
    let mut d = LOCAL_READ_BASE + Duration::from_secs_f64(size as f64 / MEM_BW);
    if remote {
        d += REMOTE_EXTRA + Duration::from_secs_f64(size as f64 / NET_BW);
    }
    d
}

/// Latency of a write of `size` bytes (master append + replication,
/// remote adds the client→master hop).
pub fn write(size: u64, remote: bool) -> Duration {
    let mut d = WRITE_BASE + Duration::from_secs_f64(size as f64 / MEM_BW);
    if remote {
        d += REMOTE_EXTRA + Duration::from_secs_f64(size as f64 / NET_BW);
    }
    d
}

/// Latency of a migration-by-promotion of `size` bytes.
pub fn promote(size: u64) -> Duration {
    PROMOTE_BASE + Duration::from_secs_f64(size as f64 / PROMOTE_BW)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promotion_matches_paper_points() {
        // ~0.18 ms at 8 MB.
        let at_8mb = promote(8 << 20).as_secs_f64() * 1e3;
        assert!((0.1..0.3).contains(&at_8mb), "8 MB promote: {at_8mb} ms");
        // ~13.5 ms at 1 GB.
        let at_1gb = promote(1 << 30).as_secs_f64() * 1e3;
        assert!((12.0..16.0).contains(&at_1gb), "1 GB promote: {at_1gb} ms");
    }

    #[test]
    fn rescale_matches_paper_points() {
        assert_eq!(RESCALE_BASE.as_micros(), 289);
        assert_eq!((RESCALE_BASE + EVICT_EXTRA).as_micros(), 373);
    }

    #[test]
    fn remote_reads_cost_more() {
        assert!(read(1024, true) > read(1024, false));
        // ~2 ms extra for small objects, as in §7.2.1.
        let extra = read(1024, true) - read(1024, false);
        assert!(extra >= Duration::from_millis(2));
        assert!(extra < Duration::from_millis(3));
    }

    #[test]
    fn size_scales_read_and_write() {
        assert!(read(10 << 20, false) > read(1 << 10, false));
        assert!(write(10 << 20, true) > write(1 << 10, true));
    }

    #[test]
    fn promote_size_zero_charges_base_plus_one() {
        // Promotion of a zero-byte object still pays the control cost.
        assert!(promote(0) >= PROMOTE_BASE);
    }
}
