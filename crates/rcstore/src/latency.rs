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

/// Tunable latency constants of the store.
#[derive(Debug, Clone)]
pub struct RcLatency {
    /// Base latency of a local (same-node) read.
    pub local_read_base: Duration,
    /// Extra latency of a remote read (network + proxy hop).
    pub remote_extra: Duration,
    /// Memory bandwidth for payload copies, bytes per second.
    pub mem_bw: f64,
    /// Network bandwidth between nodes, bytes per second (10 GbE).
    pub net_bw: f64,
    /// Base latency of a write (master append + backup acks).
    pub write_base: Duration,
    /// Base cost of a pool rescale without data movement (Sc1).
    pub rescale_base: Duration,
    /// Extra cost of a rescale that evicts objects (Sc3 − Sc1).
    pub evict_extra: Duration,
    /// Base cost of one migration-by-promotion.
    pub promote_base: Duration,
    /// Promotion bandwidth (backup image load into memory), bytes/second.
    /// Calibrated from §7.2.1: 1 GB migrates in 13.5 ms ≈ 80 GB/s.
    pub promote_bw: f64,
    /// Base latency of a delete.
    pub delete_base: Duration,
}

impl Default for RcLatency {
    fn default() -> Self {
        RcLatency {
            local_read_base: Duration::from_micros(120),
            remote_extra: Duration::from_micros(2000),
            mem_bw: 8e9,
            net_bw: 1.25e9,
            write_base: Duration::from_micros(180),
            rescale_base: Duration::from_micros(289),
            evict_extra: Duration::from_micros(84),
            promote_base: Duration::from_micros(75),
            promote_bw: 80e9,
            delete_base: Duration::from_micros(90),
        }
    }
}

impl RcLatency {
    /// Latency of a read of `size` bytes, local or remote.
    pub fn read(&self, size: u64, remote: bool) -> Duration {
        let mut d = self.local_read_base + Duration::from_secs_f64(size as f64 / self.mem_bw);
        if remote {
            d += self.remote_extra + Duration::from_secs_f64(size as f64 / self.net_bw);
        }
        d
    }

    /// Latency of a write of `size` bytes (master append + replication,
    /// remote adds the client→master hop).
    pub fn write(&self, size: u64, remote: bool) -> Duration {
        let mut d = self.write_base + Duration::from_secs_f64(size as f64 / self.mem_bw);
        if remote {
            d += self.remote_extra + Duration::from_secs_f64(size as f64 / self.net_bw);
        }
        d
    }

    /// Latency of a migration-by-promotion of `size` bytes.
    pub fn promote(&self, size: u64) -> Duration {
        self.promote_base + Duration::from_secs_f64(size as f64 / self.promote_bw)
    }

    /// Latency of a pool rescale; `evicted` reports whether objects were
    /// dropped.
    pub fn rescale(&self, evicted: bool) -> Duration {
        if evicted {
            self.rescale_base + self.evict_extra
        } else {
            self.rescale_base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promotion_matches_paper_points() {
        let m = RcLatency::default();
        // ~0.18 ms at 8 MB.
        let at_8mb = m.promote(8 << 20).as_secs_f64() * 1e3;
        assert!((0.1..0.3).contains(&at_8mb), "8 MB promote: {at_8mb} ms");
        // ~13.5 ms at 1 GB.
        let at_1gb = m.promote(1 << 30).as_secs_f64() * 1e3;
        assert!((12.0..16.0).contains(&at_1gb), "1 GB promote: {at_1gb} ms");
    }

    #[test]
    fn rescale_matches_paper_points() {
        let m = RcLatency::default();
        let sc1 = m.rescale(false).as_micros();
        let sc3 = m.rescale(true).as_micros();
        assert_eq!(sc1, 289);
        assert_eq!(sc3, 373);
    }

    #[test]
    fn remote_reads_cost_more() {
        let m = RcLatency::default();
        assert!(m.read(1024, true) > m.read(1024, false));
        // ~2 ms extra for small objects, as in §7.2.1.
        let extra = m.read(1024, true) - m.read(1024, false);
        assert!(extra >= Duration::from_millis(2));
        assert!(extra < Duration::from_millis(3));
    }

    #[test]
    fn size_scales_read_and_write() {
        let m = RcLatency::default();
        assert!(m.read(10 << 20, false) > m.read(1 << 10, false));
        assert!(m.write(10 << 20, true) > m.write(1 << 10, true));
    }

    #[test]
    fn promote_size_zero_charges_base_plus_one() {
        // Promotion of a zero-byte object still pays the control cost.
        let m = RcLatency::default();
        assert!(m.promote(0) >= m.promote_base);
    }
}
