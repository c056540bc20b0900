//! Per-operation latency models for the storage substrates.
//!
//! Each model is first-order: `base + size / bandwidth` per operation class.
//! The presets are calibrated to the measurements reported in the paper
//! (§7.2.1 and Figures 3/7); see `DESIGN.md` §5 for the constant inventory.

use std::time::Duration;

/// Latency model of a storage service: one of the presets below.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    /// Base latency of a data read (GET).
    read_base: Duration,
    /// Read bandwidth in bytes per second.
    read_bw: f64,
    /// Base latency of a data write (PUT with payload).
    write_base: Duration,
    /// Write bandwidth in bytes per second.
    write_bw: f64,
    /// Latency of a metadata-only operation: HEAD, empty-payload PUT
    /// (shadow creation — measured at ~11 ms on Swift, §7.2.1), LIST.
    meta_base: Duration,
    /// Latency of a DELETE.
    delete_base: Duration,
}

impl LatencyModel {
    /// Latency of reading an object of `size` bytes.
    pub fn read(&self, size: u64) -> Duration {
        self.read_base + Self::xfer(size, self.read_bw)
    }

    /// Latency of writing an object of `size` bytes.
    ///
    /// A zero-byte write is a metadata operation (shadow-object creation
    /// takes the Swift fast path in the paper).
    pub fn write(&self, size: u64) -> Duration {
        if size == 0 {
            self.meta_base
        } else {
            self.write_base + Self::xfer(size, self.write_bw)
        }
    }

    /// Latency of a metadata operation (HEAD, LIST, or a request refused
    /// before any payload moves).
    pub fn meta(&self) -> Duration {
        self.meta_base
    }

    /// Latency of a delete.
    pub fn delete(&self) -> Duration {
        self.delete_base
    }

    fn xfer(size: u64, bw: f64) -> Duration {
        Duration::from_secs_f64(size as f64 / bw)
    }

    /// OpenStack Swift over a datacenter network, as measured in §7.2.1:
    /// E-phase base ≈ 42 ms and L-phase base ≈ 110 ms for small objects
    /// (Swift PUTs pay quorum replication), shadow creation ≈ 11 ms.
    pub fn swift() -> Self {
        LatencyModel {
            read_base: Duration::from_millis(42),
            read_bw: 40e6,
            write_base: Duration::from_millis(108),
            write_bw: 28e6,
            meta_base: Duration::from_millis(11),
            delete_base: Duration::from_millis(20),
        }
    }

    /// ElastiCache-style Redis over the same network (the `OWK-Redis`
    /// best-case baseline of §7.2): sub-millisecond base, wire-speed bulk.
    pub fn redis() -> Self {
        LatencyModel {
            read_base: Duration::from_micros(350),
            read_bw: 1.0e9,
            write_base: Duration::from_micros(400),
            write_bw: 1.0e9,
            meta_base: Duration::from_micros(200),
            delete_base: Duration::from_micros(200),
        }
    }

    /// An instantaneous model (for unit tests that ignore time).
    pub fn instant() -> Self {
        LatencyModel {
            read_base: Duration::ZERO,
            read_bw: f64::INFINITY,
            write_base: Duration::ZERO,
            write_bw: f64::INFINITY,
            meta_base: Duration::ZERO,
            delete_base: Duration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_scales_with_size() {
        let m = LatencyModel {
            read_base: Duration::from_millis(10),
            read_bw: 1e6,
            ..LatencyModel::instant()
        };
        assert_eq!(m.read(0), Duration::from_millis(10));
        assert_eq!(m.read(1_000_000), Duration::from_millis(1010));
    }

    #[test]
    fn empty_write_takes_meta_path() {
        let m = LatencyModel::swift();
        assert_eq!(m.write(0), Duration::from_millis(11));
        assert!(m.write(1) >= Duration::from_millis(108));
    }

    #[test]
    fn presets_are_ordered_sensibly() {
        // Redis must beat Swift on both paths.
        let (sw, rd) = (LatencyModel::swift(), LatencyModel::redis());
        let size = 128 * 1024;
        assert!(rd.read(size) < sw.read(size));
        assert!(rd.write(size) < sw.write(size));
    }

    #[test]
    fn instant_is_zero() {
        let m = LatencyModel::instant();
        assert_eq!(m.read(1 << 30), Duration::ZERO);
        assert_eq!(m.write(1 << 30), Duration::ZERO);
    }
}
