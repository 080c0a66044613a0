//! Per-site storage elements with capacity accounting.

/// A storage element (the disk/tape endpoint of a site).
#[derive(Debug, Clone, PartialEq)]
pub struct StorageElement {
    /// Site (or endpoint) name this storage belongs to.
    pub name: String,
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Bytes currently in use.
    pub used_bytes: u64,
    /// Number of successful reservations.
    pub reservations: u64,
    /// Number of reservations rejected for lack of space.
    pub rejections: u64,
}

impl StorageElement {
    /// Creates an empty storage element with the given capacity.
    pub fn new(name: impl Into<String>, capacity_bytes: u64) -> Self {
        StorageElement {
            name: name.into(),
            capacity_bytes,
            used_bytes: 0,
            reservations: 0,
            rejections: 0,
        }
    }

    /// Remaining free space.
    pub(crate) fn free_bytes(&self) -> u64 {
        self.capacity_bytes.saturating_sub(self.used_bytes)
    }

    /// Fraction of capacity in use (0 for a zero-capacity element).
    pub fn utilization(&self) -> f64 {
        if self.capacity_bytes == 0 {
            0.0
        } else {
            self.used_bytes as f64 / self.capacity_bytes as f64
        }
    }

    /// Attempts to reserve `bytes`; returns whether the reservation fit.
    pub fn reserve(&mut self, bytes: u64) -> bool {
        if bytes <= self.free_bytes() {
            self.used_bytes += bytes;
            self.reservations += 1;
            true
        } else {
            self.rejections += 1;
            false
        }
    }

    /// Releases `bytes` (saturating at zero).
    pub fn release(&mut self, bytes: u64) {
        self.used_bytes = self.used_bytes.saturating_sub(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release_accounting() {
        let mut se = StorageElement::new("BNL-DATADISK", 1_000);
        assert!(se.reserve(400));
        assert!(se.reserve(600));
        assert_eq!(se.free_bytes(), 0);
        assert!(!se.reserve(1));
        assert_eq!(se.rejections, 1);
        assert_eq!(se.reservations, 2);
        se.release(500);
        assert_eq!(se.used_bytes, 500);
        assert!((se.utilization() - 0.5).abs() < 1e-12);
        se.release(10_000);
        assert_eq!(se.used_bytes, 0);
    }

    #[test]
    fn zero_capacity_is_safe() {
        let mut se = StorageElement::new("empty", 0);
        assert_eq!(se.utilization(), 0.0);
        assert!(!se.reserve(1));
        assert!(se.reserve(0));
    }
}
