//! Restore accounting shared by the checkpointable layers.
//!
//! Every snapshot-capable component restores with one exact full copy into
//! capacity-retained buffers (`clone_from`, spare pools), so there is no
//! dirty tracking to report. [`RestoreStats`] remains as the node-level
//! restore probe that benchmarks aggregate.

/// Region-level accounting of one `restore_from` call: "total" counts the
/// regions examined, "copied" the regions written back. With full-copy
/// restores the two are always equal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreStats {
    /// Regions examined by the restore.
    pub regions_total: u64,
    /// Regions whose content was actually copied back.
    pub regions_copied: u64,
}

impl RestoreStats {
    /// Folds another restore's stats into this one.
    #[inline]
    pub fn absorb(&mut self, other: RestoreStats) {
        self.regions_total += other.regions_total;
        self.regions_copied += other.regions_copied;
    }

    /// Copied-to-total ratio; `0.0` when nothing was examined.
    pub fn dirty_fraction(&self) -> f64 {
        if self.regions_total == 0 {
            0.0
        } else {
            self.regions_copied as f64 / self.regions_total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restore_stats_accumulate_and_report_dirty_fraction() {
        let mut stats = RestoreStats {
            regions_total: 4,
            regions_copied: 1,
        };
        stats.absorb(RestoreStats {
            regions_total: 4,
            regions_copied: 4,
        });
        assert_eq!(stats.regions_total, 8);
        assert_eq!(stats.regions_copied, 5);
        assert!((stats.dirty_fraction() - 5.0 / 8.0).abs() < 1e-12);
        assert_eq!(RestoreStats::default().dirty_fraction(), 0.0);
    }
}
