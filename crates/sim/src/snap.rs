//! Checkpoint support shared by the checkpointable layers.
//!
//! Every runtime component keeps all of its runtime fields in one plain
//! state struct, next to its build-time wiring (names, tables, task
//! bodies, observers, sinks). A checkpoint is a struct of those state
//! values, so capture and restore are each one `clone_from` per
//! component. [`clone_fields!`](crate::clone_fields) wraps a struct
//! definition and emits the `Clone` that makes this cheap: `clone_from`
//! goes field by field, so every vector and string keeps its capacity and
//! a warm capture or restore allocates nothing.
//!
//! [`RestoreStats`] remains as the node-level restore probe that
//! benchmarks aggregate.

/// Wraps a struct definition and implements `Clone` for it field by
/// field. `clone` clones each field; `clone_from` calls each field's
/// `clone_from`, so buffers keep their capacity (a derived `Clone` would
/// replace the whole value and reallocate). A field added to the struct
/// is cloned without further edits. Type parameters (without bounds) are
/// accepted; every field type must be `Clone` for all of them.
///
/// # Examples
///
/// ```
/// easis_sim::clone_fields! {
///     #[derive(Debug, PartialEq)]
///     pub struct Counters {
///         hits: Vec<u32>,
///         total: u64,
///     }
/// }
///
/// let warm = Counters { hits: vec![1, 2, 3], total: 6 };
/// let mut copy = Counters { hits: Vec::with_capacity(8), total: 0 };
/// let buffer = copy.hits.as_ptr();
/// copy.clone_from(&warm);
/// assert_eq!(copy, warm);
/// assert_eq!(copy.hits.as_ptr(), buffer, "the buffer was reused");
/// ```
#[macro_export]
macro_rules! clone_fields {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident $(<$($param:ident),+>)? {
            $($(#[$field_meta:meta])* $field_vis:vis $field:ident : $ty:ty),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name $(<$($param),+>)? {
            $($(#[$field_meta])* $field_vis $field: $ty),*
        }

        impl $(<$($param),+>)? ::core::clone::Clone for $name $(<$($param),+>)?
        where
            $($ty: ::core::clone::Clone),*
        {
            fn clone(&self) -> Self {
                $name {
                    $($field: ::core::clone::Clone::clone(&self.$field)),*
                }
            }

            fn clone_from(&mut self, source: &Self) {
                $(::core::clone::Clone::clone_from(&mut self.$field, &source.$field);)*
            }
        }
    };
}

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

    clone_fields! {
        #[derive(Debug, Default, PartialEq)]
        struct Generic<T> {
            items: Vec<T>,
            label: String,
        }
    }

    #[test]
    fn clone_from_keeps_every_field_buffer() {
        let source = Generic {
            items: vec![1u8, 2],
            label: "ab".to_string(),
        };
        let mut copy = Generic {
            items: Vec::with_capacity(16),
            label: String::with_capacity(16),
        };
        let buffers = (copy.items.as_ptr(), copy.label.as_ptr());
        copy.clone_from(&source);
        assert_eq!(copy, source);
        assert_eq!((copy.items.as_ptr(), copy.label.as_ptr()), buffers);
        assert_eq!(source.clone(), source);
    }
}
