//! Signal database.
//!
//! Runnables communicate through named signals — the model-based equivalent
//! of AUTOSAR inter-runnable variables and sender/receiver ports. Signals
//! are `f64` values with a last-written timestamp; booleans are encoded as
//! `0.0` / `1.0`. Controller state (integrators, filters) is also kept in
//! signals, which keeps runnable logic stateless and lets the experiment
//! tooling inspect everything, like ControlDesk instrumenting a Simulink
//! model.

use easis_sim::time::Instant;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a declared signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SignalId(pub u32);

impl SignalId {
    /// Index into the signal table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Slot {
    name: String,
    value: f64,
    updated_at: Instant,
}

/// A database of named scalar signals.
///
/// # Examples
///
/// ```
/// use easis_rte::signal::SignalDb;
/// use easis_sim::time::Instant;
///
/// let mut db = SignalDb::new();
/// let speed = db.declare("vehicle_speed", 0.0);
/// db.write(speed, 13.9, Instant::from_millis(10));
/// assert_eq!(db.read(speed), 13.9);
/// assert_eq!(db.id_of("vehicle_speed"), Some(speed));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SignalDb {
    slots: Vec<Slot>,
    by_name: BTreeMap<String, SignalId>,
}

impl SignalDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        SignalDb::default()
    }

    /// Declares a signal with an initial value. Declaring an existing name
    /// returns the existing id and leaves its value untouched.
    pub fn declare(&mut self, name: &str, initial: f64) -> SignalId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = SignalId(self.slots.len() as u32);
        self.slots.push(Slot {
            name: name.to_string(),
            value: initial,
            updated_at: Instant::ZERO,
        });
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Restores every signal to the given value snapshot (index order) and
    /// clears the update timestamps, as if the values had been the declared
    /// initials — the state-restoration half of world pooling.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot length does not match the declared signals.
    pub fn restore(&mut self, values: &[f64]) {
        assert_eq!(values.len(), self.slots.len(), "snapshot covers all signals");
        for (slot, &value) in self.slots.iter_mut().zip(values) {
            slot.value = value;
            slot.updated_at = Instant::ZERO;
        }
    }

    /// Looks up a signal id by name.
    pub fn id_of(&self, name: &str) -> Option<SignalId> {
        self.by_name.get(name).copied()
    }

    /// Current value.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared id.
    pub fn read(&self, id: SignalId) -> f64 {
        self.slots[id.index()].value
    }

    /// Current value interpreted as a boolean (`!= 0.0`).
    pub fn read_bool(&self, id: SignalId) -> bool {
        self.read(id) != 0.0
    }

    /// Writes a value, stamping the write time.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared id.
    pub fn write(&mut self, id: SignalId, value: f64, now: Instant) {
        let slot = &mut self.slots[id.index()];
        slot.value = value;
        slot.updated_at = now;
    }

    /// Writes a boolean as `1.0` / `0.0`.
    pub fn write_bool(&mut self, id: SignalId, value: bool, now: Instant) {
        self.write(id, if value { 1.0 } else { 0.0 }, now);
    }

    /// When the signal was last written ([`Instant::ZERO`] if never).
    ///
    /// # Panics
    ///
    /// Panics on an undeclared id.
    pub fn updated_at(&self, id: SignalId) -> Instant {
        self.slots[id.index()].updated_at
    }

    /// Name of a signal.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared id.
    pub fn name(&self, id: SignalId) -> &str {
        &self.slots[id.index()].name
    }

    /// Number of declared signals.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if nothing is declared.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Iterates over `(id, name, value)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (SignalId, &str, f64)> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, s)| (SignalId(i as u32), s.name.as_str(), s.value))
    }

    /// Captures every signal's `(value, updated_at)` pair into `snap`,
    /// retaining the snapshot's buffer capacity (allocation-free once
    /// warm). Names are declaration-time constants and stay out.
    pub fn snapshot_into(&self, snap: &mut SignalDbSnapshot) {
        snap.values.clear();
        snap.values
            .extend(self.slots.iter().map(|s| (s.value, s.updated_at)));
    }

    /// Shifts the `updated_at` stamp of the given slots forward by `by` —
    /// the closed-form application of a [`SignalDbSnapshot::derive_shift`]
    /// result, `k` hyperperiods folded into one `by = h * k` shift.
    pub fn shift_updated_at(&mut self, slots: &[u32], by: easis_sim::time::Duration) {
        for &i in slots {
            self.slots[i as usize].updated_at += by;
        }
    }

    /// Restores every signal value captured by [`SignalDb::snapshot_into`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken from a database with a different
    /// signal table (the declared set is a build-time constant).
    pub fn restore_from(&mut self, snap: &SignalDbSnapshot) {
        assert_eq!(
            snap.values.len(),
            self.slots.len(),
            "snapshot covers all signals"
        );
        for (slot, &(value, updated_at)) in self.slots.iter_mut().zip(&snap.values) {
            slot.value = value;
            slot.updated_at = updated_at;
        }
    }
}

/// A deterministic capture of signal values — see
/// [`SignalDb::snapshot_into`]. Plain data (one `(value, updated_at)`
/// pair per declared signal), so node-level snapshots embedding it can be
/// shared across campaign workers.
#[derive(Debug, Clone, Default)]
pub struct SignalDbSnapshot {
    values: Vec<(f64, Instant)>,
}

impl SignalDbSnapshot {
    /// Derives the per-hyperperiod signal delta between two images taken
    /// exactly `h` apart: every value must be bit-identical (steady-state
    /// plants settle to exact fixed points; comparison is on the raw f64
    /// bits, so `NaN` and `-0.0` round-trip too) and every `updated_at`
    /// stamp must be either untouched or shifted by exactly `h`. Writes
    /// the shifted slot indices to `out` and returns `true`, or returns
    /// `false` when any value moved or a stamp shifted non-uniformly.
    pub fn derive_shift(
        a: &SignalDbSnapshot,
        b: &SignalDbSnapshot,
        h: easis_sim::time::Duration,
        out: &mut Vec<u32>,
    ) -> bool {
        if a.values.len() != b.values.len() {
            return false;
        }
        out.clear();
        for (i, (&(va, ta), &(vb, tb))) in a.values.iter().zip(&b.values).enumerate() {
            if va.to_bits() != vb.to_bits() {
                return false;
            }
            if tb == ta + h {
                out.push(i as u32);
            } else if tb != ta {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_read_write_round_trip() {
        let mut db = SignalDb::new();
        let a = db.declare("a", 1.5);
        assert_eq!(db.read(a), 1.5);
        db.write(a, 2.5, Instant::from_millis(3));
        assert_eq!(db.read(a), 2.5);
        assert_eq!(db.updated_at(a), Instant::from_millis(3));
        assert_eq!(db.name(a), "a");
    }

    #[test]
    fn redeclare_returns_same_id_and_keeps_value() {
        let mut db = SignalDb::new();
        let a = db.declare("a", 1.0);
        db.write(a, 9.0, Instant::from_millis(1));
        let a2 = db.declare("a", 555.0);
        assert_eq!(a, a2);
        assert_eq!(db.read(a), 9.0);
    }

    #[test]
    fn bool_encoding() {
        let mut db = SignalDb::new();
        let flag = db.declare("flag", 0.0);
        assert!(!db.read_bool(flag));
        db.write_bool(flag, true, Instant::ZERO);
        assert!(db.read_bool(flag));
        assert_eq!(db.read(flag), 1.0);
    }

    #[test]
    fn unknown_name_lookup_is_none() {
        let db = SignalDb::new();
        assert_eq!(db.id_of("nope"), None);
        assert!(db.is_empty());
    }

    #[test]
    fn iter_lists_all_signals() {
        let mut db = SignalDb::new();
        db.declare("x", 1.0);
        db.declare("y", 2.0);
        let all: Vec<(&str, f64)> = db.iter().map(|(_, n, v)| (n, v)).collect();
        assert_eq!(all, vec![("x", 1.0), ("y", 2.0)]);
        assert_eq!(db.len(), 2);
    }

    #[test]
    #[should_panic]
    fn reading_undeclared_id_panics() {
        let db = SignalDb::new();
        let _ = db.read(SignalId(0));
    }

    #[test]
    fn snapshot_restore_returns_to_captured_values() {
        let mut db = SignalDb::new();
        let a = db.declare("a", 1.0);
        let b = db.declare("b", 2.0);
        db.write(a, 10.0, Instant::from_millis(1));
        let mut snap = SignalDbSnapshot::default();
        db.snapshot_into(&mut snap);

        db.write(b, 99.0, Instant::from_millis(5));
        db.restore_from(&snap);
        assert_eq!((db.read(a), db.read(b)), (10.0, 2.0));
        assert_eq!(db.updated_at(b), Instant::ZERO);

        // The pooled-world value reset in between changes nothing.
        db.restore(&[0.0, 0.0]);
        db.restore_from(&snap);
        assert_eq!(db.read(a), 10.0);
        assert_eq!(db.updated_at(a), Instant::from_millis(1));
    }

    #[test]
    fn snapshot_capture_is_capacity_retained() {
        let mut db = SignalDb::new();
        db.declare("x", 1.0);
        db.declare("y", 2.0);
        let mut snap = SignalDbSnapshot::default();
        db.snapshot_into(&mut snap);
        let values_ptr = snap.values.as_ptr();
        db.write(SignalId(0), 5.0, Instant::from_millis(2));
        db.snapshot_into(&mut snap);
        assert_eq!(values_ptr, snap.values.as_ptr());
        assert_eq!(snap.values[0].0, 5.0);
    }
}
