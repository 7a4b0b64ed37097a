//! Signal database.
//!
//! Runnables communicate through named signals — the model-based equivalent
//! of AUTOSAR inter-runnable variables and sender/receiver ports. Signals
//! are `f64` values with a last-written timestamp; booleans are encoded as
//! `0.0` / `1.0`. Controller state (integrators, filters) is also kept in
//! signals, which keeps runnable logic stateless and lets the experiment
//! tooling inspect everything, like ControlDesk instrumenting a Simulink
//! model.

use easis_sim::time::{Duration, Instant};
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
    /// Signal names by id: declaration-time wiring.
    names: Vec<String>,
    by_name: BTreeMap<String, SignalId>,
    state: SignalState,
}

easis_sim::clone_fields! {
    /// Every signal's value and last-write time, by signal id — the
    /// database's runtime state and checkpoint ([`SignalDb::state`],
    /// [`SignalDb::restore`]). Names are declaration-time wiring and stay
    /// out.
    #[derive(Debug, Default, Serialize, Deserialize)]
    pub struct SignalState {
        values: Vec<(f64, Instant)>,
    }
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
        let id = SignalId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.state.values.push((initial, Instant::ZERO));
        self.by_name.insert(name.to_string(), id);
        id
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
        self.state.values[id.index()].0
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
        self.state.values[id.index()] = (value, now);
    }

    /// Writes a boolean as `1.0` / `0.0`.
    pub fn write_bool(&mut self, id: SignalId, value: bool, now: Instant) {
        self.write(id, if value { 1.0 } else { 0.0 }, now);
    }

    /// Name of a signal.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared id.
    pub fn name(&self, id: SignalId) -> &str {
        &self.names[id.index()]
    }

    /// Number of declared signals.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` if nothing is declared.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(id, name, value)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (SignalId, &str, f64)> {
        self.names
            .iter()
            .zip(&self.state.values)
            .enumerate()
            .map(|(i, (name, &(value, _)))| (SignalId(i as u32), name.as_str(), value))
    }

    /// Jumps the given slots' stamps `by` ahead
    /// ([`SignalState::advance`] on the live state).
    pub fn advance(&mut self, slots: &[u32], by: Duration) {
        self.state.advance(slots, by);
    }

    /// The signal values — the database's checkpoint (see
    /// [`SignalState`]).
    pub fn state(&self) -> &SignalState {
        &self.state
    }

    /// Restores values captured from [`SignalDb::state`] with one
    /// `clone_from`.
    pub fn restore(&mut self, state: &SignalState) {
        self.state.clone_from(state);
    }
}

/// Bitwise on the values: `NaN` equals itself and `-0.0` differs from
/// `0.0`, so a steady-state plant that settled to an exact fixed point
/// compares equal across a hyperperiod.
impl PartialEq for SignalState {
    fn eq(&self, other: &Self) -> bool {
        self.values.len() == other.values.len()
            && self
                .values
                .iter()
                .zip(&other.values)
                .all(|(&(va, ta), &(vb, tb))| va.to_bits() == vb.to_bits() && ta == tb)
    }
}

impl SignalState {
    /// Writes to `slots` the indices of the signals whose last-written
    /// stamp in `b` is exactly `h` after the one in `a`: the signals
    /// rewritten every hyperperiod. Certification advances `a` by them once
    /// and compares the result with `b`, so every value must be
    /// bit-identical and every other stamp untouched.
    pub fn measure(a: &Self, b: &Self, h: Duration, slots: &mut Vec<u32>) {
        slots.clear();
        for (i, (&(_, ta), &(_, tb))) in a.values.iter().zip(&b.values).enumerate() {
            if tb == ta + h {
                slots.push(i as u32);
            }
        }
    }

    /// Moves the given slots' stamps `by` later: one hyperperiod on a
    /// certification sample, `k` of them folded into one shift when
    /// jumping.
    pub fn advance(&mut self, slots: &[u32], by: Duration) {
        for &i in slots {
            self.values[i as usize].1 += by;
        }
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
        assert_eq!(db.state.values[a.index()].1, Instant::from_millis(3));
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
        let mut snap = SignalState::default();
        snap.clone_from(db.state());

        db.write(b, 99.0, Instant::from_millis(5));
        db.restore(&snap);
        assert_eq!(db.state(), &snap);
        assert_eq!((db.read(a), db.read(b)), (10.0, 2.0));
        assert_eq!(db.state.values[b.index()].1, Instant::ZERO);
        assert_eq!(db.state.values[a.index()].1, Instant::from_millis(1));
    }

    #[test]
    fn snapshot_capture_is_capacity_retained() {
        let mut db = SignalDb::new();
        db.declare("x", 1.0);
        db.declare("y", 2.0);
        let mut snap = SignalState::default();
        snap.clone_from(db.state());
        let values_ptr = snap.values.as_ptr();
        db.write(SignalId(0), 5.0, Instant::from_millis(2));
        snap.clone_from(db.state());
        assert_eq!(values_ptr, snap.values.as_ptr());
        assert_eq!(snap.values[0].0, 5.0);
    }

    #[test]
    fn snapshot_equality_is_bitwise() {
        let capture = |value: f64, at: Instant| {
            let mut db = SignalDb::new();
            let x = db.declare("x", 0.0);
            db.write(x, value, at);
            db.state().clone()
        };
        let t = Instant::from_millis(1);
        assert_eq!(capture(1.5, t), capture(1.5, t));
        assert_eq!(capture(f64::NAN, t), capture(f64::NAN, t));
        assert_ne!(capture(-0.0, t), capture(0.0, t));
        assert_ne!(capture(1.5, t), capture(1.5, Instant::from_millis(2)));
    }
}
