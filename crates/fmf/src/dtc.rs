//! Diagnostic trouble code (DTC) fault memory.
//!
//! Production automotive fault management persists detections as DTCs with
//! occurrence counters, status bits and a freeze frame of the conditions at
//! first detection — this is what the workshop tester reads out. The EASIS
//! Fault Management Framework "gathers the information on the detected
//! faults"; [`DtcStore`] is that gathered memory, following the ISO 14229
//! status-bit spirit (pending → confirmed → aged out).

use easis_rte::runnable::RunnableId;
use easis_rte::signal::SignalId;
use easis_sim::time::{Duration, Instant};
use easis_watchdog::report::{DetectedFault, FaultKind};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A diagnostic trouble code. Encodes the fault source and kind:
/// `0x94_RRRR_KK` with `RRRR` the runnable id and `KK` the fault kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DtcCode(pub u32);

impl DtcCode {
    /// Derives the code of a watchdog fault.
    pub fn of(runnable: RunnableId, kind: FaultKind) -> Self {
        let kind_code = match kind {
            FaultKind::Aliveness => 0x01,
            FaultKind::ArrivalRate => 0x02,
            FaultKind::ProgramFlow => 0x03,
        };
        DtcCode(0x9400_0000 | ((runnable.0 & 0xFFFF) << 8) | kind_code)
    }

    /// The encoded runnable.
    pub fn runnable(self) -> RunnableId {
        RunnableId((self.0 >> 8) & 0xFFFF)
    }

    /// The encoded fault kind, if valid.
    pub fn kind(self) -> Option<FaultKind> {
        match self.0 & 0xFF {
            0x01 => Some(FaultKind::Aliveness),
            0x02 => Some(FaultKind::ArrivalRate),
            0x03 => Some(FaultKind::ProgramFlow),
            _ => None,
        }
    }
}

impl fmt::Display for DtcCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DTC-{:08X}", self.0)
    }
}

/// Maturity of a stored code (ISO 14229 spirit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DtcStatus {
    /// Seen, but below the confirmation threshold.
    #[default]
    Pending,
    /// Confirmed (threshold reached); survives until cleared or aged out.
    Confirmed,
}

/// The operating conditions at a code's first occurrence: up to two
/// signal values, each under its signal id. Like an ISO 14229 snapshot
/// record it carries data identifiers and values but no names: the node's
/// `SignalDb` names the signals. Empty slots are `None`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FreezeFrame {
    /// Signal values by id (e.g. the measured vehicle speed).
    pub conditions: [Option<(SignalId, f64)>; 2],
}

/// One stored code.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DtcRecord {
    /// The code.
    pub code: DtcCode,
    /// First occurrence time.
    pub first_seen: Instant,
    /// Latest occurrence time.
    pub last_seen: Instant,
    /// Occurrence counter.
    pub occurrences: u32,
    /// Pending / confirmed.
    pub status: DtcStatus,
    /// Conditions at first occurrence.
    pub freeze_frame: FreezeFrame,
    /// Healthy operating cycles since the last occurrence (for aging).
    healthy_cycles: u32,
}

easis_sim::clone_fields! {
    /// The fault memory: the records and the two aging parameters. It is
    /// its own checkpoint, as part of the FMF's state.
    ///
    /// Records sit in one vector sorted by code, so a look-up is a binary
    /// search and iteration is code order. A campaign node holds a
    /// handful of codes (at most three per monitored runnable), where a
    /// sorted vector beats a tree and keeps its capacity across rewinds;
    /// the records are plain `Copy` data, so a restore copies them into
    /// that capacity and allocates nothing.
    ///
    /// # Examples
    ///
    /// ```
    /// use easis_fmf::dtc::{DtcCode, DtcStore, FreezeFrame};
    /// use easis_rte::runnable::RunnableId;
    /// use easis_sim::time::Instant;
    /// use easis_watchdog::report::{DetectedFault, FaultKind};
    ///
    /// let mut store = DtcStore::new(2, 10);
    /// let fault = DetectedFault {
    ///     at: Instant::from_millis(30),
    ///     runnable: RunnableId(1),
    ///     kind: FaultKind::Aliveness,
    /// };
    /// store.record(fault, FreezeFrame::default());
    /// assert_eq!(store.len(), 1);
    /// ```
    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    pub struct DtcStore {
        /// Records, sorted by code.
        records: Vec<DtcRecord>,
        confirm_threshold: u32,
        aging_cycles: u32,
    }
}

impl DtcStore {
    /// Creates a store: a code confirms after `confirm_threshold`
    /// occurrences and a *pending* code ages out after `aging_cycles`
    /// healthy operating cycles (confirmed codes persist until cleared).
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(confirm_threshold: u32, aging_cycles: u32) -> Self {
        assert!(
            confirm_threshold > 0,
            "confirmation threshold must be positive"
        );
        assert!(aging_cycles > 0, "aging horizon must be positive");
        DtcStore {
            records: Vec::new(),
            confirm_threshold,
            aging_cycles,
        }
    }

    /// Records a fault occurrence; the freeze frame is kept only for the
    /// first occurrence. Returns the code.
    pub fn record(&mut self, fault: DetectedFault, freeze_frame: FreezeFrame) -> DtcCode {
        let code = DtcCode::of(fault.runnable, fault.kind);
        let i = match self.records.binary_search_by_key(&code, |r| r.code) {
            Ok(i) => i,
            Err(i) => {
                let record = DtcRecord {
                    code,
                    first_seen: fault.at,
                    last_seen: fault.at,
                    occurrences: 0,
                    status: DtcStatus::Pending,
                    freeze_frame,
                    healthy_cycles: 0,
                };
                self.records.insert(i, record);
                i
            }
        };
        let record = &mut self.records[i];
        record.occurrences += 1;
        record.last_seen = fault.at;
        record.healthy_cycles = 0;
        if record.occurrences >= self.confirm_threshold {
            record.status = DtcStatus::Confirmed;
        }
        code
    }

    /// Marks one healthy operating cycle: pending codes age and eventually
    /// drop out; confirmed codes persist.
    pub fn healthy_cycle(&mut self) {
        self.apply_aging(1, 1);
    }

    /// Clears one code (tester "clear DTC"). Returns `true` if it existed.
    pub fn clear(&mut self, code: DtcCode) -> bool {
        match self.records.binary_search_by_key(&code, |r| r.code) {
            Ok(i) => {
                self.records.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Looks up a record.
    pub fn get(&self, code: DtcCode) -> Option<&DtcRecord> {
        self.records
            .binary_search_by_key(&code, |r| r.code)
            .ok()
            .map(|i| &self.records[i])
    }

    /// All records, sorted by code.
    pub fn iter(&self) -> impl Iterator<Item = &DtcRecord> {
        self.records.iter()
    }

    /// Confirmed records only (what a tester readout shows by default).
    pub fn confirmed(&self) -> impl Iterator<Item = &DtcRecord> {
        self.records
            .iter()
            .filter(|r| r.status == DtcStatus::Confirmed)
    }

    /// Number of stored codes.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the memory is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Applies `k` certified hyperperiods of DTC aging in closed form:
    /// every *pending* record's healthy-cycle counter advances by `inc`
    /// per hyperperiod (the increment [`DtcStore::measure_aging`]
    /// measured), and every record that reaches the aging horizon drops
    /// out — the store ends exactly as `inc · k`
    /// [`DtcStore::healthy_cycle`] calls would leave it. Any `k` is valid:
    /// the advance saturates in u64.
    pub fn apply_aging(&mut self, inc: u32, k: u64) {
        let add = u64::from(inc).saturating_mul(k);
        if add == 0 {
            return;
        }
        let aging = u64::from(self.aging_cycles);
        self.records.retain_mut(|rec| {
            if rec.status == DtcStatus::Confirmed {
                return true;
            }
            let cycles = u64::from(rec.healthy_cycles).saturating_add(add);
            if cycles >= aging {
                return false;
            }
            rec.healthy_cycles = cycles as u32; // below the u32 horizon
            true
        });
    }

    /// Measures the per-hyperperiod aging increment between two stores
    /// one hyperperiod apart: the healthy-cycle advance of the first
    /// pending record, 0 when none is pending. `None` when the record
    /// count changed: a *sampled* hyperperiod that straddles a new code or
    /// an age-out has no uniform advance to measure.
    ///
    /// Certification applies the increment to `a` once
    /// ([`DtcStore::apply_aging`]) and compares the result with `b`, so
    /// every other pending record must have advanced by the same amount,
    /// confirmed records must sit still, and codes, occurrences,
    /// timestamps, status and freeze frames must be unchanged. Once
    /// certified, the increment is applied across later age-outs.
    pub fn measure_aging(a: &Self, b: &Self) -> Option<u32> {
        if a.records.len() != b.records.len() {
            return None;
        }
        let first_pending = a
            .records
            .iter()
            .zip(&b.records)
            .find(|(ra, _)| ra.status == DtcStatus::Pending);
        Some(first_pending.map_or(0, |(ra, rb)| {
            rb.healthy_cycles.saturating_sub(ra.healthy_cycles)
        }))
    }
}

impl DtcStore {
    /// Measures how far each confirmed record's occurrence count in `b` is
    /// ahead of `a`'s, record by record (0 for pending records). A
    /// confirmed record's count is read only against the confirmation
    /// threshold it has already passed, and its `last_seen` stamp only by
    /// reports, so a faulty steady state may raise the one and move the
    /// other every hyperperiod. A pending record's occurrences measure 0:
    /// the threshold will read them, and the caller's comparison rejects
    /// their growth.
    pub fn measure_occurrences(a: &Self, b: &Self, growth: &mut Vec<u64>) {
        growth.clear();
        growth.extend(a.records.iter().zip(&b.records).map(|(ra, rb)| {
            if ra.status == DtcStatus::Confirmed {
                u64::from(rb.occurrences.saturating_sub(ra.occurrences))
            } else {
                0
            }
        }));
    }

    /// Raises each record's occurrence count by `k` times its measured
    /// growth and moves a grown record's `last_seen` `by` later.
    ///
    /// # Panics
    ///
    /// Panics if an occurrence count overflows `u32`.
    pub fn advance_occurrences(&mut self, growth: &[u64], k: u64, by: Duration) {
        for (record, &d) in self.records.iter_mut().zip(growth) {
            if d != 0 {
                record.occurrences = u32::try_from(u64::from(record.occurrences) + d * k)
                    .expect("occurrence count overflow");
                record.last_seen += by;
            }
        }
    }
}

impl Default for DtcStore {
    fn default() -> Self {
        DtcStore::new(3, 40)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fault(runnable: u32, kind: FaultKind, ms: u64) -> DetectedFault {
        DetectedFault {
            at: Instant::from_millis(ms),
            runnable: RunnableId(runnable),
            kind,
        }
    }

    /// A frame of one signal's value.
    fn frame(value: f64) -> FreezeFrame {
        FreezeFrame {
            conditions: [Some((SignalId(0), value)), None],
        }
    }

    #[test]
    fn code_derivation_round_trips() {
        let code = DtcCode::of(RunnableId(7), FaultKind::ProgramFlow);
        assert_eq!(code.runnable(), RunnableId(7));
        assert_eq!(code.kind(), Some(FaultKind::ProgramFlow));
        assert!(code.to_string().starts_with("DTC-94"));
        assert_eq!(DtcCode(0x9400_0000).kind(), None);
    }

    #[test]
    fn confirmed_records_grow_and_pending_ones_are_refused() {
        let h = Duration::from_millis(20);
        let mut store = DtcStore::new(3, 10);
        // Aliveness on R1 every 20 ms confirms at the third occurrence.
        for ms in [10, 30, 50] {
            store.record(fault(1, FaultKind::Aliveness, ms), FreezeFrame::default());
        }
        let certifies = |a: &DtcStore, b: &DtcStore| {
            let mut growth = Vec::new();
            DtcStore::measure_occurrences(a, b, &mut growth);
            let mut advanced = a.clone();
            advanced.advance_occurrences(&growth, 1, h);
            advanced == *b
        };
        let a = store.clone();
        store.record(fault(1, FaultKind::Aliveness, 70), FreezeFrame::default());
        assert!(certifies(&a, &store));
        let mut growth = Vec::new();
        DtcStore::measure_occurrences(&a, &store, &mut growth);
        let mut jumped = store.clone();
        jumped.advance_occurrences(&growth, 2, h * 2);
        for ms in [90, 110] {
            store.record(fault(1, FaultKind::Aliveness, ms), FreezeFrame::default());
        }
        assert_eq!(jumped, store);
        // A pending record's occurrences count towards confirmation.
        store.record(
            fault(2, FaultKind::ProgramFlow, 115),
            FreezeFrame::default(),
        );
        let a = store.clone();
        store.record(
            fault(2, FaultKind::ProgramFlow, 135),
            FreezeFrame::default(),
        );
        let code = DtcCode::of(RunnableId(2), FaultKind::ProgramFlow);
        assert_eq!(store.get(code).unwrap().status, DtcStatus::Pending);
        assert!(!certifies(&a, &store));
    }

    #[test]
    fn occurrences_accumulate_and_confirm() {
        let mut store = DtcStore::new(3, 10);
        let f = fault(1, FaultKind::Aliveness, 10);
        let code = store.record(f, FreezeFrame::default());
        store.record(fault(1, FaultKind::Aliveness, 20), FreezeFrame::default());
        assert_eq!(store.get(code).unwrap().status, DtcStatus::Pending);
        store.record(fault(1, FaultKind::Aliveness, 30), FreezeFrame::default());
        let rec = store.get(code).unwrap();
        assert_eq!(rec.status, DtcStatus::Confirmed);
        assert_eq!(rec.occurrences, 3);
        assert_eq!(rec.first_seen, Instant::from_millis(10));
        assert_eq!(rec.last_seen, Instant::from_millis(30));
        assert_eq!(store.confirmed().count(), 1);
    }

    #[test]
    fn freeze_frame_is_from_first_occurrence() {
        let mut store = DtcStore::new(2, 10);
        let code = store.record(fault(2, FaultKind::ArrivalRate, 5), frame(13.9));
        store.record(fault(2, FaultKind::ArrivalRate, 50), frame(99.0));
        assert_eq!(store.get(code).unwrap().freeze_frame, frame(13.9));
    }

    #[test]
    fn distinct_sources_get_distinct_codes() {
        let mut store = DtcStore::new(1, 10);
        store.record(fault(1, FaultKind::Aliveness, 1), FreezeFrame::default());
        store.record(fault(1, FaultKind::ProgramFlow, 2), FreezeFrame::default());
        store.record(fault(2, FaultKind::Aliveness, 3), FreezeFrame::default());
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn pending_codes_age_out_confirmed_persist() {
        let mut store = DtcStore::new(2, 3);
        let pending = store.record(fault(1, FaultKind::Aliveness, 1), FreezeFrame::default());
        let confirmed = store.record(fault(2, FaultKind::Aliveness, 2), FreezeFrame::default());
        store.record(fault(2, FaultKind::Aliveness, 3), FreezeFrame::default());
        for _ in 0..3 {
            store.healthy_cycle();
        }
        assert!(store.get(pending).is_none(), "pending code must age out");
        assert!(
            store.get(confirmed).is_some(),
            "confirmed code must persist"
        );
    }

    #[test]
    fn reoccurrence_resets_aging() {
        let mut store = DtcStore::new(5, 3);
        let code = store.record(fault(1, FaultKind::Aliveness, 1), FreezeFrame::default());
        store.healthy_cycle();
        store.healthy_cycle();
        store.record(fault(1, FaultKind::Aliveness, 40), FreezeFrame::default());
        store.healthy_cycle();
        store.healthy_cycle();
        assert!(
            store.get(code).is_some(),
            "aging must restart on reoccurrence"
        );
    }

    #[test]
    fn clear_semantics() {
        let mut store = DtcStore::new(1, 10);
        let code = store.record(fault(1, FaultKind::Aliveness, 1), FreezeFrame::default());
        assert!(store.clear(code));
        assert!(!store.clear(code));
        assert!(store.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        let _ = DtcStore::new(0, 1);
    }

    #[test]
    fn closed_form_aging_matches_event_level_healthy_cycles() {
        let (early, late) = (
            DtcCode::of(RunnableId(1), FaultKind::Aliveness),
            DtcCode::of(RunnableId(3), FaultKind::ArrivalRate),
        );
        let build = || {
            let mut store = DtcStore::new(3, 40);
            // Two pending codes (1 occurrence < 3) that age out on
            // different cycles, and one confirmed code that never does.
            store.record(fault(1, FaultKind::Aliveness, 10), FreezeFrame::default());
            for ms in [20, 30, 40] {
                store.record(fault(2, FaultKind::ProgramFlow, ms), FreezeFrame::default());
            }
            for _ in 0..3 {
                store.healthy_cycle();
            }
            store.record(fault(3, FaultKind::ArrivalRate, 50), frame(7.0));
            store
        };
        // Hyperperiods of 2 healthy cycles each: 6 stay below the 40-cycle
        // horizon, 19 retire `early` only, 20 retire both pending codes.
        for k in [6, 19, 20, 1_000] {
            let mut stepped = build();
            let mut jumped = build();
            for _ in 0..2 * k {
                stepped.healthy_cycle();
            }
            jumped.apply_aging(2, k);
            assert_eq!(stepped, jumped, "k = {k}");
            assert_eq!(jumped.get(early).is_some(), k < 19, "k = {k}");
            assert_eq!(jumped.get(late).is_some(), k < 20, "k = {k}");
            assert_eq!(jumped.confirmed().count(), 1);
        }
        // A huge advance saturates instead of overflowing.
        let mut jumped = build();
        jumped.apply_aging(u32::MAX, u64::MAX);
        assert_eq!(jumped.len(), 1);
        // A code that aged out is recorded afresh, with the new frame.
        let mut store = build();
        store.apply_aging(2, 20);
        store.record(fault(3, FaultKind::ArrivalRate, 900), frame(9.0));
        let reborn = store.get(late).unwrap();
        assert_eq!(reborn.freeze_frame, frame(9.0));
        assert_eq!((reborn.occurrences, reborn.status), (1, DtcStatus::Pending));
    }

    #[test]
    fn measured_aging_applied_once_reproduces_the_later_store() {
        let mut store = DtcStore::new(3, 40);
        store.record(fault(1, FaultKind::Aliveness, 10), FreezeFrame::default());
        for ms in [20, 30, 40] {
            store.record(fault(2, FaultKind::ProgramFlow, ms), FreezeFrame::default());
        }
        // Certification: measure, apply once, compare whole.
        let certifies = |a: &DtcStore, b: &DtcStore| {
            let mut advanced = DtcStore::default();
            advanced.clone_from(a);
            advanced.apply_aging(DtcStore::measure_aging(a, b).unwrap(), 1);
            advanced == *b
        };
        let mut a = DtcStore::default();
        let mut b = DtcStore::default();
        a.clone_from(&store);
        store.healthy_cycle();
        store.healthy_cycle();
        b.clone_from(&store);
        // The pending code aged by 2; the confirmed one sat still.
        assert_eq!(DtcStore::measure_aging(&a, &b), Some(2));
        assert!(certifies(&a, &b));
        // At rest the increment is zero…
        assert_eq!(DtcStore::measure_aging(&a, &a), Some(0));
        assert!(certifies(&a, &a));
        // …a repeat occurrence keeps the record count, so it is the
        // comparison that rejects it, not the measurement…
        store.record(fault(1, FaultKind::Aliveness, 90), FreezeFrame::default());
        b.clone_from(&store);
        assert_eq!(a.len(), b.len());
        assert!(!certifies(&a, &b));
        // …and an age-out removal changes the count, which the
        // measurement refuses.
        let mut c = DtcStore::default();
        for _ in 0..40 {
            store.healthy_cycle();
        }
        c.clone_from(&store);
        assert_eq!(DtcStore::measure_aging(&b, &c), None);
    }

    #[test]
    fn nothing_pending_means_no_age_out_horizon() {
        let mut store = DtcStore::new(1, 10);
        store.apply_aging(2, 5); // no-op on an empty memory
        assert!(store.is_empty());
        let code = store.record(fault(1, FaultKind::Aliveness, 5), FreezeFrame::default());
        // confirm_threshold 1: immediately confirmed, never ages — not
        // even across any number of jumped hyperperiods.
        store.apply_aging(2, u64::MAX);
        assert_eq!(store.get(code).unwrap().status, DtcStatus::Confirmed);
        let mut snap = DtcStore::default();
        snap.clone_from(&store);
        assert_eq!(DtcStore::measure_aging(&snap, &snap), Some(0));
    }

    #[test]
    fn a_store_whose_only_code_aged_out_equals_a_fresh_one() {
        let fresh = DtcStore::new(3, 4);
        let mut store = DtcStore::new(3, 4);
        store.record(fault(1, FaultKind::Aliveness, 5), frame(3.0));
        assert_ne!(store, fresh);
        for _ in 0..4 {
            store.healthy_cycle();
        }
        assert!(store.is_empty());
        assert_eq!(store, fresh);
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut store = DtcStore::new(2, 10);
        let code = store.record(fault(1, FaultKind::Aliveness, 5), frame(42.0));
        let mut snap = DtcStore::default();
        snap.clone_from(&store);
        // Diverge: confirm the code and add another.
        store.record(fault(1, FaultKind::Aliveness, 15), FreezeFrame::default());
        store.record(fault(2, FaultKind::ProgramFlow, 20), FreezeFrame::default());
        assert_eq!(store.get(code).unwrap().status, DtcStatus::Confirmed);
        store.clone_from(&snap);
        assert_eq!(store.len(), 1);
        let rec = store.get(code).unwrap();
        assert_eq!(rec.status, DtcStatus::Pending);
        assert_eq!(rec.occurrences, 1);
        assert_eq!(rec.freeze_frame, frame(42.0));
        store.record(fault(3, FaultKind::ArrivalRate, 30), FreezeFrame::default());
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn repeated_snapshot_capture_reuses_buffers() {
        let mut store = DtcStore::new(2, 10);
        store.record(fault(1, FaultKind::Aliveness, 5), frame(1.0));
        let mut snap = DtcStore::default();
        snap.clone_from(&store);
        let buffer = (snap.records.as_ptr(), snap.records.capacity());
        store.record(fault(1, FaultKind::Aliveness, 15), FreezeFrame::default());
        snap.clone_from(&store);
        assert_eq!((snap.records.as_ptr(), snap.records.capacity()), buffer);
        assert_eq!(snap.records[0].occurrences, 2);
        assert_eq!(snap.records[0].freeze_frame, frame(1.0));
    }
}
