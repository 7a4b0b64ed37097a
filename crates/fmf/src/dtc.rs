//! Diagnostic trouble code (DTC) fault memory.
//!
//! Production automotive fault management persists detections as DTCs with
//! occurrence counters, status bits and a freeze frame of the conditions at
//! first detection — this is what the workshop tester reads out. The EASIS
//! Fault Management Framework "gathers the information on the detected
//! faults"; [`DtcStore`] is that gathered memory, following the ISO 14229
//! status-bit spirit (pending → confirmed → aged out).

use easis_rte::runnable::RunnableId;
use easis_sim::time::Instant;
use easis_watchdog::report::{DetectedFault, FaultKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
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

/// Environmental snapshot captured at first occurrence.
///
/// Condition names are interned `Arc<str>`s: platforms capture the same
/// condition set on every faulty cycle, so cloning a frame bumps refcounts
/// instead of re-allocating the name strings (the campaign hot path ingests
/// hundreds of frames per faulty trial).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FreezeFrame {
    /// Named operating-condition values (e.g. vehicle speed).
    pub conditions: Vec<(std::sync::Arc<str>, f64)>,
}

/// One stored code.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
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

impl Clone for DtcRecord {
    fn clone(&self) -> Self {
        DtcRecord {
            code: self.code,
            first_seen: self.first_seen,
            last_seen: self.last_seen,
            occurrences: self.occurrences,
            status: self.status,
            freeze_frame: self.freeze_frame.clone(),
            healthy_cycles: self.healthy_cycles,
        }
    }

    // Field-wise so pooled records rewrite their freeze-frame buffer in
    // place (condition names are `Arc<str>`s: cloning an element bumps a
    // refcount, never re-allocates the string).
    fn clone_from(&mut self, source: &Self) {
        self.code = source.code;
        self.first_seen = source.first_seen;
        self.last_seen = source.last_seen;
        self.occurrences = source.occurrences;
        self.status = source.status;
        self.freeze_frame
            .conditions
            .clone_from(&source.freeze_frame.conditions);
        self.healthy_cycles = source.healthy_cycles;
    }
}

/// The fault memory.
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
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DtcStore {
    codes: BTreeMap<DtcCode, DtcRecord>,
    confirm_threshold: u32,
    aging_cycles: u32,
    /// Retired records (cleared or aged out), recycled by the next insert
    /// so its freeze-frame buffer is rewritten in place instead of cloned
    /// — a campaign node re-records the same codes trial after trial.
    spare: Vec<DtcRecord>,
    /// Scratch for codes that age out in one aging step (a healthy cycle
    /// or a closed-form jump; reused, so aging never allocates).
    aged_scratch: Vec<DtcCode>,
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
        assert!(confirm_threshold > 0, "confirmation threshold must be positive");
        assert!(aging_cycles > 0, "aging horizon must be positive");
        DtcStore {
            codes: BTreeMap::new(),
            confirm_threshold,
            aging_cycles,
            spare: Vec::new(),
            aged_scratch: Vec::new(),
        }
    }

    /// Records a fault occurrence; the freeze frame is kept only for the
    /// first occurrence. Returns the code.
    pub fn record(&mut self, fault: DetectedFault, freeze_frame: FreezeFrame) -> DtcCode {
        self.record_ref(fault, &freeze_frame)
    }

    /// [`DtcStore::record`] borrowing the freeze frame: the frame is cloned
    /// only when a *new* code is inserted, so re-occurrences — the common
    /// case on a faulty campaign trial, which ingests the same code every
    /// cycle — never copy conditions. Callers can keep one reusable frame
    /// buffer alive across the whole trial.
    pub fn record_ref(&mut self, fault: DetectedFault, freeze_frame: &FreezeFrame) -> DtcCode {
        let code = DtcCode::of(fault.runnable, fault.kind);
        let threshold = self.confirm_threshold;
        let record = match self.codes.entry(code) {
            std::collections::btree_map::Entry::Occupied(entry) => entry.into_mut(),
            std::collections::btree_map::Entry::Vacant(entry) => {
                // Recycle a retired record if one is pooled: its freeze
                // frame is overwritten in place (`clone_from` reuses the
                // conditions buffer), so re-recording a cleared code
                // allocates nothing beyond the map node.
                let mut record = self.spare.pop().unwrap_or_else(|| DtcRecord {
                    code,
                    first_seen: fault.at,
                    last_seen: fault.at,
                    occurrences: 0,
                    status: DtcStatus::Pending,
                    freeze_frame: FreezeFrame::default(),
                    healthy_cycles: 0,
                });
                record.code = code;
                record.first_seen = fault.at;
                record.last_seen = fault.at;
                record.occurrences = 0;
                record.status = DtcStatus::Pending;
                record
                    .freeze_frame
                    .conditions
                    .clone_from(&freeze_frame.conditions);
                record.healthy_cycles = 0;
                entry.insert(record)
            }
        };
        record.occurrences += 1;
        record.last_seen = fault.at;
        record.healthy_cycles = 0;
        if record.occurrences >= threshold {
            record.status = DtcStatus::Confirmed;
        }
        code
    }

    /// Marks one healthy operating cycle: pending codes age and eventually
    /// drop out; confirmed codes persist. Aged-out records retire to the
    /// spare pool for recycling.
    pub fn healthy_cycle(&mut self) {
        let aging = self.aging_cycles;
        for (code, rec) in self.codes.iter_mut() {
            if rec.status == DtcStatus::Confirmed {
                continue;
            }
            rec.healthy_cycles += 1;
            if rec.healthy_cycles >= aging {
                self.aged_scratch.push(*code);
            }
        }
        while let Some(code) = self.aged_scratch.pop() {
            if let Some(record) = self.codes.remove(&code) {
                self.spare.push(record);
            }
        }
    }

    /// Clears one code (tester "clear DTC"). Returns `true` if it existed.
    pub fn clear(&mut self, code: DtcCode) -> bool {
        match self.codes.remove(&code) {
            Some(record) => {
                self.spare.push(record);
                true
            }
            None => false,
        }
    }

    /// Clears the whole memory, retiring every record to the spare pool:
    /// the next inserts rewrite the retired freeze-frame buffers instead of
    /// cloning fresh ones.
    pub fn clear_all(&mut self) {
        while let Some((_, record)) = self.codes.pop_first() {
            self.spare.push(record);
        }
    }

    /// Looks up a record.
    pub fn get(&self, code: DtcCode) -> Option<&DtcRecord> {
        self.codes.get(&code)
    }

    /// All records, sorted by code.
    pub fn iter(&self) -> impl Iterator<Item = &DtcRecord> {
        self.codes.values()
    }

    /// Confirmed records only (what a tester readout shows by default).
    pub fn confirmed(&self) -> impl Iterator<Item = &DtcRecord> {
        self.codes
            .values()
            .filter(|r| r.status == DtcStatus::Confirmed)
    }

    /// Number of stored codes.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// `true` when the memory is empty.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Captures the stored records into `snap`, retaining the snapshot's
    /// buffer capacity: records overwrite prior entries in place
    /// (`clone_from` reuses each freeze-frame buffer), so repeatedly
    /// snapshotting a faulty prefix allocates nothing once warm.
    pub fn snapshot_into(&self, snap: &mut DtcStoreSnapshot) {
        snap.records.truncate(self.codes.len());
        let mut live = self.codes.values();
        for slot in snap.records.iter_mut() {
            slot.clone_from(live.next().expect("truncated to live length"));
        }
        for record in live {
            snap.records.push(record.clone());
        }
    }

    /// Applies `k` certified hyperperiods of DTC aging in closed form:
    /// every *pending* record's healthy-cycle counter advances by `inc`
    /// per hyperperiod (the increment [`DtcStoreSnapshot::derive_aging`]
    /// measured), and every record that reaches the aging horizon retires
    /// to the spare pool — the store ends exactly as `inc · k`
    /// [`DtcStore::healthy_cycle`] calls would leave it, spare-pool order
    /// included. Any `k` is valid: the advance saturates in u64.
    pub fn apply_aging(&mut self, inc: u32, k: u64) {
        let add = u64::from(inc).saturating_mul(k);
        if add == 0 {
            return;
        }
        let aging = u64::from(self.aging_cycles);
        for (code, rec) in self.codes.iter_mut() {
            if rec.status == DtcStatus::Confirmed {
                continue;
            }
            let cycles = u64::from(rec.healthy_cycles).saturating_add(add);
            if cycles >= aging {
                self.aged_scratch.push(*code);
            } else {
                rec.healthy_cycles = cycles as u32;
            }
        }
        // Retire in `healthy_cycle`'s order — the earliest age-out (highest
        // counter) first, descending codes within one cycle — so later
        // inserts recycle the same record buffers as at event level.
        let codes = &self.codes;
        self.aged_scratch
            .sort_unstable_by_key(|code| (codes[code].healthy_cycles, *code));
        while let Some(code) = self.aged_scratch.pop() {
            if let Some(mut record) = self.codes.remove(&code) {
                record.healthy_cycles = self.aging_cycles;
                self.spare.push(record);
            }
        }
    }

    /// Restores the memory captured by [`DtcStore::snapshot_into`]. Live
    /// records retire to the spare pool first, and every rebuilt record is
    /// drawn back out of it — the same recycling path
    /// [`DtcStore::record_ref`] uses — so restoring over a used store
    /// rewrites record bodies in place instead of cloning fresh ones.
    pub fn restore_from(&mut self, snap: &DtcStoreSnapshot) {
        self.clear_all();
        for record in &snap.records {
            let pooled = match self.spare.pop() {
                Some(mut pooled) => {
                    pooled.clone_from(record);
                    pooled
                }
                None => record.clone(),
            };
            self.codes.insert(pooled.code, pooled);
        }
    }
}

/// Plain-data image of a [`DtcStore`]'s records (sorted by code). The
/// thresholds are construction-time configuration and live outside it.
/// `PartialEq` compares the records including their aging counters;
/// [`DtcStoreSnapshot::derive_aging`] relaxes exactly one axis — a
/// uniform healthy-cycle advance on pending codes — so the macro-stepping
/// engine can fast-forward through a draining fault memory, age-outs
/// included ([`DtcStore::apply_aging`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DtcStoreSnapshot {
    records: Vec<DtcRecord>,
}

impl DtcStoreSnapshot {
    /// Derives the uniform per-hyperperiod aging increment between two
    /// images one hyperperiod apart. Succeeds (writing the increment,
    /// possibly 0) only when the images hold the *same* records — codes,
    /// occurrence counters, timestamps, status, freeze frames all equal —
    /// and every pending record's healthy-cycle counter advanced by the
    /// same amount. Anything else (a new occurrence, a confirmation, an
    /// age-out removal) rejects: a *sampled* hyperperiod that straddles an
    /// age-out has no uniform advance to measure. Once certified, the
    /// increment is applied across later age-outs by
    /// [`DtcStore::apply_aging`].
    pub fn derive_aging(a: &Self, b: &Self, out: &mut u32) -> bool {
        if a.records.len() != b.records.len() {
            return false;
        }
        let mut inc: Option<u32> = None;
        for (ra, rb) in a.records.iter().zip(&b.records) {
            if ra.code != rb.code
                || ra.first_seen != rb.first_seen
                || ra.last_seen != rb.last_seen
                || ra.occurrences != rb.occurrences
                || ra.status != rb.status
                || ra.freeze_frame != rb.freeze_frame
            {
                return false;
            }
            if ra.status == DtcStatus::Confirmed {
                // Confirmed codes never age; the counter must sit still.
                if ra.healthy_cycles != rb.healthy_cycles {
                    return false;
                }
                continue;
            }
            let Some(step) = rb.healthy_cycles.checked_sub(ra.healthy_cycles) else {
                return false;
            };
            if *inc.get_or_insert(step) != step {
                return false;
            }
        }
        *out = inc.unwrap_or(0);
        true
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

    #[test]
    fn code_derivation_round_trips() {
        let code = DtcCode::of(RunnableId(7), FaultKind::ProgramFlow);
        assert_eq!(code.runnable(), RunnableId(7));
        assert_eq!(code.kind(), Some(FaultKind::ProgramFlow));
        assert!(code.to_string().starts_with("DTC-94"));
        assert_eq!(DtcCode(0x9400_0000).kind(), None);
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
        let code = store.record(
            fault(2, FaultKind::ArrivalRate, 5),
            FreezeFrame {
                conditions: vec![("speed".into(), 13.9)],
            },
        );
        store.record(
            fault(2, FaultKind::ArrivalRate, 50),
            FreezeFrame {
                conditions: vec![("speed".into(), 99.0)],
            },
        );
        assert_eq!(
            store.get(code).unwrap().freeze_frame.conditions[0].1,
            13.9
        );
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
        assert!(store.get(confirmed).is_some(), "confirmed code must persist");
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
        assert!(store.get(code).is_some(), "aging must restart on reoccurrence");
    }

    #[test]
    fn clear_semantics() {
        let mut store = DtcStore::new(1, 10);
        let code = store.record(fault(1, FaultKind::Aliveness, 1), FreezeFrame::default());
        assert!(store.clear(code));
        assert!(!store.clear(code));
        store.record(fault(1, FaultKind::Aliveness, 2), FreezeFrame::default());
        store.clear_all();
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
            store.record(
                fault(3, FaultKind::ArrivalRate, 50),
                FreezeFrame {
                    conditions: vec![("speed".into(), 7.0)],
                },
            );
            store
        };
        let image = |store: &DtcStore| {
            let mut snap = DtcStoreSnapshot::default();
            store.snapshot_into(&mut snap);
            snap
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
            assert_eq!(image(&stepped), image(&jumped), "k = {k}");
            // Spare pool included: same records, same retirement order.
            assert_eq!(format!("{stepped:?}"), format!("{jumped:?}"), "k = {k}");
            assert_eq!(jumped.get(early).is_some(), k < 19, "k = {k}");
            assert_eq!(jumped.get(late).is_some(), k < 20, "k = {k}");
            assert_eq!(jumped.confirmed().count(), 1);
        }
        // A huge advance saturates instead of overflowing.
        let mut jumped = build();
        jumped.apply_aging(u32::MAX, u64::MAX);
        assert_eq!(jumped.len(), 1);
        // A retired code is re-recorded from the spare pool: its
        // freeze-frame buffer is rewritten in place, not reallocated.
        let mut store = build();
        store.apply_aging(2, 20);
        assert_eq!(store.spare.len(), 2);
        let pooled = store.spare.last().unwrap().freeze_frame.conditions.as_ptr();
        let frame = FreezeFrame {
            conditions: vec![("speed".into(), 9.0)],
        };
        store.record(fault(3, FaultKind::ArrivalRate, 900), frame);
        assert_eq!(store.spare.len(), 1);
        let reborn = store.get(late).unwrap();
        assert_eq!(reborn.freeze_frame.conditions.as_ptr(), pooled);
        assert_eq!(reborn.freeze_frame.conditions[0].1, 9.0);
        assert_eq!((reborn.occurrences, reborn.status), (1, DtcStatus::Pending));
    }

    #[test]
    fn derive_aging_measures_pending_advance_only() {
        let mut store = DtcStore::new(3, 40);
        store.record(fault(1, FaultKind::Aliveness, 10), FreezeFrame::default());
        for ms in [20, 30, 40] {
            store.record(fault(2, FaultKind::ProgramFlow, ms), FreezeFrame::default());
        }
        let mut a = DtcStoreSnapshot::default();
        let mut b = DtcStoreSnapshot::default();
        store.snapshot_into(&mut a);
        store.healthy_cycle();
        store.healthy_cycle();
        store.snapshot_into(&mut b);
        let mut inc = 99;
        assert!(DtcStoreSnapshot::derive_aging(&a, &b, &mut inc));
        assert_eq!(inc, 2);
        // At rest the increment is zero…
        assert!(DtcStoreSnapshot::derive_aging(&a, &a, &mut inc));
        assert_eq!(inc, 0);
        // …a new occurrence is a discrete event and rejects…
        store.record(fault(1, FaultKind::Aliveness, 90), FreezeFrame::default());
        store.snapshot_into(&mut b);
        assert!(!DtcStoreSnapshot::derive_aging(&a, &b, &mut inc));
        // …and so does an age-out removal.
        let mut c = DtcStoreSnapshot::default();
        for _ in 0..40 {
            store.healthy_cycle();
        }
        store.snapshot_into(&mut c);
        assert!(!DtcStoreSnapshot::derive_aging(&b, &c, &mut inc));
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
        assert!(store.spare.is_empty());
        let mut snap = DtcStoreSnapshot::default();
        store.snapshot_into(&mut snap);
        let mut inc = 7;
        assert!(DtcStoreSnapshot::derive_aging(&snap, &snap, &mut inc));
        assert_eq!(inc, 0);
    }

    #[test]
    fn snapshot_restore_round_trips_through_the_spare_pool() {
        let mut store = DtcStore::new(2, 10);
        let code = store.record(
            fault(1, FaultKind::Aliveness, 5),
            FreezeFrame {
                conditions: vec![("speed".into(), 42.0)],
            },
        );
        let mut snap = DtcStoreSnapshot::default();
        store.snapshot_into(&mut snap);
        // Diverge: confirm the code and add another.
        store.record(fault(1, FaultKind::Aliveness, 15), FreezeFrame::default());
        store.record(fault(2, FaultKind::ProgramFlow, 20), FreezeFrame::default());
        assert_eq!(store.get(code).unwrap().status, DtcStatus::Confirmed);
        store.restore_from(&snap);
        assert_eq!(store.len(), 1);
        let rec = store.get(code).unwrap();
        assert_eq!(rec.status, DtcStatus::Pending);
        assert_eq!(rec.occurrences, 1);
        assert_eq!(rec.freeze_frame.conditions[0].1, 42.0);
        // The displaced extra record retired to the pool: a re-insert
        // recycles it rather than building a fresh one.
        store.record(fault(3, FaultKind::ArrivalRate, 30), FreezeFrame::default());
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn repeated_snapshot_capture_reuses_buffers() {
        let mut store = DtcStore::new(2, 10);
        store.record(
            fault(1, FaultKind::Aliveness, 5),
            FreezeFrame {
                conditions: vec![("speed".into(), 1.0), ("rpm".into(), 2.0)],
            },
        );
        let mut snap = DtcStoreSnapshot::default();
        store.snapshot_into(&mut snap);
        let cap_before = snap.records.capacity();
        let ptr_before = snap.records[0].freeze_frame.conditions.as_ptr();
        store.record(fault(1, FaultKind::Aliveness, 15), FreezeFrame::default());
        store.snapshot_into(&mut snap);
        assert_eq!(snap.records.capacity(), cap_before);
        assert_eq!(
            snap.records[0].freeze_frame.conditions.as_ptr(),
            ptr_before,
            "freeze-frame buffer must be rewritten in place"
        );
        assert_eq!(snap.records[0].occurrences, 2);
    }
}
