//! Program flow checking (PFC) unit.
//!
//! "A simple approach with a look-up table was applied to minimize
//! performance penalty and extensive modification requirements of
//! applications" (paper §3.4): the table stores every allowed
//! predecessor/successor pair of the monitored runnables; the unit compares
//! the observed heartbeat sequence against it. Unmonitored runnables are
//! transparent — only the sequence of *monitored* runnables is checked, as
//! the paper restricts checking to safety-critical runnables to bound
//! overhead.

use crate::config::IdIndex;
use easis_rte::runnable::RunnableId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Abstract per-observation CPU cost of a look-up (cycles), charged to the
/// watchdog's cost meter for the overhead experiments.
pub const LOOKUP_COST_CYCLES: u64 = 18;

/// The allowed-successor look-up table.
///
/// # Examples
///
/// ```
/// use easis_rte::runnable::RunnableId;
/// use easis_watchdog::pfc::FlowTable;
///
/// let mut table = FlowTable::new();
/// table.allow_entry(RunnableId(0));
/// table.allow(RunnableId(0), RunnableId(1));
/// assert!(table.is_allowed(RunnableId(0), RunnableId(1)));
/// assert!(!table.is_allowed(RunnableId(1), RunnableId(0)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowTable {
    successors: BTreeMap<RunnableId, BTreeSet<RunnableId>>,
    entries: BTreeSet<RunnableId>,
    /// Every runnable the table mentions (entry, predecessor or
    /// successor), maintained incrementally so [`FlowTable::is_monitored`]
    /// never has to scan the successor sets.
    observed: BTreeSet<RunnableId>,
}

impl FlowTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// Allows `successor` to follow `predecessor`.
    pub fn allow(&mut self, predecessor: RunnableId, successor: RunnableId) {
        self.successors
            .entry(predecessor)
            .or_default()
            .insert(successor);
        self.observed.insert(predecessor);
        self.observed.insert(successor);
    }

    /// Marks `entry` as a valid first runnable of a monitored sequence.
    pub fn allow_entry(&mut self, entry: RunnableId) {
        self.entries.insert(entry);
        self.observed.insert(entry);
    }

    /// `true` if the pair is in the table.
    pub fn is_allowed(&self, predecessor: RunnableId, successor: RunnableId) -> bool {
        self.successors
            .get(&predecessor)
            .is_some_and(|s| s.contains(&successor))
    }

    /// `true` if `runnable` may start a sequence. An empty entry set means
    /// any monitored runnable may start (unconstrained entry).
    pub fn is_entry(&self, runnable: RunnableId) -> bool {
        self.entries.is_empty() || self.entries.contains(&runnable)
    }

    /// `true` if `runnable` appears in the table (as predecessor, successor
    /// or entry) — i.e. its flow is monitored. Answered from the
    /// incrementally maintained observed set, so runnables appearing only
    /// as successors are found without scanning every successor set.
    pub fn is_monitored(&self, runnable: RunnableId) -> bool {
        self.observed.contains(&runnable)
    }

    /// Iterates every runnable the table mentions, in ascending id order.
    pub fn monitored_ids(&self) -> impl Iterator<Item = RunnableId> + '_ {
        self.observed.iter().copied()
    }

    /// Number of allowed pairs.
    pub fn pair_count(&self) -> usize {
        self.successors.values().map(BTreeSet::len).sum()
    }

    /// Iterates over all allowed pairs.
    pub fn pairs(&self) -> impl Iterator<Item = (RunnableId, RunnableId)> + '_ {
        self.successors
            .iter()
            .flat_map(|(&p, set)| set.iter().map(move |&s| (p, s)))
    }

    /// Compiles the table into its dense bitset form (see
    /// [`CompiledFlowTable`]).
    pub fn compile(&self) -> CompiledFlowTable {
        CompiledFlowTable::compile(self)
    }
}

/// The look-up table compiled to a flat row-major bitset adjacency matrix.
///
/// Monitored runnables are interned into dense slots ([`IdIndex`]); row
/// `p` of the matrix holds one bit per possible successor slot, packed
/// into `u64` words, plus one packed row for the entry set. Both
/// [`CompiledFlowTable::allows`] and [`CompiledFlowTable::is_entry`] are a
/// single word index + bit test — O(1) regardless of table size, versus
/// the builder [`FlowTable`]'s two-level map probe.
///
/// # Examples
///
/// ```
/// use easis_rte::runnable::RunnableId;
/// use easis_watchdog::pfc::FlowTable;
///
/// let mut table = FlowTable::new();
/// table.allow_entry(RunnableId(0));
/// table.allow(RunnableId(0), RunnableId(2));
/// let compiled = table.compile();
/// let s0 = compiled.slot_of(RunnableId(0)).unwrap();
/// let s2 = compiled.slot_of(RunnableId(2)).unwrap();
/// assert!(compiled.allows(s0, s2));
/// assert!(!compiled.allows(s2, s0));
/// assert!(compiled.is_entry(s0) && !compiled.is_entry(s2));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompiledFlowTable {
    index: IdIndex,
    /// `u64` words per adjacency row (= per entry row).
    words_per_row: u32,
    /// Row-major adjacency bits: `adjacency[p * words_per_row + s / 64]`
    /// bit `s % 64` set ⇔ slot `s` may follow slot `p`.
    adjacency: Vec<u64>,
    /// Packed entry set (one row).
    entry_bits: Vec<u64>,
    /// `true` when the builder's entry set was empty: any monitored
    /// runnable may start a sequence.
    any_entry: bool,
}

impl CompiledFlowTable {
    /// Compiles a builder table.
    pub fn compile(table: &FlowTable) -> Self {
        let index = IdIndex::from_ids(table.monitored_ids().map(|r| r.0));
        let n = index.len();
        let words_per_row = n.div_ceil(64);
        let mut compiled = CompiledFlowTable {
            index,
            words_per_row: words_per_row as u32,
            adjacency: vec![0; n * words_per_row],
            entry_bits: vec![0; words_per_row],
            any_entry: table.entries.is_empty(),
        };
        for (pred, succ) in table.pairs() {
            let p = compiled.index.slot_of(pred.0).expect("pred interned") as usize;
            let s = compiled.index.slot_of(succ.0).expect("succ interned") as usize;
            compiled.adjacency[p * words_per_row + s / 64] |= 1u64 << (s % 64);
        }
        for &entry in &table.entries {
            let s = compiled.index.slot_of(entry.0).expect("entry interned") as usize;
            compiled.entry_bits[s / 64] |= 1u64 << (s % 64);
        }
        compiled
    }

    /// The monitored-runnable interner (slot per runnable in the table).
    pub fn index(&self) -> &IdIndex {
        &self.index
    }

    /// Slot of a runnable, or `None` if its flow is unmonitored.
    #[inline]
    pub fn slot_of(&self, runnable: RunnableId) -> Option<u32> {
        self.index.slot_of(runnable.0)
    }

    /// The runnable interned at `slot`.
    #[inline]
    fn runnable_at(&self, slot: u32) -> RunnableId {
        RunnableId(self.index.id_at(slot))
    }

    /// `true` if slot `successor` may follow slot `predecessor` — one word
    /// load and bit test.
    #[inline]
    pub fn allows(&self, predecessor: u32, successor: u32) -> bool {
        let row = predecessor as usize * self.words_per_row as usize;
        let word = self.adjacency[row + successor as usize / 64];
        word >> (successor % 64) & 1 != 0
    }

    /// `true` if slot `runnable` may start a sequence.
    #[inline]
    pub fn is_entry(&self, runnable: u32) -> bool {
        self.any_entry || self.entry_bits[runnable as usize / 64] >> (runnable % 64) & 1 != 0
    }

    /// Number of monitored runnables (= adjacency matrix dimension).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` if the table monitors nothing.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

easis_sim::clone_fields! {
    /// Runtime state of one program-flow checker: its position in the
    /// observed sequence. The look-up table is wiring and is an argument
    /// of [`PfcState::observe`]; the watchdog keeps one state per task
    /// scope over one shared table and counts the violations per
    /// runnable.
    #[derive(Debug, PartialEq, Eq)]
    pub struct PfcState {
        /// Slot of the last observed monitored runnable;
        /// [`IdIndex::NO_SLOT`] at a sequence start.
        last_slot: u32,
    }
}

/// At a sequence start.
impl Default for PfcState {
    fn default() -> Self {
        PfcState {
            last_slot: IdIndex::NO_SLOT,
        }
    }
}

impl PfcState {
    /// Observes one heartbeat in program order against `table` and returns
    /// the verdict. Unmonitored runnables are ignored entirely (always
    /// `Ok`, do not update the predecessor).
    #[inline]
    pub fn observe(&mut self, table: &CompiledFlowTable, runnable: RunnableId) -> FlowVerdict {
        let Some(slot) = table.slot_of(runnable) else {
            return FlowVerdict::Ok;
        };
        let verdict = if self.last_slot == IdIndex::NO_SLOT {
            if table.is_entry(slot) {
                FlowVerdict::Ok
            } else {
                FlowVerdict::Violation { predecessor: None }
            }
        } else if table.allows(self.last_slot, slot) {
            FlowVerdict::Ok
        } else {
            FlowVerdict::Violation {
                predecessor: Some(table.runnable_at(self.last_slot)),
            }
        };
        self.last_slot = slot;
        verdict
    }

    /// Resets the sequence position (e.g. after fault treatment).
    pub fn reset_position(&mut self) {
        self.last_slot = IdIndex::NO_SLOT;
    }

    /// The last observed monitored runnable of `table`, the one this
    /// state observes against; `None` at a sequence start.
    pub fn last_observed(&self, table: &CompiledFlowTable) -> Option<RunnableId> {
        (self.last_slot != IdIndex::NO_SLOT).then(|| table.runnable_at(self.last_slot))
    }
}

/// Outcome of one observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowVerdict {
    /// Transition allowed (or runnable unmonitored / first observation).
    Ok,
    /// Transition violates the table.
    Violation {
        /// What ran before (`None` = sequence start violated the entry set).
        predecessor: Option<RunnableId>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u32) -> RunnableId {
        RunnableId(n)
    }

    /// SafeSpeed-like chain 0 → 1 → 2 → 0.
    fn chain_table() -> FlowTable {
        let mut t = FlowTable::new();
        t.allow_entry(r(0));
        t.allow(r(0), r(1));
        t.allow(r(1), r(2));
        t.allow(r(2), r(0));
        t
    }

    /// A checker over `table` as the watchdog runs one: the compiled table
    /// and a state at a sequence start.
    fn checker(table: &FlowTable) -> (CompiledFlowTable, PfcState) {
        (table.compile(), PfcState::default())
    }

    #[test]
    fn nominal_cycle_is_clean() {
        let (table, mut pfc) = checker(&chain_table());
        for id in [0, 1, 2, 0, 1, 2, 0] {
            assert_eq!(pfc.observe(&table, r(id)), FlowVerdict::Ok);
        }
    }

    #[test]
    fn skipped_runnable_is_a_violation() {
        let (table, mut pfc) = checker(&chain_table());
        pfc.observe(&table, r(0));
        let v = pfc.observe(&table, r(2)); // skipped 1
        assert_eq!(v, FlowVerdict::Violation { predecessor: Some(r(0)) });
        // Recovery: 2 → 0 is allowed again.
        assert_eq!(pfc.observe(&table, r(0)), FlowVerdict::Ok);
    }

    #[test]
    fn wrong_entry_is_a_violation() {
        let (table, mut pfc) = checker(&chain_table());
        assert_eq!(pfc.observe(&table, r(1)), FlowVerdict::Violation { predecessor: None });
    }

    #[test]
    fn empty_entry_set_allows_any_start() {
        let mut t = FlowTable::new();
        t.allow(r(0), r(1));
        let (table, mut pfc) = checker(&t);
        assert_eq!(pfc.observe(&table, r(1)), FlowVerdict::Ok);
    }

    #[test]
    fn unmonitored_runnables_are_transparent() {
        let (table, mut pfc) = checker(&chain_table());
        pfc.observe(&table, r(0));
        // 99 is not in the table: ignored, does not clobber the predecessor.
        assert_eq!(pfc.observe(&table, r(99)), FlowVerdict::Ok);
        assert_eq!(pfc.last_observed(&table), Some(r(0)));
        assert_eq!(pfc.observe(&table, r(1)), FlowVerdict::Ok);
    }

    #[test]
    fn reset_position_forgets_predecessor_only() {
        let (table, mut pfc) = checker(&chain_table());
        pfc.observe(&table, r(0));
        assert!(matches!(pfc.observe(&table, r(2)), FlowVerdict::Violation { .. }));
        pfc.reset_position();
        assert_eq!(pfc.last_observed(&table), None);
        assert_eq!(pfc, PfcState::default());
        assert_eq!(pfc.observe(&table, r(0)), FlowVerdict::Ok); // entry again
    }

    #[test]
    fn table_introspection() {
        let t = chain_table();
        assert_eq!(t.pair_count(), 3);
        assert_eq!(t.pairs().count(), 3);
        assert!(t.is_monitored(r(0)));
        assert!(t.is_monitored(r(2)));
        assert!(!t.is_monitored(r(9)));
        assert!(t.is_entry(r(0)));
        assert!(!t.is_entry(r(1)));
    }

    #[test]
    fn successor_only_runnables_are_monitored() {
        // Pins the semantics the old quadratic `values().any(...)` fallback
        // implemented: a runnable appearing *only* as a successor (never as
        // predecessor or entry) is still monitored.
        let mut t = FlowTable::new();
        t.allow_entry(r(0));
        t.allow(r(0), r(7)); // 7 appears only on the successor side
        assert!(t.is_monitored(r(7)));
        assert!(t.is_monitored(r(0)));
        assert!(!t.is_monitored(r(3)));
        // And the compiled bitset agrees.
        let c = t.compile();
        assert!(c.slot_of(r(7)).is_some());
        assert!(c.slot_of(r(3)).is_none());
        // Observing the successor-only runnable out of order is a violation,
        // not transparency.
        let mut pfc = PfcState::default();
        assert_eq!(pfc.observe(&c, r(7)), FlowVerdict::Violation { predecessor: None });
    }

    #[test]
    fn compiled_table_matches_builder_semantics() {
        let t = chain_table();
        let c = t.compile();
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        for pred in [0u32, 1, 2] {
            for succ in [0u32, 1, 2] {
                let (p, s) = (c.slot_of(r(pred)).unwrap(), c.slot_of(r(succ)).unwrap());
                assert_eq!(c.allows(p, s), t.is_allowed(r(pred), r(succ)), "{pred}->{succ}");
            }
        }
        let entry_slot = c.slot_of(r(0)).unwrap();
        assert!(c.is_entry(entry_slot));
        assert!(!c.is_entry(c.slot_of(r(1)).unwrap()));
        assert_eq!(c.runnable_at(entry_slot), r(0));
        // Empty entry set ⇒ any monitored runnable may start.
        let mut open = FlowTable::new();
        open.allow(r(4), r(5));
        let oc = open.compile();
        assert!(oc.is_entry(oc.slot_of(r(5)).unwrap()));
    }

    #[test]
    fn compiled_table_spans_word_boundaries() {
        // >64 monitored runnables forces multi-word rows.
        let mut t = FlowTable::new();
        for i in 0..100u32 {
            t.allow(r(i), r((i + 1) % 100));
        }
        let (c, mut pfc) = checker(&t);
        assert_eq!(c.len(), 100);
        for i in 0..200u32 {
            assert_eq!(pfc.observe(&c, r(i % 100)), FlowVerdict::Ok, "step {i}");
        }
        assert!(matches!(pfc.observe(&c, r(50)), FlowVerdict::Violation { .. }));
    }

    #[test]
    fn repeated_same_runnable_needs_self_loop() {
        let mut t = chain_table();
        let (table, mut pfc) = checker(&t);
        pfc.observe(&table, r(0));
        assert!(matches!(pfc.observe(&table, r(0)), FlowVerdict::Violation { .. }));
        // With an explicit self-loop it is fine.
        t.allow(r(0), r(0));
        let (table, mut pfc2) = checker(&t);
        pfc2.observe(&table, r(0));
        assert_eq!(pfc2.observe(&table, r(0)), FlowVerdict::Ok);
    }
}
