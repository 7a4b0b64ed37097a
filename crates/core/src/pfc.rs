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
/// Rows and bits are indexed by runnable id, which the runnable registry
/// assigns densely from 0: row `p` of the matrix holds one bit per
/// possible successor id, packed into `u64` words, and two more packed
/// rows mark the entry set and the monitored runnables (those the table
/// mentions). The matrix therefore holds (largest monitored id + 1)²
/// bits, each row rounded up to whole words. [`CompiledFlowTable::allows`],
/// [`CompiledFlowTable::is_entry`] and
/// [`CompiledFlowTable::is_monitored`] are each a single word index and
/// bit test — O(1) regardless of table size, versus the builder
/// [`FlowTable`]'s two-level map probe.
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
/// assert!(compiled.allows(RunnableId(0), RunnableId(2)));
/// assert!(!compiled.allows(RunnableId(2), RunnableId(0)));
/// assert!(compiled.is_entry(RunnableId(0)) && !compiled.is_entry(RunnableId(2)));
/// assert!(!compiled.is_monitored(RunnableId(1)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompiledFlowTable {
    /// `u64` words per row.
    words_per_row: usize,
    /// Row-major adjacency bits: `adjacency[p * words_per_row + s / 64]`
    /// bit `s % 64` set ⇔ runnable `s` may follow runnable `p`.
    adjacency: Vec<u64>,
    /// Packed entry set (one row).
    entry_bits: Vec<u64>,
    /// Packed set of the runnables the table mentions (one row).
    monitored_bits: Vec<u64>,
    /// `true` when the builder's entry set was empty: any monitored
    /// runnable may start a sequence.
    any_entry: bool,
}

/// Bit `runnable` of a packed row; `false` past its end.
#[inline]
fn bit(row: &[u64], runnable: RunnableId) -> bool {
    let i = runnable.index();
    row.get(i / 64)
        .is_some_and(|word| word >> (i % 64) & 1 != 0)
}

fn set_bit(row: &mut [u64], runnable: RunnableId) {
    let i = runnable.index();
    row[i / 64] |= 1u64 << (i % 64);
}

impl CompiledFlowTable {
    /// Compiles a builder table.
    pub fn compile(table: &FlowTable) -> Self {
        let rows = table.monitored_ids().last().map_or(0, |r| r.index() + 1);
        let words_per_row = rows.div_ceil(64);
        let mut compiled = CompiledFlowTable {
            words_per_row,
            adjacency: vec![0; rows * words_per_row],
            entry_bits: vec![0; words_per_row],
            monitored_bits: vec![0; words_per_row],
            any_entry: table.entries.is_empty(),
        };
        for (pred, succ) in table.pairs() {
            let row = pred.index() * words_per_row;
            set_bit(&mut compiled.adjacency[row..row + words_per_row], succ);
        }
        for &entry in &table.entries {
            set_bit(&mut compiled.entry_bits, entry);
        }
        for runnable in table.monitored_ids() {
            set_bit(&mut compiled.monitored_bits, runnable);
        }
        compiled
    }

    /// `true` if the table mentions `runnable`: its flow is monitored.
    #[inline]
    pub fn is_monitored(&self, runnable: RunnableId) -> bool {
        bit(&self.monitored_bits, runnable)
    }

    /// `true` if `successor` may follow `predecessor` — one word load and
    /// bit test.
    #[inline]
    pub fn allows(&self, predecessor: RunnableId, successor: RunnableId) -> bool {
        let s = successor.index();
        s / 64 < self.words_per_row
            && self
                .adjacency
                .get(predecessor.index() * self.words_per_row + s / 64)
                .is_some_and(|word| word >> (s % 64) & 1 != 0)
    }

    /// `true` if `runnable` may start a sequence.
    #[inline]
    pub fn is_entry(&self, runnable: RunnableId) -> bool {
        self.any_entry || bit(&self.entry_bits, runnable)
    }
}

/// Runtime state of one program-flow checker: its position in the
/// observed sequence. The look-up table is wiring and is an argument of
/// [`PfcState::observe`]; the watchdog keeps one state per task scope over
/// one shared table and counts the violations per runnable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PfcState {
    /// The last observed monitored runnable; `None` at a sequence start.
    last: Option<RunnableId>,
}

impl PfcState {
    /// Observes one heartbeat in program order against `table` and returns
    /// the verdict. Unmonitored runnables are ignored entirely (always
    /// `Ok`, do not update the predecessor).
    #[inline]
    pub fn observe(&mut self, table: &CompiledFlowTable, runnable: RunnableId) -> FlowVerdict {
        if !table.is_monitored(runnable) {
            return FlowVerdict::Ok;
        }
        let verdict = match self.last {
            None if table.is_entry(runnable) => FlowVerdict::Ok,
            None => FlowVerdict::Violation { predecessor: None },
            Some(predecessor) if table.allows(predecessor, runnable) => FlowVerdict::Ok,
            Some(predecessor) => FlowVerdict::Violation {
                predecessor: Some(predecessor),
            },
        };
        self.last = Some(runnable);
        verdict
    }

    /// Resets the sequence position (e.g. after fault treatment).
    pub fn reset_position(&mut self) {
        self.last = None;
    }

    /// The last observed monitored runnable; `None` at a sequence start.
    pub fn last_observed(&self) -> Option<RunnableId> {
        self.last
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
        assert_eq!(
            v,
            FlowVerdict::Violation {
                predecessor: Some(r(0))
            }
        );
        // Recovery: 2 → 0 is allowed again.
        assert_eq!(pfc.observe(&table, r(0)), FlowVerdict::Ok);
    }

    #[test]
    fn wrong_entry_is_a_violation() {
        let (table, mut pfc) = checker(&chain_table());
        assert_eq!(
            pfc.observe(&table, r(1)),
            FlowVerdict::Violation { predecessor: None }
        );
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
        assert_eq!(pfc.last_observed(), Some(r(0)));
        assert_eq!(pfc.observe(&table, r(1)), FlowVerdict::Ok);
    }

    #[test]
    fn reset_position_forgets_predecessor_only() {
        let (table, mut pfc) = checker(&chain_table());
        pfc.observe(&table, r(0));
        assert!(matches!(
            pfc.observe(&table, r(2)),
            FlowVerdict::Violation { .. }
        ));
        pfc.reset_position();
        assert_eq!(pfc.last_observed(), None);
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
        assert!(c.is_monitored(r(7)));
        assert!(!c.is_monitored(r(3)));
        // Observing the successor-only runnable out of order is a violation,
        // not transparency.
        let mut pfc = PfcState::default();
        assert_eq!(
            pfc.observe(&c, r(7)),
            FlowVerdict::Violation { predecessor: None }
        );
    }

    #[test]
    fn compiled_table_matches_builder_semantics() {
        let t = chain_table();
        let c = t.compile();
        for pred in [0u32, 1, 2] {
            assert!(c.is_monitored(r(pred)));
            for succ in [0u32, 1, 2] {
                assert_eq!(
                    c.allows(r(pred), r(succ)),
                    t.is_allowed(r(pred), r(succ)),
                    "{pred}->{succ}"
                );
            }
        }
        assert!(c.is_entry(r(0)));
        assert!(!c.is_entry(r(1)));
        // Empty entry set ⇒ any monitored runnable may start.
        let mut open = FlowTable::new();
        open.allow(r(4), r(5));
        let oc = open.compile();
        assert!(oc.is_entry(r(5)));
    }

    #[test]
    fn compiled_table_spans_word_boundaries() {
        // >64 monitored runnables forces multi-word rows.
        let mut t = FlowTable::new();
        for i in 0..100u32 {
            t.allow(r(i), r((i + 1) % 100));
        }
        let (c, mut pfc) = checker(&t);
        assert!(c.is_monitored(r(99)) && !c.is_monitored(r(100)));
        for i in 0..200u32 {
            assert_eq!(pfc.observe(&c, r(i % 100)), FlowVerdict::Ok, "step {i}");
        }
        assert!(matches!(
            pfc.observe(&c, r(50)),
            FlowVerdict::Violation { .. }
        ));
    }

    #[test]
    fn repeated_same_runnable_needs_self_loop() {
        let mut t = chain_table();
        let (table, mut pfc) = checker(&t);
        pfc.observe(&table, r(0));
        assert!(matches!(
            pfc.observe(&table, r(0)),
            FlowVerdict::Violation { .. }
        ));
        // With an explicit self-loop it is fine.
        t.allow(r(0), r(0));
        let (table, mut pfc2) = checker(&t);
        pfc2.observe(&table, r(0));
        assert_eq!(pfc2.observe(&table, r(0)), FlowVerdict::Ok);
    }
}
