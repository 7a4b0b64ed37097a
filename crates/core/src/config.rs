//! Watchdog configuration: the fault hypothesis.
//!
//! The paper's heartbeat counters are "assigned to each runnable to record
//! its heartbeats during the defined monitoring period *according to the
//! fault hypothesis*". [`RunnableHypothesis`] is that per-runnable
//! hypothesis: how many watchdog cycles form a monitoring period and how
//! many aliveness indications are expected at least (aliveness) and at most
//! (arrival rate) within it. [`WatchdogConfig`] aggregates the hypotheses
//! with the program-flow look-up table, the task state indication
//! thresholds and the deployment mapping.

use crate::pfc::FlowTable;
use easis_osek::task::TaskId;
use easis_rte::mapping::SystemMapping;
use easis_rte::runnable::RunnableId;
use easis_sim::time::Duration;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

easis_sim::clone_fields! {
    /// A frozen interner from sparse `u32` identifiers (runnable or task
    /// numbers) to dense slot indices `0..len`.
    ///
    /// The watchdog's hot path — one look-up per heartbeat indication and per
    /// program-flow check — must not pay a pointer-chasing map probe. The
    /// interner is built once (at [`WatchdogConfig`] build time) from every
    /// identifier the watchdog will ever see, after which each monitoring unit
    /// stores its state in flat arrays indexed by slot. Slots are assigned in
    /// ascending identifier order, so a linear sweep over the slots visits
    /// identifiers in exactly the order the previous `BTreeMap`-based
    /// implementation iterated them — the rewrite is observation-equivalent.
    ///
    /// Look-ups are O(1) through a direct-mapped table whenever the largest
    /// interned identifier is small (the common case: runnable ids are dense
    /// by construction); pathological sparse id spaces fall back to a binary
    /// search over the sorted slot table.
    ///
    /// # Examples
    ///
    /// ```
    /// use easis_watchdog::config::IdIndex;
    ///
    /// let index = IdIndex::from_ids([7, 3, 3, 11]);
    /// assert_eq!(index.len(), 3);
    /// assert_eq!(index.slot_of(3), Some(0));
    /// assert_eq!(index.slot_of(7), Some(1));
    /// assert_eq!(index.slot_of(11), Some(2));
    /// assert_eq!(index.slot_of(5), None);
    /// assert_eq!(index.id_at(2), 11);
    /// ```
    #[derive(Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct IdIndex {
        /// Slot → identifier, ascending (the slot table).
        ids: Vec<u32>,
        /// Identifier → slot, [`IdIndex::NO_SLOT`] where absent. Present only
        /// while the largest identifier stays below
        /// [`IdIndex::DIRECT_MAP_LIMIT`]; empty otherwise (binary-search
        /// fallback).
        direct: Vec<u32>,
    }
}

impl IdIndex {
    /// Sentinel slot value meaning "identifier not interned".
    pub const NO_SLOT: u32 = u32::MAX;

    /// Largest identifier for which the O(1) direct-mapped look-up table
    /// is maintained (64 Ki ids ⇒ at most 256 KiB of table).
    pub const DIRECT_MAP_LIMIT: u32 = 1 << 16;

    /// Builds the interner from an iterator of identifiers (duplicates
    /// collapse; slots are assigned in ascending identifier order).
    pub fn from_ids(ids: impl IntoIterator<Item = u32>) -> Self {
        let unique: BTreeSet<u32> = ids.into_iter().collect();
        let mut index = IdIndex {
            ids: unique.into_iter().collect(),
            direct: Vec::new(),
        };
        index.rebuild_direct();
        index
    }

    fn rebuild_direct(&mut self) {
        self.direct.clear();
        match self.ids.last() {
            Some(&max) if max < Self::DIRECT_MAP_LIMIT => {
                self.direct.resize(max as usize + 1, Self::NO_SLOT);
                for (slot, &id) in self.ids.iter().enumerate() {
                    self.direct[id as usize] = slot as u32;
                }
            }
            _ => {}
        }
    }

    /// Dense slot of `id`, or `None` if the identifier is not interned.
    #[inline]
    pub fn slot_of(&self, id: u32) -> Option<u32> {
        if !self.direct.is_empty() {
            return match self.direct.get(id as usize) {
                Some(&slot) if slot != Self::NO_SLOT => Some(slot),
                _ => None,
            };
        }
        self.ids.binary_search(&id).ok().map(|slot| slot as u32)
    }

    /// Slot of a runnable identifier.
    #[inline]
    pub fn slot_of_runnable(&self, runnable: RunnableId) -> Option<u32> {
        self.slot_of(runnable.0)
    }

    /// Slot of a task identifier.
    #[inline]
    pub fn slot_of_task(&self, task: TaskId) -> Option<u32> {
        self.slot_of(task.0)
    }

    /// The identifier interned at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= len()`.
    #[inline]
    pub fn id_at(&self, slot: u32) -> u32 {
        self.ids[slot as usize]
    }

    /// Interns `id`, returning its slot. Inserting a new identifier keeps
    /// slots in ascending-id order, which shifts every slot after the
    /// insertion point — callers holding parallel per-slot arrays must
    /// insert at the same position. Cold path (dynamic reconfiguration).
    pub fn insert(&mut self, id: u32) -> u32 {
        match self.ids.binary_search(&id) {
            Ok(slot) => slot as u32,
            Err(position) => {
                self.ids.insert(position, id);
                self.rebuild_direct();
                position as u32
            }
        }
    }

    /// `true` if `id` is interned.
    pub fn contains(&self, id: u32) -> bool {
        self.slot_of(id).is_some()
    }

    /// Number of interned identifiers.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` if nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterates the interned identifiers in slot (= ascending id) order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.ids.iter().copied()
    }
}

/// Aliveness-monitoring part of a fault hypothesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlivenessSpec {
    /// Minimum heartbeats expected per monitoring period.
    pub min_indications: u32,
    /// Monitoring period length in watchdog cycles (CCA counts up to this).
    pub cycles: u32,
}

/// Arrival-rate-monitoring part of a fault hypothesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrivalRateSpec {
    /// Maximum heartbeats tolerated per monitoring period.
    pub max_indications: u32,
    /// Monitoring period length in watchdog cycles (CCAR counts up to this).
    pub cycles: u32,
}

/// The complete fault hypothesis of one monitored runnable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunnableHypothesis {
    /// The monitored runnable.
    pub runnable: RunnableId,
    /// Aliveness monitoring, if enabled for this runnable.
    pub aliveness: Option<AlivenessSpec>,
    /// Arrival-rate monitoring, if enabled for this runnable.
    pub arrival_rate: Option<ArrivalRateSpec>,
    /// Initial activation status (AS); monitoring only happens while set.
    pub initially_active: bool,
}

impl RunnableHypothesis {
    /// Creates a hypothesis with both monitors disabled but AS set.
    pub fn new(runnable: RunnableId) -> Self {
        RunnableHypothesis {
            runnable,
            aliveness: None,
            arrival_rate: None,
            initially_active: true,
        }
    }

    /// Enables aliveness monitoring: at least `min` heartbeats every
    /// `cycles` watchdog cycles.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn alive_at_least(mut self, min: u32, cycles: u32) -> Self {
        assert!(cycles > 0, "monitoring period must span at least one cycle");
        self.aliveness = Some(AlivenessSpec {
            min_indications: min,
            cycles,
        });
        self
    }

    /// Enables arrival-rate monitoring: at most `max` heartbeats every
    /// `cycles` watchdog cycles.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn arrive_at_most(mut self, max: u32, cycles: u32) -> Self {
        assert!(cycles > 0, "monitoring period must span at least one cycle");
        self.arrival_rate = Some(ArrivalRateSpec {
            max_indications: max,
            cycles,
        });
        self
    }

    /// Starts with the activation status cleared (monitoring armed later
    /// via the service interface).
    pub fn initially_inactive(mut self) -> Self {
        self.initially_active = false;
        self
    }
}

/// Complete Software Watchdog configuration.
///
/// # Examples
///
/// ```
/// use easis_rte::runnable::RunnableId;
/// use easis_sim::time::Duration;
/// use easis_watchdog::config::{RunnableHypothesis, WatchdogConfig};
///
/// let config = WatchdogConfig::builder(Duration::from_millis(10))
///     .monitor(RunnableHypothesis::new(RunnableId(0)).alive_at_least(1, 1))
///     .allow_flow(RunnableId(0), RunnableId(1))
///     .error_threshold(3)
///     .build();
/// assert_eq!(config.check_period(), Duration::from_millis(10));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WatchdogConfig {
    check_period: Duration,
    hypotheses: BTreeMap<RunnableId, RunnableHypothesis>,
    flow_table: FlowTable,
    error_threshold: u32,
    deactivate_on_faulty_task: bool,
    ecu_faulty_app_threshold: u32,
    mapping: SystemMapping,
    /// Frozen interner over every runnable the watchdog can encounter:
    /// heartbeat-monitored, in the flow table, or deployed in the mapping.
    /// Built by [`WatchdogConfigBuilder::build`].
    runnable_index: IdIndex,
    /// Frozen interner over every task referenced by the mapping (hosting
    /// runnables or assigned to applications).
    task_index: IdIndex,
}

impl WatchdogConfig {
    /// Starts building a configuration with the given watchdog check period
    /// (the period of the watchdog's own OS task).
    pub fn builder(check_period: Duration) -> WatchdogConfigBuilder {
        WatchdogConfigBuilder {
            config: WatchdogConfig {
                check_period,
                hypotheses: BTreeMap::new(),
                flow_table: FlowTable::new(),
                error_threshold: 3,
                deactivate_on_faulty_task: true,
                ecu_faulty_app_threshold: u32::MAX,
                mapping: SystemMapping::new(),
                runnable_index: IdIndex::default(),
                task_index: IdIndex::default(),
            },
        }
    }

    /// The watchdog check period.
    pub fn check_period(&self) -> Duration {
        self.check_period
    }

    /// Hypothesis for a runnable, if monitored.
    pub fn hypothesis(&self, runnable: RunnableId) -> Option<&RunnableHypothesis> {
        self.hypotheses.get(&runnable)
    }

    /// All monitored runnables.
    pub fn monitored(&self) -> impl Iterator<Item = RunnableId> + '_ {
        self.hypotheses.keys().copied()
    }

    /// The program-flow look-up table.
    pub fn flow_table(&self) -> &FlowTable {
        &self.flow_table
    }

    /// TSI error threshold: a task is faulty once any element of its error
    /// indication vector reaches this count.
    pub fn error_threshold(&self) -> u32 {
        self.error_threshold
    }

    /// Whether the watchdog clears the activation status of a faulty task's
    /// runnables (stops double-reporting while fault treatment runs).
    pub fn deactivate_on_faulty_task(&self) -> bool {
        self.deactivate_on_faulty_task
    }

    /// Number of simultaneously faulty applications at which the global ECU
    /// state turns faulty. `u32::MAX` (default) means "all of them".
    pub fn ecu_faulty_app_threshold(&self) -> u32 {
        self.ecu_faulty_app_threshold
    }

    /// The application/task/runnable deployment map.
    pub fn mapping(&self) -> &SystemMapping {
        &self.mapping
    }

    /// The frozen runnable interner: every heartbeat-monitored, flow-table
    /// or mapped runnable has a dense slot here. The monitoring units'
    /// flat per-slot state is indexed through it.
    pub fn runnable_index(&self) -> &IdIndex {
        &self.runnable_index
    }

    /// The frozen task interner covering every task the mapping references.
    pub fn task_index(&self) -> &IdIndex {
        &self.task_index
    }
}

/// Builder for [`WatchdogConfig`].
#[derive(Debug, Clone)]
pub struct WatchdogConfigBuilder {
    config: WatchdogConfig,
}

impl WatchdogConfigBuilder {
    /// Adds (or replaces) the fault hypothesis of one runnable.
    pub fn monitor(mut self, hypothesis: RunnableHypothesis) -> Self {
        self.config
            .hypotheses
            .insert(hypothesis.runnable, hypothesis);
        self
    }

    /// Allows `successor` to directly follow `predecessor` in the program
    /// flow of monitored runnables.
    pub fn allow_flow(mut self, predecessor: RunnableId, successor: RunnableId) -> Self {
        self.config.flow_table.allow(predecessor, successor);
        self
    }

    /// Marks a runnable as a valid start of a monitored sequence.
    pub fn allow_entry(mut self, entry: RunnableId) -> Self {
        self.config.flow_table.allow_entry(entry);
        self
    }

    /// Sets the TSI error threshold (default 3, as in the paper's Figure 6).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn error_threshold(mut self, threshold: u32) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        self.config.error_threshold = threshold;
        self
    }

    /// Sets whether the watchdog clears the activation status of a faulty
    /// task's runnables (default `true`, matching the paper's Figure 6;
    /// `false` is the ablation switch that keeps monitoring them). Named
    /// after the [`WatchdogConfig::deactivate_on_faulty_task`] accessor.
    pub fn deactivate_on_faulty_task(mut self, deactivate: bool) -> Self {
        self.config.deactivate_on_faulty_task = deactivate;
        self
    }

    /// Declares the ECU faulty once `n` applications are faulty.
    pub fn ecu_faulty_after_apps(mut self, n: u32) -> Self {
        self.config.ecu_faulty_app_threshold = n;
        self
    }

    /// Attaches the deployment mapping used for task/application rollup.
    pub fn mapping(mut self, mapping: SystemMapping) -> Self {
        self.config.mapping = mapping;
        self
    }

    /// Finalises the configuration, freezing the dense id interners over
    /// every runnable and task the watchdog can encounter.
    pub fn build(self) -> WatchdogConfig {
        let mut config = self.config;
        config.runnable_index = IdIndex::from_ids(
            config
                .hypotheses
                .keys()
                .map(|r| r.0)
                .chain(config.flow_table.monitored_ids().map(|r| r.0))
                .chain(config.mapping.runnables().map(|r| r.0)),
        );
        config.task_index = IdIndex::from_ids(
            config
                .mapping
                .tasks()
                .map(|t| t.0)
                .chain(config.mapping.runnables().filter_map(|r| {
                    config.mapping.task_of(r).map(|t| t.0)
                })),
        );
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_complete_config() {
        let cfg = WatchdogConfig::builder(Duration::from_millis(10))
            .monitor(
                RunnableHypothesis::new(RunnableId(0))
                    .alive_at_least(1, 2)
                    .arrive_at_most(3, 2),
            )
            .monitor(RunnableHypothesis::new(RunnableId(1)).alive_at_least(2, 4))
            .allow_entry(RunnableId(0))
            .allow_flow(RunnableId(0), RunnableId(1))
            .error_threshold(5)
            .ecu_faulty_after_apps(2)
            .build();
        assert_eq!(cfg.check_period(), Duration::from_millis(10));
        assert_eq!(cfg.monitored().count(), 2);
        let h = cfg.hypothesis(RunnableId(0)).unwrap();
        assert_eq!(h.aliveness.unwrap().min_indications, 1);
        assert_eq!(h.arrival_rate.unwrap().max_indications, 3);
        assert_eq!(cfg.error_threshold(), 5);
        assert_eq!(cfg.ecu_faulty_app_threshold(), 2);
        assert!(cfg.flow_table().is_allowed(RunnableId(0), RunnableId(1)));
    }

    #[test]
    fn defaults_match_paper_setup() {
        let cfg = WatchdogConfig::builder(Duration::from_millis(10)).build();
        assert_eq!(cfg.error_threshold(), 3);
        assert!(cfg.deactivate_on_faulty_task());
        assert_eq!(cfg.ecu_faulty_app_threshold(), u32::MAX);
        assert!(cfg.hypothesis(RunnableId(0)).is_none());
    }

    #[test]
    fn monitor_replaces_existing_hypothesis() {
        let cfg = WatchdogConfig::builder(Duration::from_millis(10))
            .monitor(RunnableHypothesis::new(RunnableId(0)).alive_at_least(1, 1))
            .monitor(RunnableHypothesis::new(RunnableId(0)).alive_at_least(9, 9))
            .build();
        assert_eq!(
            cfg.hypothesis(RunnableId(0)).unwrap().aliveness.unwrap().min_indications,
            9
        );
        assert_eq!(cfg.monitored().count(), 1);
    }

    #[test]
    fn deactivate_on_faulty_task_builder_sets_the_flag() {
        let on = WatchdogConfig::builder(Duration::from_millis(10))
            .deactivate_on_faulty_task(true)
            .build();
        assert!(on.deactivate_on_faulty_task());
        let off = WatchdogConfig::builder(Duration::from_millis(10))
            .deactivate_on_faulty_task(false)
            .build();
        assert!(!off.deactivate_on_faulty_task());
    }

    #[test]
    fn initially_inactive_is_recorded() {
        let h = RunnableHypothesis::new(RunnableId(3)).initially_inactive();
        assert!(!h.initially_active);
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_cycle_hypothesis_rejected() {
        let _ = RunnableHypothesis::new(RunnableId(0)).alive_at_least(1, 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        let _ = WatchdogConfig::builder(Duration::from_millis(10)).error_threshold(0);
    }

    #[test]
    fn build_freezes_runnable_and_task_indices() {
        use easis_osek::task::TaskId;

        let mut mapping = SystemMapping::new();
        let app = mapping.add_application("A");
        mapping.assign_task(TaskId(3), app);
        mapping.assign_runnable(RunnableId(9), TaskId(3));
        // Runnable 9 only in the mapping, 0 monitored, 5 only a flow
        // successor: all three must be interned.
        let cfg = WatchdogConfig::builder(Duration::from_millis(10))
            .mapping(mapping)
            .monitor(RunnableHypothesis::new(RunnableId(0)).alive_at_least(1, 1))
            .allow_flow(RunnableId(0), RunnableId(5))
            .build();
        let idx = cfg.runnable_index();
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.slot_of_runnable(RunnableId(0)), Some(0));
        assert_eq!(idx.slot_of_runnable(RunnableId(5)), Some(1));
        assert_eq!(idx.slot_of_runnable(RunnableId(9)), Some(2));
        assert_eq!(idx.slot_of_runnable(RunnableId(1)), None);
        assert_eq!(cfg.task_index().slot_of_task(TaskId(3)), Some(0));
        assert_eq!(cfg.task_index().slot_of_task(TaskId(0)), None);
    }
}

#[cfg(test)]
mod id_index_tests {
    use super::*;

    #[test]
    fn slots_follow_ascending_id_order() {
        let index = IdIndex::from_ids([30, 10, 20, 10]);
        assert_eq!(index.len(), 3);
        assert_eq!(index.iter().collect::<Vec<_>>(), vec![10, 20, 30]);
        assert_eq!(index.slot_of(10), Some(0));
        assert_eq!(index.slot_of(20), Some(1));
        assert_eq!(index.slot_of(30), Some(2));
        assert_eq!(index.id_at(1), 20);
        assert!(index.contains(30));
        assert!(!index.contains(25));
    }

    #[test]
    fn empty_index_resolves_nothing() {
        let index = IdIndex::default();
        assert!(index.is_empty());
        assert_eq!(index.slot_of(0), None);
        assert_eq!(index.slot_of(u32::MAX), None);
    }

    #[test]
    fn sparse_ids_fall_back_to_binary_search() {
        // Max id ≥ DIRECT_MAP_LIMIT: direct table disabled, look-ups must
        // still resolve (and misses must still miss).
        let big = IdIndex::DIRECT_MAP_LIMIT + 17;
        let index = IdIndex::from_ids([2, big, 40]);
        assert_eq!(index.slot_of(2), Some(0));
        assert_eq!(index.slot_of(40), Some(1));
        assert_eq!(index.slot_of(big), Some(2));
        assert_eq!(index.slot_of(3), None);
        assert_eq!(index.slot_of(big + 1), None);
    }

    #[test]
    fn insert_keeps_ascending_order_and_shifts_slots() {
        let mut index = IdIndex::from_ids([10, 30]);
        assert_eq!(index.insert(20), 1);
        assert_eq!(index.slot_of(10), Some(0));
        assert_eq!(index.slot_of(20), Some(1));
        assert_eq!(index.slot_of(30), Some(2), "slot shifted by the insert");
        // Re-inserting is a no-op returning the existing slot.
        assert_eq!(index.insert(20), 1);
        assert_eq!(index.len(), 3);
    }
}
