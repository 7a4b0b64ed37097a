//! Watchdog configuration: the fault hypothesis.
//!
//! The paper's heartbeat counters are "assigned to each runnable to record
//! its heartbeats during the defined monitoring period *according to the
//! fault hypothesis*". [`RunnableHypothesis`] is that per-runnable
//! hypothesis: how many watchdog cycles form a monitoring period and how
//! many aliveness indications are expected at least (aliveness) and at most
//! (arrival rate) within it. [`WatchdogConfig`] aggregates the hypotheses
//! with the program-flow look-up table, the task state indication
//! threshold and the deployment mapping.

use crate::pfc::FlowTable;
use easis_rte::mapping::SystemMapping;
use easis_rte::runnable::RunnableId;
use easis_sim::time::Duration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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
    mapping: SystemMapping,
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
                mapping: SystemMapping::new(),
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

    /// The application/task/runnable deployment map.
    pub fn mapping(&self) -> &SystemMapping {
        &self.mapping
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

    /// Attaches the deployment mapping used for task/application rollup.
    pub fn mapping(mut self, mapping: SystemMapping) -> Self {
        self.config.mapping = mapping;
        self
    }

    /// Finalises the configuration.
    pub fn build(self) -> WatchdogConfig {
        self.config
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
            .build();
        assert_eq!(cfg.check_period(), Duration::from_millis(10));
        assert_eq!(cfg.monitored().count(), 2);
        let h = cfg.hypothesis(RunnableId(0)).unwrap();
        assert_eq!(h.aliveness.unwrap().min_indications, 1);
        assert_eq!(h.arrival_rate.unwrap().max_indications, 3);
        assert_eq!(cfg.error_threshold(), 5);
        assert!(cfg.flow_table().is_allowed(RunnableId(0), RunnableId(1)));
    }

    #[test]
    fn defaults_match_paper_setup() {
        let cfg = WatchdogConfig::builder(Duration::from_millis(10)).build();
        assert_eq!(cfg.error_threshold(), 3);
        assert!(cfg.deactivate_on_faulty_task());
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
}
