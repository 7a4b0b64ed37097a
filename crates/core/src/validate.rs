//! Static configuration validation.
//!
//! A wrong fault hypothesis silently degrades supervision (a too-lax
//! minimum never fires; an unmapped runnable never rolls up to a task
//! verdict). [`validate`] audits a [`WatchdogConfig`] before deployment and
//! returns every finding — the moral equivalent of an AUTOSAR
//! configuration validator for this service.

use crate::config::WatchdogConfig;
use easis_rte::runnable::RunnableId;
use std::fmt;

/// One validation finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigIssue {
    /// A monitored runnable is not mapped to any task: its faults can never
    /// reach the TSI unit.
    MonitoredButUnmapped(RunnableId),
    /// A runnable appears in the flow table but has no fault hypothesis:
    /// its heartbeats feed PFC but aliveness loss goes unnoticed.
    InFlowTableButUnmonitored(RunnableId),
    /// A hypothesis enables neither aliveness nor arrival-rate monitoring.
    HypothesisMonitorsNothing(RunnableId),
    /// Aliveness asks for fewer indications than arrival-rate allows at
    /// most over the same window shape — fine — but the inverse
    /// (min > max over identical windows) can never be satisfied: every
    /// cycle raises at least one of the two errors.
    ContradictoryBounds(RunnableId),
    /// A flow-table entry point that no pair ever returns to (likely a
    /// stale table after refactoring).
    UnreachableEntry(RunnableId),
    /// A mapped task hosts no monitored runnable (supervision gap).
    TaskWithoutMonitoredRunnables(easis_osek::task::TaskId),
}

impl fmt::Display for ConfigIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigIssue::MonitoredButUnmapped(r) => {
                write!(f, "{r} is monitored but mapped to no task")
            }
            ConfigIssue::InFlowTableButUnmonitored(r) => {
                write!(f, "{r} is in the flow table but has no fault hypothesis")
            }
            ConfigIssue::HypothesisMonitorsNothing(r) => {
                write!(f, "{r}'s hypothesis enables no monitoring at all")
            }
            ConfigIssue::ContradictoryBounds(r) => {
                write!(f, "{r}'s aliveness minimum exceeds its arrival maximum")
            }
            ConfigIssue::UnreachableEntry(r) => {
                write!(f, "flow entry {r} is never a successor of any pair")
            }
            ConfigIssue::TaskWithoutMonitoredRunnables(t) => {
                write!(f, "task {t} hosts no monitored runnable")
            }
        }
    }
}

/// Audits a configuration; an empty result means it is deployable.
pub fn validate(config: &WatchdogConfig) -> Vec<ConfigIssue> {
    let mut issues = Vec::new();
    let mapping = config.mapping();
    let has_mapping = mapping.tasks().next().is_some();

    for runnable in config.monitored() {
        let hyp = config.hypothesis(runnable).expect("listed");
        if has_mapping && mapping.task_of(runnable).is_none() {
            issues.push(ConfigIssue::MonitoredButUnmapped(runnable));
        }
        if hyp.aliveness.is_none() && hyp.arrival_rate.is_none() {
            issues.push(ConfigIssue::HypothesisMonitorsNothing(runnable));
        }
        if let (Some(alive), Some(rate)) = (hyp.aliveness, hyp.arrival_rate) {
            // Compare normalised per-cycle bounds over a common window.
            let min_per_cycle = alive.min_indications as f64 / alive.cycles as f64;
            let max_per_cycle = rate.max_indications as f64 / rate.cycles as f64;
            if min_per_cycle > max_per_cycle {
                issues.push(ConfigIssue::ContradictoryBounds(runnable));
            }
        }
    }

    let table = config.flow_table();
    let monitored: Vec<RunnableId> = config.monitored().collect();
    for (pred, succ) in table.pairs() {
        for r in [pred, succ] {
            if !monitored.contains(&r)
                && !issues.contains(&ConfigIssue::InFlowTableButUnmonitored(r))
            {
                issues.push(ConfigIssue::InFlowTableButUnmonitored(r));
            }
        }
    }
    // Entry points should be reachable as successors (cyclic charts) unless
    // they are the only node.
    for entry in monitored.iter().copied().filter(|&r| table.is_entry(r)) {
        let has_pairs = table.pair_count() > 0;
        let is_successor = table.pairs().any(|(_, s)| s == entry);
        if has_pairs && table.is_monitored(entry) && !is_successor {
            issues.push(ConfigIssue::UnreachableEntry(entry));
        }
    }

    for task in mapping.tasks() {
        let hosts_monitored = mapping
            .runnables_of_task(task)
            .iter()
            .any(|r| monitored.contains(r));
        if !hosts_monitored {
            issues.push(ConfigIssue::TaskWithoutMonitoredRunnables(task));
        }
    }
    issues
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunnableHypothesis;
    use easis_osek::task::TaskId;
    use easis_rte::mapping::SystemMapping;
    use easis_sim::time::Duration;

    fn r(n: u32) -> RunnableId {
        RunnableId(n)
    }

    fn good_config() -> WatchdogConfig {
        let mut mapping = SystemMapping::new();
        let app = mapping.add_application("A");
        mapping.assign_task(TaskId(0), app);
        mapping.assign_runnable(r(0), TaskId(0));
        mapping.assign_runnable(r(1), TaskId(0));
        WatchdogConfig::builder(Duration::from_millis(10))
            .mapping(mapping)
            .monitor(
                RunnableHypothesis::new(r(0))
                    .alive_at_least(1, 1)
                    .arrive_at_most(2, 1),
            )
            .monitor(
                RunnableHypothesis::new(r(1))
                    .alive_at_least(1, 1)
                    .arrive_at_most(2, 1),
            )
            .allow_entry(r(0))
            .allow_flow(r(0), r(1))
            .allow_flow(r(1), r(0))
            .build()
    }

    #[test]
    fn a_sound_config_has_no_findings() {
        assert!(validate(&good_config()).is_empty());
    }

    #[test]
    fn unmapped_monitored_runnable_is_flagged() {
        let mut mapping = SystemMapping::new();
        let app = mapping.add_application("A");
        mapping.assign_task(TaskId(0), app);
        mapping.assign_runnable(r(0), TaskId(0));
        let config = WatchdogConfig::builder(Duration::from_millis(10))
            .mapping(mapping)
            .monitor(RunnableHypothesis::new(r(0)).alive_at_least(1, 1))
            .monitor(RunnableHypothesis::new(r(9)).alive_at_least(1, 1)) // unmapped
            .build();
        let issues = validate(&config);
        assert!(issues.contains(&ConfigIssue::MonitoredButUnmapped(r(9))));
    }

    #[test]
    fn empty_hypothesis_is_flagged() {
        let config = WatchdogConfig::builder(Duration::from_millis(10))
            .monitor(RunnableHypothesis::new(r(0)))
            .build();
        let issues = validate(&config);
        assert!(issues.contains(&ConfigIssue::HypothesisMonitorsNothing(r(0))));
    }

    #[test]
    fn contradictory_bounds_are_flagged() {
        let config = WatchdogConfig::builder(Duration::from_millis(10))
            .monitor(
                RunnableHypothesis::new(r(0))
                    .alive_at_least(3, 1) // needs ≥3/cycle
                    .arrive_at_most(2, 1), // allows ≤2/cycle
            )
            .build();
        let issues = validate(&config);
        assert!(issues.contains(&ConfigIssue::ContradictoryBounds(r(0))));
    }

    #[test]
    fn bounds_over_different_windows_are_normalised() {
        // min 2 per 4 cycles (0.5/cycle) vs max 1 per 1 cycle: consistent.
        let config = WatchdogConfig::builder(Duration::from_millis(10))
            .monitor(
                RunnableHypothesis::new(r(0))
                    .alive_at_least(2, 4)
                    .arrive_at_most(1, 1),
            )
            .build();
        assert!(validate(&config).is_empty());
    }

    #[test]
    fn flow_table_members_without_hypotheses_are_flagged() {
        let config = WatchdogConfig::builder(Duration::from_millis(10))
            .monitor(RunnableHypothesis::new(r(0)).alive_at_least(1, 1))
            .allow_flow(r(0), r(1)) // r1 unmonitored
            .build();
        let issues = validate(&config);
        assert!(issues.contains(&ConfigIssue::InFlowTableButUnmonitored(r(1))));
    }

    #[test]
    fn unreachable_entry_is_flagged() {
        let config = WatchdogConfig::builder(Duration::from_millis(10))
            .monitor(RunnableHypothesis::new(r(0)).alive_at_least(1, 1))
            .monitor(RunnableHypothesis::new(r(1)).alive_at_least(1, 1))
            .allow_entry(r(0))
            .allow_flow(r(0), r(1)) // nothing flows back to r0
            .build();
        let issues = validate(&config);
        assert!(issues.contains(&ConfigIssue::UnreachableEntry(r(0))));
    }

    #[test]
    fn unsupervised_task_is_flagged() {
        let mut mapping = SystemMapping::new();
        let app = mapping.add_application("A");
        mapping.assign_task(TaskId(0), app);
        mapping.assign_task(TaskId(1), app); // hosts nothing monitored
        mapping.assign_runnable(r(0), TaskId(0));
        mapping.assign_runnable(r(5), TaskId(1));
        let config = WatchdogConfig::builder(Duration::from_millis(10))
            .mapping(mapping)
            .monitor(RunnableHypothesis::new(r(0)).alive_at_least(1, 1))
            .build();
        let issues = validate(&config);
        assert!(issues.contains(&ConfigIssue::TaskWithoutMonitoredRunnables(TaskId(1))));
    }

    #[test]
    fn findings_render_readably() {
        for issue in [
            ConfigIssue::MonitoredButUnmapped(r(1)),
            ConfigIssue::InFlowTableButUnmonitored(r(2)),
            ConfigIssue::HypothesisMonitorsNothing(r(3)),
            ConfigIssue::ContradictoryBounds(r(4)),
            ConfigIssue::UnreachableEntry(r(5)),
            ConfigIssue::TaskWithoutMonitoredRunnables(TaskId(6)),
        ] {
            assert!(!issue.to_string().is_empty());
        }
    }

    #[test]
    fn the_validators_own_node_config_is_sound() {
        // The config the central node derives must audit clean; guard it.
        let cfg = good_config();
        assert_eq!(validate(&cfg), Vec::new());
    }
}
