//! Task-granularity timing monitors: OSEKTime deadline monitoring and
//! AUTOSAR OS execution-time monitoring.
//!
//! Both are the related-work comparators of the paper's §2: "Deadline
//! monitoring of the OSEKTime operating system and execution time
//! monitoring of AUTOSAR OS introduce the time monitoring of tasks, but the
//! granularity of fault detection on the layer of tasks is not fine enough
//! for runnables." The OSEK kernel already detects both conditions exactly
//! (per-task deadlines and budgets); these observers collect the events
//! into per-task statistics that the coverage experiments read out.

use easis_osek::hooks::{HookEvent, HookObserver};
use easis_osek::task::TaskId;
use easis_sim::time::Instant;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Statistics collected by a task-granularity monitor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaskMonitorStats {
    detections: BTreeMap<TaskId, u32>,
    first_detection: Option<(TaskId, Instant)>,
}

impl TaskMonitorStats {
    /// Detections attributed to `task`.
    pub fn detections_of(&self, task: TaskId) -> u32 {
        self.detections.get(&task).copied().unwrap_or(0)
    }

    /// Total detections across tasks.
    pub fn total(&self) -> u32 {
        self.detections.values().sum()
    }

    /// Earliest detection, if any.
    pub fn first_detection(&self) -> Option<(TaskId, Instant)> {
        self.first_detection
    }

    fn record(&mut self, task: TaskId, at: Instant) {
        *self.detections.entry(task).or_insert(0) += 1;
        if self.first_detection.is_none() {
            self.first_detection = Some((task, at));
        }
    }
}

/// Shared handle to a monitor's statistics.
pub type StatsHandle = Arc<Mutex<TaskMonitorStats>>;

/// OSEKTime-style deadline monitor: counts kernel deadline-miss events.
#[derive(Debug, Clone, Default)]
pub struct DeadlineMonitor {
    stats: StatsHandle,
}

impl DeadlineMonitor {
    /// Creates the monitor; subscribe the value with `Os::add_observer`
    /// (it is `Clone`, keep one copy for reading).
    pub fn new() -> Self {
        DeadlineMonitor::default()
    }

    /// Read access to the collected statistics.
    pub fn stats(&self) -> TaskMonitorStats {
        self.stats.lock().expect("stats lock").clone()
    }

    /// Overwrites the statistics in every clone of this monitor with a
    /// previously captured snapshot ([`DeadlineMonitor::stats`] is the
    /// capture half — campaign checkpoint support).
    pub fn restore_stats(&self, stats: &TaskMonitorStats) {
        self.stats.lock().expect("stats lock").clone_from(stats);
    }

    /// Total detections without cloning the map (detections only ever
    /// increment, so an unchanged total proves the whole statistics
    /// unchanged — the macro-stepping engine's allocation-free check).
    pub fn total(&self) -> u32 {
        self.stats.lock().expect("stats lock").total()
    }

    /// Earliest detection without cloning the map.
    pub fn first_detection(&self) -> Option<(TaskId, Instant)> {
        self.stats.lock().expect("stats lock").first_detection()
    }
}

impl<W> HookObserver<W> for DeadlineMonitor {
    fn on_hook(&mut self, now: Instant, event: HookEvent, _world: &mut W) {
        if let HookEvent::DeadlineMiss { task, .. } = event {
            self.stats.lock().expect("stats lock").record(task, now);
        }
    }
}

/// AUTOSAR-OS-style execution-time monitor: counts budget-exceeded events.
#[derive(Debug, Clone, Default)]
pub struct ExecutionTimeMonitor {
    stats: StatsHandle,
}

impl ExecutionTimeMonitor {
    /// Creates the monitor (see [`DeadlineMonitor::new`] for the usage
    /// pattern).
    pub fn new() -> Self {
        ExecutionTimeMonitor::default()
    }

    /// Read access to the collected statistics.
    pub fn stats(&self) -> TaskMonitorStats {
        self.stats.lock().expect("stats lock").clone()
    }

    /// Overwrites the statistics in every clone of this monitor with a
    /// previously captured snapshot ([`ExecutionTimeMonitor::stats`] is
    /// the capture half — campaign checkpoint support).
    pub fn restore_stats(&self, stats: &TaskMonitorStats) {
        self.stats.lock().expect("stats lock").clone_from(stats);
    }

    /// Total detections without cloning the map (see
    /// [`DeadlineMonitor::total`]).
    pub fn total(&self) -> u32 {
        self.stats.lock().expect("stats lock").total()
    }

    /// Earliest detection without cloning the map.
    pub fn first_detection(&self) -> Option<(TaskId, Instant)> {
        self.stats.lock().expect("stats lock").first_detection()
    }
}

impl<W> HookObserver<W> for ExecutionTimeMonitor {
    fn on_hook(&mut self, now: Instant, event: HookEvent, _world: &mut W) {
        if let HookEvent::BudgetExceeded { task, .. } = event {
            self.stats.lock().expect("stats lock").record(task, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easis_osek::alarm::AlarmAction;
    use easis_osek::kernel::Os;
    use easis_osek::plan::Plan;
    use easis_osek::task::{Priority, TaskConfig};
    use easis_sim::time::Duration;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn deadline_monitor_counts_kernel_misses() {
        let mut os: Os<()> = Os::new();
        let t = os.add_task(
            TaskConfig::new("slow", Priority(1)).with_deadline(ms(5)),
            |_, _: &()| Plan::new().compute(ms(8)),
        );
        let a = os.add_alarm("a", AlarmAction::ActivateTask(t));
        let monitor = DeadlineMonitor::new();
        os.add_observer(monitor.clone());
        let mut w = ();
        os.start(&mut w);
        os.set_rel_alarm(a, ms(1), Some(ms(20))).unwrap();
        os.run_until(Instant::from_millis(50), &mut w);
        let stats = monitor.stats();
        assert_eq!(stats.detections_of(t), 3);
        assert_eq!(stats.total(), 3);
        let (task, at) = stats.first_detection().unwrap();
        assert_eq!(task, t);
        assert_eq!(at, Instant::from_millis(6));
    }

    #[test]
    fn execution_monitor_counts_budget_overruns() {
        let mut os: Os<()> = Os::new();
        let t = os.add_task(
            TaskConfig::new("hog", Priority(1)).with_execution_budget(ms(2)),
            |_, _: &()| Plan::new().compute(ms(4)),
        );
        let monitor = ExecutionTimeMonitor::new();
        os.add_observer(monitor.clone());
        let mut w = ();
        os.start(&mut w);
        os.activate_task(t, &mut w).unwrap();
        os.run_until(Instant::from_millis(10), &mut w);
        assert_eq!(monitor.stats().detections_of(t), 1);
    }

    #[test]
    fn monitors_stay_silent_on_healthy_tasks() {
        let mut os: Os<()> = Os::new();
        let t = os.add_task(
            TaskConfig::new("fine", Priority(1))
                .with_deadline(ms(10))
                .with_execution_budget(ms(10)),
            |_, _: &()| Plan::new().compute(ms(1)),
        );
        let dl = DeadlineMonitor::new();
        let et = ExecutionTimeMonitor::new();
        os.add_observer(dl.clone());
        os.add_observer(et.clone());
        let mut w = ();
        os.start(&mut w);
        os.activate_task(t, &mut w).unwrap();
        os.run_until(Instant::from_millis(30), &mut w);
        assert_eq!(dl.stats().total(), 0);
        assert_eq!(et.stats().total(), 0);
        assert!(dl.stats().first_detection().is_none());
    }
}
