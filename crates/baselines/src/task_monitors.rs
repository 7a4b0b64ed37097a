//! Task-granularity timing monitors: OSEKTime deadline monitoring and
//! AUTOSAR OS execution-time monitoring.
//!
//! Both are the related-work comparators of the paper's §2: "Deadline
//! monitoring of the OSEKTime operating system and execution time
//! monitoring of AUTOSAR OS introduce the time monitoring of tasks, but the
//! granularity of fault detection on the layer of tasks is not fine enough
//! for runnables." The OSEK kernel already detects both conditions exactly
//! (per-task deadlines and budgets); a [`TaskMonitor`] collects one of the
//! two event kinds, chosen by its [`TimingCheck`], into per-task statistics
//! that the coverage experiments read out.

use easis_osek::hooks::{HookEvent, HookMask, HookObserver};
use easis_osek::task::TaskId;
use easis_sim::growth::{advance_counts, measure_counts};
use easis_sim::time::Instant;
use std::sync::{Arc, Mutex};

easis_sim::clone_fields! {
    /// Statistics collected by a task-granularity monitor: its runtime
    /// state. `clone_from` into a warm checkpoint reuses its buffer.
    #[derive(Debug, Default, PartialEq, Eq)]
    pub struct TaskMonitorStats {
        /// Detections per task, indexed by task id (grown on first
        /// detection).
        detections: Vec<u32>,
        first_detection: Option<(TaskId, Instant)>,
    }
}

impl TaskMonitorStats {
    /// Detections attributed to `task`.
    pub fn detections_of(&self, task: TaskId) -> u32 {
        self.detections.get(task.index()).copied().unwrap_or(0)
    }

    /// Total detections across tasks.
    pub fn total(&self) -> u32 {
        self.detections.iter().sum()
    }

    /// Earliest detection, if any.
    pub fn first_detection(&self) -> Option<(TaskId, Instant)> {
        self.first_detection
    }

    /// Measures how far each task's detection count in `b` is ahead of
    /// `a`'s. The counts are reports: no monitor or kernel decision reads
    /// them back, so a faulty steady state may raise them every
    /// hyperperiod. The first detection must stay put, which the caller's
    /// comparison checks, as it does a task detected for the first time.
    pub fn measure(a: &Self, b: &Self, growth: &mut Vec<u64>) {
        measure_counts(&a.detections, &b.detections, growth);
    }

    /// Raises each task's detection count by `k` times its measured
    /// growth.
    pub fn advance(&mut self, growth: &[u64], k: u64) {
        advance_counts(&mut self.detections, growth, k);
    }

    fn record(&mut self, task: TaskId, at: Instant) {
        let i = task.index();
        if self.detections.len() <= i {
            self.detections.resize(i + 1, 0);
        }
        self.detections[i] += 1;
        if self.first_detection.is_none() {
            self.first_detection = Some((task, at));
        }
    }
}

/// Shared handle to a monitor's statistics.
pub type StatsHandle = Arc<Mutex<TaskMonitorStats>>;

/// The kernel timing event a [`TaskMonitor`] counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingCheck {
    /// OSEKTime-style deadline monitoring: kernel deadline misses.
    Deadline,
    /// AUTOSAR-OS-style execution-time monitoring: budget overruns.
    ExecutionTime,
}

/// A task-granularity timing monitor: counts the kernel events of its
/// [`TimingCheck`] per task.
#[derive(Debug, Clone)]
pub struct TaskMonitor {
    check: TimingCheck,
    stats: StatsHandle,
}

impl TaskMonitor {
    /// Creates the monitor; subscribe the value with `Os::add_observer`
    /// (it is `Clone`, keep one copy for reading).
    pub fn new(check: TimingCheck) -> Self {
        TaskMonitor {
            check,
            stats: StatsHandle::default(),
        }
    }

    /// Read access to the collected statistics.
    pub fn stats(&self) -> TaskMonitorStats {
        self.stats.lock().expect("stats lock").clone()
    }

    /// Copies the collected statistics into `out`, reusing its buffer
    /// (the capture half of campaign checkpoint support).
    pub fn stats_into(&self, out: &mut TaskMonitorStats) {
        out.clone_from(&self.stats.lock().expect("stats lock"));
    }

    /// Overwrites the statistics in every clone of this monitor with a
    /// previously captured snapshot ([`TaskMonitor::stats_into`] is the
    /// capture half).
    pub fn restore_stats(&self, stats: &TaskMonitorStats) {
        self.stats.lock().expect("stats lock").clone_from(stats);
    }

    /// Jumps the statistics of every clone of this monitor `k` certified
    /// hyperperiods ahead ([`TaskMonitorStats::advance`]).
    pub fn advance(&self, growth: &[u64], k: u64) {
        self.stats.lock().expect("stats lock").advance(growth, k);
    }

    /// Earliest detection without copying the statistics.
    pub fn first_detection(&self) -> Option<(TaskId, Instant)> {
        self.stats.lock().expect("stats lock").first_detection()
    }
}

impl<W> HookObserver<W> for TaskMonitor {
    fn on_hook(&mut self, now: Instant, event: HookEvent, _world: &mut W) {
        let task = match (self.check, event) {
            (TimingCheck::Deadline, HookEvent::DeadlineMiss { task, .. })
            | (TimingCheck::ExecutionTime, HookEvent::BudgetExceeded { task, .. }) => task,
            _ => return,
        };
        self.stats.lock().expect("stats lock").record(task, now);
    }

    /// Only the counted kind, so the kernel keeps every other hook event
    /// (dispatches, activations, terminations) away from the monitor.
    fn interest(&self) -> HookMask {
        match self.check {
            TimingCheck::Deadline => HookMask::DEADLINE_MISS,
            TimingCheck::ExecutionTime => HookMask::BUDGET_EXCEEDED,
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
        let monitor = TaskMonitor::new(TimingCheck::Deadline);
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
        let monitor = TaskMonitor::new(TimingCheck::ExecutionTime);
        os.add_observer(monitor.clone());
        let mut w = ();
        os.start(&mut w);
        os.activate_task(t, &mut w).unwrap();
        os.run_until(Instant::from_millis(10), &mut w);
        assert_eq!(monitor.stats().detections_of(t), 1);
    }

    #[test]
    fn detection_counts_grow_by_their_measured_advance() {
        let mut stats = TaskMonitorStats::default();
        stats.record(TaskId(1), Instant::from_millis(5));
        let a = stats.clone();
        stats.record(TaskId(1), Instant::from_millis(25));
        stats.record(TaskId(1), Instant::from_millis(26));
        let mut growth = Vec::new();
        TaskMonitorStats::measure(&a, &stats, &mut growth);
        let mut advanced = a.clone();
        advanced.advance(&growth, 1);
        assert_eq!(advanced, stats);
        advanced.advance(&growth, 3);
        assert_eq!(advanced.detections_of(TaskId(1)), 9);
        assert_eq!(
            advanced.first_detection(),
            Some((TaskId(1), Instant::from_millis(5)))
        );
        // A task detected for the first time has no count in `a` to grow
        // from, so the comparison refuses it.
        stats.record(TaskId(3), Instant::from_millis(30));
        TaskMonitorStats::measure(&a, &stats, &mut growth);
        let mut advanced = a.clone();
        advanced.advance(&growth, 1);
        assert_ne!(advanced, stats);
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
        let dl = TaskMonitor::new(TimingCheck::Deadline);
        let et = TaskMonitor::new(TimingCheck::ExecutionTime);
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
