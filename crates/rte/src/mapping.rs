//! Application / task / runnable mapping.
//!
//! "Based on the mapping information of applications and tasks,
//! corresponding fault treatments with a global view of the ECU are taken"
//! (paper §3.5). [`SystemMapping`] is that information: which runnables run
//! in which task, and which tasks belong to which application software
//! component. The watchdog's task state indication unit and the Fault
//! Management Framework both navigate this structure when rolling runnable
//! errors up to task, application and global ECU state.

use crate::runnable::RunnableId;
use easis_osek::task::TaskId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of an application software component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ApplicationId(pub u32);

impl ApplicationId {
    /// Index into application tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ApplicationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "App{}", self.0)
    }
}

/// The ECU's deployment mapping: applications → tasks → runnables.
///
/// # Examples
///
/// ```
/// use easis_osek::task::TaskId;
/// use easis_rte::mapping::SystemMapping;
/// use easis_rte::runnable::RunnableId;
///
/// let mut map = SystemMapping::new();
/// let app = map.add_application("SafeSpeed");
/// map.assign_task(TaskId(0), app);
/// map.assign_runnable(RunnableId(0), TaskId(0));
/// assert_eq!(map.task_of(RunnableId(0)), Some(TaskId(0)));
/// assert_eq!(map.app_of(TaskId(0)), Some(app));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SystemMapping {
    app_names: Vec<String>,
    runnable_task: BTreeMap<RunnableId, TaskId>,
    task_app: BTreeMap<TaskId, ApplicationId>,
}

impl SystemMapping {
    /// Creates an empty mapping.
    pub fn new() -> Self {
        SystemMapping::default()
    }

    /// Declares an application software component.
    pub fn add_application(&mut self, name: impl Into<String>) -> ApplicationId {
        let id = ApplicationId(self.app_names.len() as u32);
        self.app_names.push(name.into());
        id
    }

    /// Maps a task to an application (a task belongs to one application;
    /// remapping overwrites).
    pub fn assign_task(&mut self, task: TaskId, app: ApplicationId) {
        self.task_app.insert(task, app);
    }

    /// Maps a runnable to the task hosting it (remapping overwrites).
    pub fn assign_runnable(&mut self, runnable: RunnableId, task: TaskId) {
        self.runnable_task.insert(runnable, task);
    }

    /// Task hosting a runnable.
    pub fn task_of(&self, runnable: RunnableId) -> Option<TaskId> {
        self.runnable_task.get(&runnable).copied()
    }

    /// Application owning a task.
    pub fn app_of(&self, task: TaskId) -> Option<ApplicationId> {
        self.task_app.get(&task).copied()
    }

    /// Name of an application.
    pub fn app_name(&self, app: ApplicationId) -> Option<&str> {
        self.app_names.get(app.index()).map(String::as_str)
    }

    /// All runnables mapped to a task.
    pub fn runnables_of_task(&self, task: TaskId) -> Vec<RunnableId> {
        self.runnable_task
            .iter()
            .filter(|&(_, &t)| t == task)
            .map(|(&r, _)| r)
            .collect()
    }

    /// All tasks mapped to an application.
    pub fn tasks_of_app(&self, app: ApplicationId) -> Vec<TaskId> {
        self.task_app
            .iter()
            .filter(|&(_, &a)| a == app)
            .map(|(&t, _)| t)
            .collect()
    }

    /// All mapped tasks.
    pub fn tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.task_app.keys().copied()
    }

    /// All mapped runnables.
    pub fn runnables(&self) -> impl Iterator<Item = RunnableId> + '_ {
        self.runnable_task.keys().copied()
    }

    /// Number of declared applications.
    pub fn application_count(&self) -> usize {
        self.app_names.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> (SystemMapping, ApplicationId, ApplicationId) {
        let mut m = SystemMapping::new();
        let speed = m.add_application("SafeSpeed");
        let lane = m.add_application("SafeLane");
        m.assign_task(TaskId(0), speed);
        m.assign_task(TaskId(1), lane);
        m.assign_runnable(RunnableId(0), TaskId(0));
        m.assign_runnable(RunnableId(1), TaskId(0));
        m.assign_runnable(RunnableId(2), TaskId(1));
        (m, speed, lane)
    }

    #[test]
    fn navigation_up_and_down() {
        let (m, speed, lane) = demo();
        assert_eq!(m.task_of(RunnableId(1)), Some(TaskId(0)));
        assert_eq!(m.app_of(TaskId(1)), Some(lane));
        assert_eq!(
            m.runnables_of_task(TaskId(0)),
            vec![RunnableId(0), RunnableId(1)]
        );
        assert_eq!(m.tasks_of_app(speed), vec![TaskId(0)]);
        assert_eq!(m.app_name(speed), Some("SafeSpeed"));
        assert_eq!(m.application_count(), 2);
    }

    #[test]
    fn unmapped_objects_return_none() {
        let (m, _, _) = demo();
        assert_eq!(m.task_of(RunnableId(9)), None);
        assert_eq!(m.app_of(TaskId(9)), None);
        assert_eq!(m.app_name(ApplicationId(9)), None);
    }

    #[test]
    fn remapping_overwrites() {
        let (mut m, _, lane) = demo();
        m.assign_runnable(RunnableId(0), TaskId(1));
        assert_eq!(m.task_of(RunnableId(0)), Some(TaskId(1)));
        assert_eq!(m.app_of(TaskId(1)), Some(lane));
    }

    #[test]
    fn iterators_cover_everything() {
        let (m, _, _) = demo();
        assert_eq!(m.tasks().count(), 2);
        assert_eq!(m.runnables().count(), 3);
    }
}
