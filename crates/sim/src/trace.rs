//! Trace recording.
//!
//! Every layer of the simulated platform logs its observable actions into a
//! [`TraceRecorder`]: task dispatches, runnable starts/ends, heartbeats,
//! detected errors, bus frames, fault treatments. Tests and the experiment
//! harness assert on the trace instead of peeking into component internals,
//! mirroring how the paper's evaluation reads ControlDesk plots rather than
//! memory dumps.

use crate::time::Instant;
use serde::{Deserialize, Serialize};
use std::fmt;

crate::clone_fields! {
    /// One timestamped trace record. Its `clone_from` reuses the string
    /// buffers, so capturing a trace into a warm checkpoint allocates
    /// nothing once the destination has seen strings at least as long.
    #[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
    pub struct TraceEvent {
        /// When the event happened.
        pub at: Instant,
        /// Which component emitted it (e.g. `"osek"`, `"watchdog"`, `"can0"`).
        pub source: String,
        /// Event kind, a stable machine-readable tag (e.g. `"dispatch"`).
        pub kind: String,
        /// Free-form detail (task name, runnable name, error description …).
        pub detail: String,
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>10}us] {:<10} {:<18} {}",
            self.at.as_micros(),
            self.source,
            self.kind,
            self.detail
        )
    }
}

crate::clone_fields! {
    /// An append-only recorder of [`TraceEvent`]s.
    ///
    /// # Examples
    ///
    /// ```
    /// use easis_sim::trace::TraceRecorder;
    /// use easis_sim::time::Instant;
    ///
    /// let mut trace = TraceRecorder::new();
    /// trace.record(Instant::from_millis(1), "watchdog", "heartbeat", "GetSensorValue");
    /// assert_eq!(trace.count_kind("heartbeat"), 1);
    /// ```
    #[derive(Debug, Default, PartialEq)]
    pub struct TraceRecorder {
        events: Vec<TraceEvent>,
        enabled: bool,
    }
}

impl TraceRecorder {
    /// Creates an enabled, empty recorder.
    pub fn new() -> Self {
        TraceRecorder {
            events: Vec::new(),
            enabled: true,
        }
    }

    /// Creates a recorder that drops everything (for overhead benchmarks).
    pub fn disabled() -> Self {
        TraceRecorder {
            events: Vec::new(),
            enabled: false,
        }
    }

    /// Appends an event.
    pub fn record(
        &mut self,
        at: Instant,
        source: impl Into<String>,
        kind: impl Into<String>,
        detail: impl Into<String>,
    ) {
        if self.enabled {
            self.events.push(TraceEvent {
                at,
                source: source.into(),
                kind: kind.into(),
                detail: detail.into(),
            });
        }
    }

    /// Whether [`TraceRecorder::record`] currently retains events. Callers
    /// that build an expensive `detail` string should check this first —
    /// `record` receives the string *after* it was formatted, too late to
    /// save the allocation.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// All recorded events, in recording order (which is time order as long
    /// as callers record at the current simulation time).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Iterator over events of one kind.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a TraceEvent> + 'a {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Number of events with the given kind.
    pub fn count_kind(&self, kind: &str) -> usize {
        self.of_kind(kind).count()
    }

    /// First event of the given kind, if any. Useful for detection-latency
    /// measurements.
    pub fn first_of_kind(&self, kind: &str) -> Option<&TraceEvent> {
        self.events.iter().find(|e| e.kind == kind)
    }

    /// Total number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drops all recorded events, keeping the enabled flag.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Renders the whole trace as text, one event per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> Instant {
        Instant::from_micros(us)
    }

    #[test]
    fn records_and_filters_by_kind() {
        let mut trace = TraceRecorder::new();
        trace.record(t(1), "osek", "dispatch", "TaskA");
        trace.record(t(2), "watchdog", "heartbeat", "R1");
        trace.record(t(3), "watchdog", "heartbeat", "R2");
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.count_kind("heartbeat"), 2);
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let mut trace = TraceRecorder::disabled();
        trace.record(t(1), "x", "y", "z");
        assert!(trace.is_empty());
    }

    #[test]
    fn clear_empties_the_trace() {
        let mut trace = TraceRecorder::new();
        trace.record(t(1), "x", "y", "z");
        trace.clear();
        assert!(trace.is_empty());
        trace.record(t(2), "x", "y", "z");
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn render_is_one_line_per_event() {
        let mut trace = TraceRecorder::new();
        trace.record(t(1), "a", "b", "c");
        trace.record(t(2), "d", "e", "f");
        assert_eq!(trace.render().lines().count(), 2);
    }
}
