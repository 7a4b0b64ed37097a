//! The [`ObsSink`] handle the instrumented services record through.
//!
//! A sink is either *disabled* — the default, a `None` inside — in which
//! case every call is a no-op that touches no shared state, or *enabled*
//! with a shared flight recorder + metrics registry behind a mutex. The
//! shared core is behind `Arc<Mutex<..>>` (not `Rc`) because the campaign
//! executor moves watchdog instances across scoped worker threads.
//!
//! Recording never charges the simulation [`CostMeter`]: observability is
//! a host-side concern and must not perturb the simulated cost model, or
//! the golden campaign report would change the moment a sink is attached.
//!
//! [`CostMeter`]: easis_sim::cpu::CostMeter

use crate::event::{ObsEvent, TimedEvent};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::recorder::FlightRecorder;
use easis_sim::time::{Duration, Instant};
use serde::{Deserialize, Serialize, Value};
use std::sync::{Arc, Mutex, MutexGuard};

#[derive(Debug)]
struct ObsCore {
    recorder: FlightRecorder,
    metrics: MetricsRegistry,
}

/// Cheap, cloneable handle to a shared flight recorder + metrics registry.
///
/// Cloning a sink shares the underlying recorder; a disabled sink clones
/// to another disabled sink. All methods are no-ops (or return empty data)
/// when disabled.
#[derive(Debug, Clone, Default)]
pub struct ObsSink {
    shared: Option<Arc<Mutex<ObsCore>>>,
}

impl ObsSink {
    /// A disabled sink, for the calls that take a sink by reference:
    /// `&ObsSink::DISABLED` records nothing.
    pub const DISABLED: ObsSink = ObsSink { shared: None };

    /// A disabled sink: every call is a no-op.
    pub fn disabled() -> Self {
        ObsSink { shared: None }
    }

    /// An enabled sink with a flight recorder of the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enabled(capacity: usize) -> Self {
        ObsSink {
            shared: Some(Arc::new(Mutex::new(ObsCore {
                recorder: FlightRecorder::new(capacity),
                metrics: MetricsRegistry::new(),
            }))),
        }
    }

    /// `true` when the sink has a recorder, so recording happens.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// The shared core, locked; `None` when disabled.
    #[inline]
    fn core(&self) -> Option<MutexGuard<'_, ObsCore>> {
        self.shared
            .as_ref()
            .map(|shared| shared.lock().expect("obs sink poisoned"))
    }

    /// Records an event at `at` and bumps the per-tag event counter.
    ///
    /// One lock acquisition covers both; a disabled sink returns without
    /// touching shared state.
    #[inline]
    pub fn record(&self, at: Instant, event: ObsEvent) {
        if let Some(mut core) = self.core() {
            core.metrics.count(event.tag(), 1);
            core.recorder.record(at, event);
        }
    }

    /// Adds `n` to a named counter (no event recorded).
    #[inline]
    pub fn count(&self, name: &'static str, n: u64) {
        if let Some(mut core) = self.core() {
            core.metrics.count(name, n);
        }
    }

    /// Records a latency observation at an instrumentation site.
    #[inline]
    pub fn observe_latency(&self, site: &'static str, latency: Duration) {
        if let Some(mut core) = self.core() {
            core.metrics.observe(site, latency);
        }
    }

    /// The retained events, oldest first (empty when disabled).
    pub fn events(&self) -> Vec<TimedEvent> {
        self.core()
            .map_or_else(Vec::new, |core| core.recorder.events())
    }

    /// Events overwritten because the ring buffer was full.
    pub fn dropped(&self) -> u64 {
        self.core().map_or(0, |core| core.recorder.dropped())
    }

    /// Current value of a counter (0 when disabled or never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.core().map_or(0, |core| core.metrics.counter(name))
    }

    /// Snapshot of all counters and latency sites (empty when disabled).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.core().map_or_else(
            || MetricsSnapshot {
                counters: Vec::new(),
                sites: Vec::new(),
            },
            |core| core.metrics.snapshot(),
        )
    }

    /// The retained trace as JSON Lines, one event per line, oldest first.
    ///
    /// Each line carries the event's stable snake_case `tag` next to the
    /// structured payload, so downstream tooling can filter lines without
    /// parsing the variant encoding.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.events() {
            let mut value = Serialize::serialize(&event);
            value.map_insert("tag", Value::Str(event.event.tag().to_string()));
            let line = serde_json::to_string(&value).expect("event serialisation is infallible");
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

// A sink is deliberately invisible to serde: watchdog state containers
// derive Serialize/Deserialize and the vendored derive has no field-skip
// support, so the sink serialises to null and deserialises disabled —
// persisted watchdog state never carries a live recorder.
impl Serialize for ObsSink {
    fn serialize(&self) -> Value {
        Value::Null
    }
}

impl Deserialize for ObsSink {
    fn deserialize(_value: &Value) -> Result<Self, serde::Error> {
        Ok(ObsSink::disabled())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easis_rte::runnable::RunnableId;

    fn t(ms: u64) -> Instant {
        Instant::from_millis(ms)
    }
    fn hb(n: u32) -> ObsEvent {
        ObsEvent::HeartbeatRecorded { runnable: RunnableId(n) }
    }

    #[test]
    fn disabled_sink_is_inert() {
        let sink = ObsSink::disabled();
        assert!(!sink.is_enabled());
        sink.record(t(1), hb(0));
        sink.count("x", 5);
        sink.observe_latency("site", Duration::from_micros(3));
        assert!(sink.events().is_empty());
        assert_eq!(sink.counter("x"), 0);
        assert_eq!(sink.dropped(), 0);
        let snap = sink.metrics_snapshot();
        assert!(snap.counters.is_empty() && snap.sites.is_empty());
        assert_eq!(sink.to_jsonl(), "");
    }

    #[test]
    fn default_is_disabled() {
        assert!(!ObsSink::default().is_enabled());
    }

    #[test]
    fn recording_counts_by_tag() {
        let sink = ObsSink::enabled(16);
        sink.record(t(1), hb(0));
        sink.record(t(2), hb(1));
        sink.record(t(3), ObsEvent::CycleCheckStart { cycle: 1 });
        assert_eq!(sink.counter("heartbeat_recorded"), 2);
        assert_eq!(sink.counter("cycle_check_start"), 1);
        assert_eq!(sink.events().len(), 3);
    }

    #[test]
    fn clones_share_the_recorder() {
        let sink = ObsSink::enabled(8);
        let clone = sink.clone();
        clone.record(t(5), hb(9));
        assert_eq!(sink.events().len(), 1);
        assert_eq!(sink.events()[0].event, hb(9));
    }

    #[test]
    fn jsonl_is_one_event_per_line_oldest_first() {
        let sink = ObsSink::enabled(8);
        sink.record(t(1), hb(0));
        sink.record(t(2), ObsEvent::CycleCheckEnd { cycle: 1, faults: 0 });
        let jsonl = sink.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"tag\":\"heartbeat_recorded\""), "{}", lines[0]);
        assert!(lines[1].contains("\"tag\":\"cycle_check_end\""), "{}", lines[1]);
        // Each line parses back to the original event.
        let back: TimedEvent = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(back.event, hb(0));
    }

    #[test]
    fn serde_round_trip_comes_back_disabled() {
        let sink = ObsSink::enabled(4);
        sink.record(t(1), hb(0));
        let value = Serialize::serialize(&sink);
        let back = <ObsSink as Deserialize>::deserialize(&value).unwrap();
        assert!(!back.is_enabled());
    }
}
