//! The node's one record of detection.
//!
//! The Software Watchdog "generates individual supervision reports on
//! runnables" (paper §3.2), and the Fault Management Framework "gathers
//! the information on the detected faults" (§4.4). Every detector of a
//! node — the three Software Watchdog units, the kernel's deadline and
//! execution-budget checks and the hardware watchdog — records each
//! detection once, as one entry of an append-only [`DetectionLog`]: when,
//! which detector, on what. Error counts, first detections and
//! expirations are queries over it, and the watchdog task hands the
//! Software Watchdog's entries to the FMF by moving a cursor along it.

use crate::report::{DetectedFault, FaultKind};
use easis_osek::task::TaskId;
use easis_rte::runnable::RunnableId;
use easis_sim::growth::{LogGrowth, Stamped};
use easis_sim::time::{Duration, Instant};
use serde::{Deserialize, Serialize};

/// The detectors compared by the coverage/latency experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DetectorId {
    /// Software Watchdog — aliveness monitoring unit.
    SwAliveness,
    /// Software Watchdog — arrival-rate monitoring unit.
    SwArrivalRate,
    /// Software Watchdog — program flow checking unit.
    SwProgramFlow,
    /// ECU hardware watchdog.
    HwWatchdog,
    /// OSEKTime-style task deadline monitoring.
    DeadlineMonitor,
    /// AUTOSAR-OS-style execution-time monitoring.
    ExecTimeMonitor,
}

impl DetectorId {
    /// All detectors, in report column order.
    pub const ALL: [DetectorId; 6] = [
        DetectorId::SwAliveness,
        DetectorId::SwArrivalRate,
        DetectorId::SwProgramFlow,
        DetectorId::HwWatchdog,
        DetectorId::DeadlineMonitor,
        DetectorId::ExecTimeMonitor,
    ];

    /// Short column label.
    pub fn label(self) -> &'static str {
        match self {
            DetectorId::SwAliveness => "SW-AM",
            DetectorId::SwArrivalRate => "SW-ARM",
            DetectorId::SwProgramFlow => "SW-PFC",
            DetectorId::HwWatchdog => "HW-WD",
            DetectorId::DeadlineMonitor => "DLMON",
            DetectorId::ExecTimeMonitor => "ETMON",
        }
    }

    /// `true` for the three Software Watchdog units.
    pub fn is_software_watchdog(self) -> bool {
        self.fault_kind().is_some()
    }

    /// The error class a Software Watchdog unit reports; `None` for the
    /// other detectors.
    fn fault_kind(self) -> Option<FaultKind> {
        match self {
            DetectorId::SwAliveness => Some(FaultKind::Aliveness),
            DetectorId::SwArrivalRate => Some(FaultKind::ArrivalRate),
            DetectorId::SwProgramFlow => Some(FaultKind::ProgramFlow),
            _ => None,
        }
    }
}

/// The Software Watchdog unit that reports faults of a kind.
impl From<FaultKind> for DetectorId {
    fn from(kind: FaultKind) -> DetectorId {
        match kind {
            FaultKind::Aliveness => DetectorId::SwAliveness,
            FaultKind::ArrivalRate => DetectorId::SwArrivalRate,
            FaultKind::ProgramFlow => DetectorId::SwProgramFlow,
        }
    }
}

/// One detection: when, by which detector, and on what. The subject is
/// the runnable for the three Software Watchdog units, the task for the
/// kernel's deadline and budget checks, and none for the hardware
/// watchdog; 16 bytes, like a [`DetectedFault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Detection {
    /// Detection instant.
    pub at: Instant,
    subject: u32,
    /// The detector that fired.
    pub detector: DetectorId,
}

impl Detection {
    /// A detection of the kernel's deadline or execution-budget check on
    /// `task`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) for any other detector.
    pub fn on_task(at: Instant, detector: DetectorId, task: TaskId) -> Self {
        debug_assert!(matches!(
            detector,
            DetectorId::DeadlineMonitor | DetectorId::ExecTimeMonitor
        ));
        Detection {
            at,
            subject: task.0,
            detector,
        }
    }

    /// A hardware-watchdog expiry, stamped when the countdown ran out.
    pub fn expiry(at: Instant) -> Self {
        Detection {
            at,
            subject: 0,
            detector: DetectorId::HwWatchdog,
        }
    }

    /// The Software Watchdog fault this entry records; `None` for the
    /// other detectors.
    pub fn fault(&self) -> Option<DetectedFault> {
        self.detector.fault_kind().map(|kind| DetectedFault {
            at: self.at,
            runnable: RunnableId(self.subject),
            kind,
        })
    }

    /// The task of a kernel timing check's entry; `None` for the other
    /// detectors.
    pub fn task(&self) -> Option<TaskId> {
        matches!(
            self.detector,
            DetectorId::DeadlineMonitor | DetectorId::ExecTimeMonitor
        )
        .then_some(TaskId(self.subject))
    }
}

impl From<DetectedFault> for Detection {
    fn from(fault: DetectedFault) -> Detection {
        Detection {
            at: fault.at,
            subject: fault.runnable.0,
            detector: fault.kind.into(),
        }
    }
}

/// Replayed one hyperperiod later by macro-stepping: the instant moves,
/// the detector and subject stay.
impl Stamped for Detection {
    fn shift(&mut self, by: Duration) {
        self.at += by;
    }
}

easis_sim::clone_fields! {
    /// The append-only detection log of a node, with the cursor of its
    /// hand-over to the Fault Management Framework: the Software Watchdog
    /// entries before the cursor have been handed over
    /// ([`crate::SoftwareWatchdog::hand_over_faults`]). Nothing is ever
    /// removed, so every count and first detection of every detector is a
    /// query here.
    #[derive(Debug, Default, PartialEq)]
    pub struct DetectionLog {
        handed: usize,
        entries: Vec<Detection>,
    }
}

impl DetectionLog {
    /// Appends one detection.
    pub fn append(&mut self, detection: Detection) {
        self.entries.push(detection);
    }

    /// Every entry, in append order.
    pub fn entries(&self) -> &[Detection] {
        &self.entries
    }

    /// `true` while no detector has fired.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries of `detector`, handed over or not.
    pub fn count(&self, detector: DetectorId) -> usize {
        self.entries
            .iter()
            .filter(|d| d.detector == detector)
            .count()
    }

    /// Entries of a Software Watchdog unit on `runnable`, handed over or
    /// not: the unit's error count.
    pub fn count_on(&self, detector: DetectorId, runnable: RunnableId) -> u32 {
        let on = |d: &&Detection| d.detector == detector && d.subject == runnable.0;
        self.entries.iter().filter(on).count() as u32
    }

    /// The entries a trial outcome reads: a Software Watchdog entry once
    /// it has been handed to the FMF, every other entry from the moment
    /// it is appended.
    pub fn reported(&self) -> impl Iterator<Item = &Detection> + '_ {
        let (handed, pending) = self.entries.split_at(self.handed);
        handed.iter().chain(
            pending
                .iter()
                .filter(|d| !d.detector.is_software_watchdog()),
        )
    }

    /// The faults handed to the FMF so far, in hand-over order.
    pub fn faults(&self) -> impl Iterator<Item = DetectedFault> + '_ {
        self.entries[..self.handed]
            .iter()
            .filter_map(Detection::fault)
    }

    /// Software Watchdog entries not handed over yet.
    pub fn pending_faults(&self) -> usize {
        let pending = &self.entries[self.handed..];
        pending
            .iter()
            .filter(|d| d.detector.is_software_watchdog())
            .count()
    }

    /// Appends the Software Watchdog entries past the cursor to `out` as
    /// faults, in log order, and moves the cursor to the end of the log.
    pub(crate) fn hand_over_into(&mut self, out: &mut Vec<DetectedFault>) {
        out.extend(
            self.entries[self.handed..]
                .iter()
                .filter_map(Detection::fault),
        );
        self.handed = self.entries.len();
    }

    /// Measures the entries `b` gained over `a`, `b` sampled `h` after
    /// `a`, which was sampled at `since`. Returns `false` when `b` holds
    /// fewer entries. Whether `a`'s entries and cursor come back is left to
    /// the caller's comparison of the advanced sample with `b`.
    pub(crate) fn measure(
        a: &Self,
        b: &Self,
        since: Instant,
        h: Duration,
        growth: &mut LogGrowth<Detection>,
    ) -> bool {
        growth.measure(&a.entries, &b.entries, since, h)
    }

    /// Appends `k` hyperperiods of `growth` to a log sampled at `now`. The
    /// cursor moves with the log, so the advance of a sample equals a
    /// later one only when both hold the same number of entries past the
    /// cursor.
    pub(crate) fn advance(&mut self, growth: &LogGrowth<Detection>, now: Instant, k: u64) {
        growth.advance(&mut self.entries, now, k);
        self.handed += growth.gained() * k as usize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Instant {
        Instant::from_millis(ms)
    }

    fn fault(ms: u64, runnable: u32, kind: FaultKind) -> Detection {
        DetectedFault {
            at: t(ms),
            runnable: RunnableId(runnable),
            kind,
        }
        .into()
    }

    #[test]
    fn an_entry_fits_in_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Detection>(), 16);
    }

    #[test]
    fn software_watchdog_entries_round_trip_as_faults() {
        for kind in FaultKind::ALL {
            let entry = fault(5, 3, kind);
            assert!(entry.detector.is_software_watchdog());
            assert_eq!(entry.detector.fault_kind(), Some(kind));
            assert_eq!(entry.fault().map(|f| f.runnable), Some(RunnableId(3)));
            assert_eq!(entry.task(), None);
        }
        let miss = Detection::on_task(t(5), DetectorId::DeadlineMonitor, TaskId(2));
        assert_eq!((miss.fault(), miss.task()), (None, Some(TaskId(2))));
        let expiry = Detection::expiry(t(60));
        assert_eq!((expiry.fault(), expiry.task()), (None, None));
    }

    #[test]
    fn outcomes_read_software_watchdog_entries_only_once_handed_over() {
        let mut log = DetectionLog::default();
        log.append(fault(10, 1, FaultKind::Aliveness));
        log.append(Detection::on_task(
            t(12),
            DetectorId::ExecTimeMonitor,
            TaskId(0),
        ));
        let mut out = Vec::new();
        log.hand_over_into(&mut out);
        assert_eq!(out, [fault(10, 1, FaultKind::Aliveness).fault().unwrap()]);
        log.append(fault(15, 2, FaultKind::ProgramFlow));
        log.append(Detection::expiry(t(14)));
        assert_eq!(log.pending_faults(), 1);
        let reported: Vec<DetectorId> = log.reported().map(|d| d.detector).collect();
        assert_eq!(
            reported,
            [
                DetectorId::SwAliveness,
                DetectorId::ExecTimeMonitor,
                DetectorId::HwWatchdog
            ]
        );
        assert_eq!(log.faults().count(), 1);
        // Counts read every entry, handed over or not.
        assert_eq!(log.count(DetectorId::SwProgramFlow), 1);
        assert_eq!(log.count_on(DetectorId::SwProgramFlow, RunnableId(2)), 1);
        assert_eq!(log.count_on(DetectorId::SwProgramFlow, RunnableId(1)), 0);
        out.clear();
        log.hand_over_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!((log.pending_faults(), log.faults().count()), (0, 2));
    }

    /// One PFC fault pending at every sample, one aliveness fault and one
    /// kernel entry handed over per 20 ms hyperperiod: a sample advanced
    /// by the growth it measured against the next one equals it, cursor
    /// included, and a log whose pending count changed does not.
    #[test]
    fn the_cursor_moves_with_the_replayed_growth() {
        let h = Duration::from_millis(20);
        let period = |log: &mut DetectionLog, start: u64| {
            log.append(Detection::on_task(
                t(start + 2),
                DetectorId::DeadlineMonitor,
                TaskId(1),
            ));
            log.hand_over_into(&mut Vec::new());
            log.append(fault(start + 10, 4, FaultKind::Aliveness));
            log.hand_over_into(&mut Vec::new());
            log.append(fault(start + 15, 4, FaultKind::ProgramFlow));
            log.clone()
        };
        let mut log = DetectionLog::default();
        let a = period(&mut log, 0);
        let b = period(&mut log, 20);
        let mut growth = LogGrowth::default();
        assert!(DetectionLog::measure(&a, &b, t(16), h, &mut growth));
        let mut advanced = a.clone();
        advanced.advance(&growth, t(16), 1);
        assert_eq!(advanced, b);
        let mut jumped = b.clone();
        jumped.advance(&growth, t(36), 2);
        period(&mut log, 40);
        assert_eq!(jumped, period(&mut log, 60));
        // One more pending entry in the second sample: the entries come
        // back, the cursor does not.
        let mut c = a.clone();
        period(&mut c, 20);
        c.append(fault(39, 4, FaultKind::ProgramFlow));
        assert!(DetectionLog::measure(&a, &c, t(16), h, &mut growth));
        let mut advanced = a.clone();
        advanced.advance(&growth, t(16), 1);
        assert_eq!(advanced.entries(), c.entries());
        assert_ne!(advanced, c);
    }
}
