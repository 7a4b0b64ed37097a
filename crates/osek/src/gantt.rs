//! Execution-trace Gantt rendering.
//!
//! Turns the kernel's dispatch/preempt/terminate trace into per-task ASCII
//! timelines — the poor man's trace analyzer view used when debugging
//! schedules and when presenting the validator's execution to humans.

use crate::kernel::TRACE_SOURCE;
use easis_sim::time::Instant;
use easis_sim::trace::TraceRecorder;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A closed running interval of one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunInterval {
    /// Dispatch time.
    pub from: Instant,
    /// End of the slice (preemption or termination).
    pub to: Instant,
}

/// Extracts per-task running intervals from a kernel trace. Slices still
/// open at the last trace event are closed at that event's time.
pub fn running_intervals(trace: &TraceRecorder) -> BTreeMap<String, Vec<RunInterval>> {
    let mut intervals: BTreeMap<String, Vec<RunInterval>> = BTreeMap::new();
    let mut open: BTreeMap<String, Instant> = BTreeMap::new();
    let mut last_at = Instant::ZERO;
    for event in trace.events() {
        if event.source != TRACE_SOURCE {
            continue;
        }
        last_at = event.at;
        match event.kind.as_str() {
            "dispatch" => {
                open.entry(event.detail.clone()).or_insert(event.at);
            }
            "preempt" | "terminate" => {
                if let Some(from) = open.remove(&event.detail) {
                    intervals
                        .entry(event.detail.clone())
                        .or_default()
                        .push(RunInterval { from, to: event.at });
                }
            }
            _ => {}
        }
    }
    for (task, from) in open {
        intervals
            .entry(task)
            .or_default()
            .push(RunInterval { from, to: last_at });
    }
    intervals
}

/// Renders the trace as a Gantt chart over `[from, to)`, one row per task,
/// `width` columns. A column is marked when the task ran during any part
/// of that bucket.
pub fn render_gantt(trace: &TraceRecorder, from: Instant, to: Instant, width: usize) -> String {
    let width = width.max(10);
    let mut out = String::new();
    if to <= from {
        return out;
    }
    let span = to.as_micros() - from.as_micros();
    let intervals = running_intervals(trace);
    let name_width = intervals.keys().map(String::len).max().unwrap_or(4).max(4);
    for (task, runs) in &intervals {
        let mut row = vec!['·'; width];
        for run in runs {
            if run.to <= from || run.from >= to {
                continue;
            }
            let a = run.from.as_micros().max(from.as_micros()) - from.as_micros();
            let b = run.to.as_micros().min(to.as_micros()) - from.as_micros();
            let col_a = (a as u128 * width as u128 / span as u128) as usize;
            let col_b = (b as u128 * width as u128 / span as u128) as usize;
            for c in row.iter_mut().take((col_b + 1).min(width)).skip(col_a) {
                *c = '█';
            }
        }
        let _ = writeln!(
            out,
            "{task:>name_width$} |{}|",
            row.into_iter().collect::<String>()
        );
    }
    let _ = writeln!(
        out,
        "{:>name_width$}  {}us{}{}us",
        "",
        from.as_micros(),
        " ".repeat(width.saturating_sub(12)),
        to.as_micros()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alarm::AlarmAction;
    use crate::kernel::Os;
    use crate::plan::Script;
    use crate::task::{Priority, TaskConfig};
    use easis_sim::time::Duration;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn demo_os() -> Os<()> {
        let mut os: Os<()> = Os::new();
        let lo = os.add_task(
            TaskConfig::new("lo", Priority(1)),
            Script::new().compute(ms(8)),
        );
        let hi = os.add_task(
            TaskConfig::new("hi", Priority(5)),
            Script::new().compute(ms(2)),
        );
        let a_lo = os.add_alarm("alo", AlarmAction::ActivateTask(lo));
        let a_hi = os.add_alarm("ahi", AlarmAction::ActivateTask(hi));
        let mut w = ();
        os.start(&mut w);
        os.set_rel_alarm(a_lo, ms(1), None).unwrap();
        os.set_rel_alarm(a_hi, ms(4), None).unwrap();
        os.run_until(Instant::from_millis(15), &mut w);
        os
    }

    #[test]
    fn intervals_cover_preemption_correctly() {
        let os = demo_os();
        let intervals = running_intervals(os.trace());
        // lo: 1–4 (preempted), 6–11. hi: 4–6.
        assert_eq!(
            intervals["lo"],
            vec![
                RunInterval {
                    from: Instant::from_millis(1),
                    to: Instant::from_millis(4)
                },
                RunInterval {
                    from: Instant::from_millis(6),
                    to: Instant::from_millis(11)
                },
            ]
        );
        assert_eq!(
            intervals["hi"],
            vec![RunInterval {
                from: Instant::from_millis(4),
                to: Instant::from_millis(6)
            }]
        );
    }

    #[test]
    fn gantt_marks_running_buckets() {
        let os = demo_os();
        let chart = render_gantt(os.trace(), Instant::ZERO, Instant::from_millis(15), 30);
        let lo_row = chart
            .lines()
            .find(|l| l.trim_start().starts_with("lo"))
            .unwrap();
        let hi_row = chart
            .lines()
            .find(|l| l.trim_start().starts_with("hi"))
            .unwrap();
        assert!(lo_row.contains('█'));
        assert!(hi_row.contains('█'));
        // hi runs strictly inside lo's window: its marks are fewer.
        let count = |row: &str| row.chars().filter(|&c| c == '█').count();
        assert!(count(hi_row) < count(lo_row));
    }

    #[test]
    fn open_slices_are_closed_at_the_last_event() {
        let mut os: Os<()> = Os::new();
        let t = os.add_task(
            TaskConfig::new("t", Priority(1)),
            Script::new().compute(ms(100)),
        );
        let mut w = ();
        os.start(&mut w);
        os.activate_task(t, &mut w).unwrap();
        os.run_until(Instant::from_millis(10), &mut w);
        // The task is still mid-compute; the interval ends at the last
        // recorded event (its dispatch) rather than panicking.
        let intervals = running_intervals(os.trace());
        assert_eq!(intervals["t"].len(), 1);
    }

    #[test]
    fn degenerate_ranges_render_empty() {
        let os = demo_os();
        let chart = render_gantt(
            os.trace(),
            Instant::from_millis(5),
            Instant::from_millis(5),
            20,
        );
        assert!(chart.is_empty());
    }
}
