//! Deterministic discrete-event queue.
//!
//! The [`EventQueue`] orders events by time; ties are broken by insertion
//! order so that a simulation run is fully reproducible. The queue is
//! generic over the event payload, letting each layer (OS kernel, bus,
//! vehicle model) define its own event vocabulary.
//!
//! Internally the queue is one vector of `(time µs, payload)` entries kept
//! sorted by descending time, so the next event is the last element. A new
//! entry goes in after every entry due at the same instant, so position
//! alone keeps same-instant events in insertion order. The traffic it
//! serves is small: the OSEK kernel queues one expiry per armed alarm plus
//! one deadline check per activation still inside its deadline. A count
//! over the four `easis_bench` campaign workloads never saw more than 9
//! pending entries on the central node (its 5 cyclic alarms and at most 4
//! deadline checks). At that size an insert scans and shifts a handful of
//! entries, a pop or peek reads the end, and capture/restore is a single
//! `clone_from` whose stored order already is pop order.

use crate::time::{Duration, Instant};

crate::clone_fields! {
    /// A time-ordered queue of simulation events with stable tie-breaking.
    ///
    /// # Examples
    ///
    /// ```
    /// use easis_sim::event::EventQueue;
    /// use easis_sim::time::Instant;
    ///
    /// let mut q = EventQueue::new();
    /// q.schedule(Instant::from_micros(20), "late");
    /// q.schedule(Instant::from_micros(10), "early");
    /// let (t, e) = q.pop().unwrap();
    /// assert_eq!((t.as_micros(), e), (10, "early"));
    /// ```
    ///
    /// The queue is its own checkpoint: `clone_from` copies the entries into
    /// the destination's buffer, and equality compares entries in stored
    /// order, which is pop order.
    #[derive(Debug, PartialEq)]
    pub struct EventQueue<E> {
        /// Pending `(time µs, payload)` entries sorted by descending time,
        /// same-instant entries in reverse insertion order: the last entry
        /// pops next.
        entries: Vec<(u64, E)>,
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            entries: Vec::new(),
        }
    }

    /// Schedules `payload` to fire at `at`.
    ///
    /// Events scheduled for the same instant fire in the order they were
    /// scheduled.
    pub fn schedule(&mut self, at: Instant, payload: E) {
        let t = at.as_micros();
        // The new entry goes right after the entries later than `t`, so it
        // pops after every entry already due at `t`. A front-to-back scan:
        // the queue holds at most a handful of entries, and a cyclic alarm
        // re-armed one period out lands near the front.
        let idx = self
            .entries
            .iter()
            .position(|&(et, _)| et <= t)
            .unwrap_or(self.entries.len());
        self.entries.insert(idx, (t, payload));
    }

    /// Drops every pending event whose payload fails `keep`. The remaining
    /// events keep their order.
    pub fn retain(&mut self, mut keep: impl FnMut(&E) -> bool) {
        self.entries.retain(|(_, payload)| keep(payload));
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        self.entries
            .pop()
            .map(|(at, payload)| (Instant::from_micros(at), payload))
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Instant> {
        self.entries.last().map(|&(at, _)| Instant::from_micros(at))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every pending `(time µs, payload)` entry in stored order: the
    /// reversed slice is pop order. Two queues holding the same events in
    /// the same pop order store the same entries, so `==`, which compares
    /// entries in stored order, compares content: the macro-stepping
    /// engine's certification relies on that.
    pub fn entries(&self) -> &[(u64, E)] {
        &self.entries
    }

    /// Shifts every pending entry `shift` later. This is the timer half of
    /// a hyperperiod macro-jump: certification applies one hyperperiod's
    /// shift to the queue sampled at `t` and requires it to equal the
    /// queue at `t + H`; the jump then applies k hyperperiods' in
    /// O(pending) instead of replaying every expiry. A uniform shift keeps
    /// the entries sorted, so they are rewritten in place.
    pub fn fast_forward(&mut self, shift: Duration) {
        let shift_us = shift.as_micros();
        for (t, _) in &mut self.entries {
            *t += shift_us;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> Instant {
        Instant::from_micros(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn same_instant_burst_between_earlier_and_later_pops_in_schedule_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "later");
        q.schedule(t(10), "earlier");
        q.schedule(t(20), "a");
        q.schedule(t(40), "latest");
        q.schedule(t(20), "b");
        q.schedule(t(5), "earliest");
        q.schedule(t(20), "c");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let expected = ["earliest", "earlier", "a", "b", "c", "later", "latest"];
        assert_eq!(order, expected);
    }

    #[test]
    fn retain_removes_event() {
        let mut q = EventQueue::new();
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        q.retain(|&e| e != "a");
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_time_skips_removed_head() {
        let mut q = EventQueue::new();
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        q.retain(|&e| e != "a");
        assert_eq!(q.peek_time(), Some(t(20)));
        assert_eq!(q.pop(), Some((t(20), "b")));
    }

    #[test]
    fn is_empty_reflects_removals() {
        let mut q = EventQueue::new();
        q.schedule(t(10), "a");
        assert!(!q.is_empty());
        q.retain(|&e| e != "a");
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_remain_ordered() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        q.schedule(t(30), 3);
        assert_eq!(q.pop(), Some((t(10), 1)));
        q.schedule(t(20), 2);
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
    }

    #[test]
    fn same_instant_fifo_survives_wheel_cascades() {
        // A burst at one far instant (12 417 µs) stays FIFO after an
        // earlier marker is scheduled after it and popped ahead of it.
        let mut q = EventQueue::new();
        let far = 3 * 4096 + 129;
        for i in 0..32 {
            q.schedule(t(far), i);
        }
        q.schedule(t(5), 999);
        assert_eq!(q.pop(), Some((t(5), 999)));
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_events_beyond_top_level_pop_in_order() {
        // Events many multiples of 2^24 µs (~16.8 s) out, scheduled out of
        // order, pop in time order after a near one.
        let mut q = EventQueue::new();
        let horizon = 1u64 << 24;
        q.schedule(t(40 * horizon + 7), "second-window");
        q.schedule(t(3 * horizon + 11), "first-window-b");
        q.schedule(t(3 * horizon + 2), "first-window-a");
        q.schedule(t(500), "near");
        assert_eq!(q.pop(), Some((t(500), "near")));
        assert_eq!(q.pop(), Some((t(3 * horizon + 2), "first-window-a")));
        assert_eq!(q.pop(), Some((t(3 * horizon + 11), "first-window-b")));
        assert_eq!(q.pop(), Some((t(40 * horizon + 7), "second-window")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_instant_fifo_beyond_top_level() {
        // Same-instant FIFO holds past 2^24 µs too.
        let mut q = EventQueue::new();
        let far = (1u64 << 26) + 42;
        for i in 0..10 {
            q.schedule(t(far), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn remove_and_rearm_pending_alarm() {
        // The alarm pattern: drop the pending expiry, re-arm at a
        // different offset; only the re-armed event fires.
        let mut q = EventQueue::new();
        q.schedule(t(10_000), "stale");
        q.retain(|&e| e != "stale");
        q.schedule(t(4_000), "fresh");
        assert_eq!(q.peek_time(), Some(t(4_000)));
        assert_eq!(q.pop(), Some((t(4_000), "fresh")));
        assert_eq!(q.pop(), None);
        // Re-arm again after popping; the queue stays usable.
        q.schedule(t(20_000), "again");
        assert_eq!(q.pop(), Some((t(20_000), "again")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn snapshot_restore_replays_identically() {
        // Near and far entries, one scheduled earlier than an event
        // already popped, and one removed before the capture.
        let mut q = EventQueue::new();
        q.schedule(t(1_000), "first");
        q.schedule(t(50_000), "later");
        q.schedule(t(1 << 26), "overflow");
        q.schedule(t(2_000), "doomed");
        assert_eq!(q.pop(), Some((t(1_000), "first")));
        q.schedule(t(900), "behind-cursor");
        q.retain(|&e| e != "doomed");

        let snap = q.clone();
        fn drain(q: &mut EventQueue<&'static str>) -> Vec<(u64, &'static str)> {
            std::iter::from_fn(|| q.pop().map(|(at, e)| (at.as_micros(), e))).collect()
        }
        let reference = drain(&mut q);
        q.clone_from(&snap);
        assert_eq!(drain(&mut q), reference);
        // Restored queues also continue identically after new activity.
        q.clone_from(&snap);
        assert_eq!(q, snap);
        q.schedule(t(700), "new");
        assert_eq!(q.pop(), Some((t(700), "new")));
        assert_eq!(drain(&mut q), reference);
    }

    #[test]
    fn repeated_restore_retains_all_capacity() {
        let mut q = EventQueue::new();
        for i in 0..32u64 {
            q.schedule(t(500 + 10 * i), i);
        }
        q.schedule(t(1 << 26), 100);
        q.schedule(t(3 << 26), 101);
        q.schedule(t(800), 102);
        q.retain(|&e| e != 102);
        q.pop();
        q.schedule(t(400), 103);
        let mut snap = EventQueue::new();
        snap.clone_from(&q);

        // Warm churn-and-restore cycles must not grow the entry buffer.
        let churn = |q: &mut EventQueue<u64>| {
            for _ in 0..8 {
                q.pop();
            }
            q.schedule(t(5 << 26), 200);
            q.schedule(t(100), 201);
            q.clone_from(&snap);
        };
        let signatures: Vec<usize> = (0..20)
            .map(|_| {
                churn(&mut q);
                q.entries.capacity()
            })
            .collect();
        let warm = *signatures.last().unwrap();
        assert!(
            signatures[10..].iter().all(|&s| s == warm),
            "restore kept growing retained buffers: {signatures:?}"
        );

        // Capturing into the same snapshot buffer again is also stable.
        let snap_cap = snap.entries.capacity();
        snap.clone_from(&q);
        assert_eq!(snap.entries.capacity(), snap_cap);
    }

    #[test]
    fn fast_forward_matches_rescheduled_queue() {
        // A queue fast-forwarded by `shift` must pop exactly like a queue
        // whose entries were scheduled `shift` later to begin with,
        // including far entries and same-instant FIFO ties, and a new
        // schedule at a shifted entry's instant must pop after it.
        let shift = Duration::from_micros(40_000);
        let rotation = 1u64 << 24;
        for (popped, pending) in [
            (1_000u64, [5_000u64, 5_000, 9_500, 1 << 26]),
            // The shift carries the pending entries across a 2^24 µs
            // boundary, with entries on both sides of it and one far
            // beyond.
            (
                rotation - 30_000,
                [
                    rotation - 20_000,
                    rotation - 20_000,
                    rotation + 1_000,
                    3 * rotation + 7,
                ],
            ),
        ] {
            let mut q = EventQueue::new();
            let mut reference = EventQueue::new();
            q.schedule(t(popped), 0u64);
            reference.schedule(t(popped), 0u64);
            assert_eq!(q.pop(), Some((t(popped), 0)));
            assert_eq!(reference.pop(), Some((t(popped), 0)));
            for (at, tag) in pending.into_iter().zip(1u64..) {
                q.schedule(t(at), tag);
                reference.schedule(t(at + shift.as_micros()), tag);
            }
            q.fast_forward(shift);
            assert_eq!(q.peek_time(), reference.peek_time());
            let tie = t(pending[0] + shift.as_micros());
            q.schedule(tie, 9);
            reference.schedule(tie, 9);
            let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
            let expected: Vec<_> = std::iter::from_fn(|| reference.pop()).collect();
            assert_eq!(drained, expected);
        }
    }

    #[test]
    fn schedule_behind_the_pop_front_stays_ordered() {
        // Events scheduled earlier than an already-popped event still pop
        // ahead of later ones.
        let mut q = EventQueue::new();
        q.schedule(t(1_000), "first");
        q.schedule(t(50_000), "last");
        assert_eq!(q.pop(), Some((t(1_000), "first")));
        q.schedule(t(2_000), "mid");
        q.schedule(t(900), "behind-cursor");
        assert_eq!(q.pop(), Some((t(900), "behind-cursor")));
        assert_eq!(q.pop(), Some((t(2_000), "mid")));
        assert_eq!(q.pop(), Some((t(50_000), "last")));
    }
}
