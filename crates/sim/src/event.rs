//! Deterministic discrete-event queue.
//!
//! The [`EventQueue`] orders events by time; ties are broken by insertion
//! order so that a simulation run is fully reproducible regardless of the
//! container internals. The queue is generic over the event payload, letting
//! each layer (OS kernel, bus, vehicle model) define its own event vocabulary.
//!
//! Internally the queue is a hierarchical timer wheel tuned for the periodic
//! alarm workload of the OSEK kernel: each of the `LEVELS` levels has 64
//! slots of 64^level microseconds, so an event lands in a bucket with a
//! single shift/mask and the earliest pending time is found with a
//! trailing-zero count over the slot-occupancy bitmaps. Events beyond the top
//! level go to a sorted overflow map and cascade into the wheel as the cursor
//! reaches their window. The same-instant FIFO tie-break of the original
//! binary-heap implementation (lowest sequence number first) is preserved
//! exactly: every bucket scan resolves ties by sequence number.

use crate::time::{Duration, Instant};
use std::collections::{BTreeMap, HashSet};

/// Handle identifying a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl EventId {
    /// Raw sequence number (monotonically increasing per queue).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Bits per wheel level: 64 slots each.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Wheel depth. Four levels cover 2^24 µs (~16.8 simulated seconds) past the
/// cursor's top-level window; anything later overflows to a sorted map.
const LEVELS: usize = 4;
/// Shift selecting the top-level window of a time (events differing here from
/// the cursor live in the overflow map).
const TOP_SHIFT: u32 = LEVEL_BITS * LEVELS as u32;

/// Where [`EventQueue::find_min`] located the earliest entry.
#[derive(Clone, Copy)]
enum Loc {
    /// `past[idx]`.
    Past(usize),
    /// `slots[level * SLOTS + slot][idx]`.
    Level { level: usize, slot: usize, idx: usize },
    /// `overflow[&key][idx]`.
    Overflow { key: u64, idx: usize },
}

/// One captured overflow window: the window key plus its
/// `(time, seq, payload)` entries, exactly as the wheel stores them.
type OverflowWindow<E> = (u64, Vec<(u64, u64, E)>);

/// The pending state of an [`EventQueue`] captured by
/// [`EventQueue::snapshot`] / [`EventQueue::snapshot_into`]. Opaque: its
/// only consumer is [`EventQueue::restore_from`] on a queue of the same
/// payload type. Overflow windows are stored as a sorted vector (not a
/// `BTreeMap`) so repeated captures into the same buffer reuse the window
/// vectors instead of reallocating map nodes.
#[derive(Debug, Clone)]
pub struct EventQueueSnapshot<E> {
    cursor: u64,
    slots: Vec<Vec<(u64, u64, E)>>,
    occupied: [u64; LEVELS],
    overflow: Vec<OverflowWindow<E>>,
    past: Vec<(u64, u64, E)>,
    head: Option<(u64, u64)>,
    next_seq: u64,
    live: usize,
    cancelled: HashSet<u64>,
}

impl<E> EventQueueSnapshot<E> {
    /// Cursor (µs of the most recently popped wheel event) at capture time.
    pub fn cursor_micros(&self) -> u64 {
        self.cursor
    }

    /// Next sequence number the queue would hand out at capture time.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// `true` if no entry was scheduled behind the cursor at capture time.
    pub fn past_is_empty(&self) -> bool {
        self.past.is_empty()
    }

    /// `true` if no cancellation was pending at capture time.
    pub fn cancelled_is_empty(&self) -> bool {
        self.cancelled.is_empty()
    }

    /// Collects every pending `(time µs, seq, payload)` entry — wheel and
    /// overflow — into `out`, sorted by `(time, seq)`, i.e. in exact pop
    /// order. The wheel's *physical* bucket layout depends on the cursor
    /// history and is not canonical; this logical view is what the
    /// macro-stepping engine compares across hyperperiod samples (and what
    /// canonical state digests hash). Reuses `out`'s capacity.
    pub fn collect_entries(&self, out: &mut Vec<(u64, u64, E)>)
    where
        E: Clone,
    {
        out.clear();
        for ring in &self.slots {
            out.extend(ring.iter().cloned());
        }
        for (_, ring) in &self.overflow {
            out.extend(ring.iter().cloned());
        }
        out.extend(self.past.iter().cloned());
        out.sort_unstable_by_key(|&(t, seq, _)| (t, seq));
    }
}

impl<E> Default for EventQueueSnapshot<E> {
    fn default() -> Self {
        EventQueueSnapshot {
            cursor: 0,
            slots: Vec::new(),
            occupied: [0; LEVELS],
            overflow: Vec::new(),
            past: Vec::new(),
            head: None,
            next_seq: 0,
            live: 0,
            cancelled: HashSet::new(),
        }
    }
}

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
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Time (µs) of the most recently popped wheel event. Every wheel and
    /// overflow entry is at or after the cursor; entries scheduled behind it
    /// live in `past`.
    cursor: u64,
    /// `LEVELS × SLOTS` buckets of `(time µs, seq, payload)`. Bucket order is
    /// not significant: scans resolve `(time, seq)` explicitly.
    slots: Vec<Vec<(u64, u64, E)>>,
    /// Per-level slot-occupancy bitmaps (bit `s` set ⇔ slot `s` non-empty).
    occupied: [u64; LEVELS],
    /// Events beyond the top wheel window, keyed by `time >> TOP_SHIFT`.
    overflow: BTreeMap<u64, Vec<(u64, u64, E)>>,
    /// Events scheduled behind the cursor (time moved "backwards" relative to
    /// the pop front). They precede every wheel entry, so ordering stays
    /// exact; the kernel never schedules in the past, keeping this empty.
    past: Vec<(u64, u64, E)>,
    /// Cached `(time µs, seq)` of the verified-live head; `None` = unknown.
    /// Makes the once-per-compute-slice `peek_time` O(1).
    head: Option<(u64, u64)>,
    /// Empty, capacity-retaining buffer swapped against a slot during a
    /// cascade so draining never drops the slot's allocation.
    cascade_scratch: Vec<(u64, u64, E)>,
    /// Retired overflow-window buffers, recycled when a new window opens or
    /// a restore reinserts one — overflow churn stays allocation-free warm.
    window_spare: Vec<Vec<(u64, u64, E)>>,
    next_seq: u64,
    live: usize,
    /// Sequence numbers of cancelled entries still physically queued;
    /// purged lazily as they reach the head.
    cancelled: HashSet<u64>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        let mut slots = Vec::new();
        slots.resize_with(LEVELS * SLOTS, Vec::new);
        EventQueue {
            cursor: 0,
            slots,
            occupied: [0; LEVELS],
            overflow: BTreeMap::new(),
            past: Vec::new(),
            head: None,
            cascade_scratch: Vec::new(),
            window_spare: Vec::new(),
            next_seq: 0,
            live: 0,
            cancelled: HashSet::new(),
        }
    }

    /// Empties the queue while retaining all allocated slot capacity and
    /// resetting the cursor/sequence state to that of a fresh queue. A
    /// cleared queue schedules and pops exactly like [`EventQueue::new`]
    /// (same ids, same order) but re-arming the periodic-alarm workload
    /// after a reset allocates nothing — the campaign engine's pooled
    /// `Os::reset` relies on this.
    pub fn clear(&mut self) {
        self.cursor = 0;
        for bucket in &mut self.slots {
            bucket.clear();
        }
        self.occupied = [0; LEVELS];
        // Retire overflow-window buffers into the spare pool so the next
        // horizon's windows (or a later restore) reopen allocation-free.
        while let Some((_, ring)) = self.overflow.pop_first() {
            self.window_spare.push(ring);
        }
        self.past.clear();
        self.head = None;
        self.next_seq = 0;
        self.live = 0;
        self.cancelled.clear();
    }

    /// Schedules `payload` to fire at `at`. Returns a handle for [`cancel`].
    ///
    /// Events scheduled for the same instant fire in the order they were
    /// scheduled.
    ///
    /// [`cancel`]: EventQueue::cancel
    pub fn schedule(&mut self, at: Instant, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let t = at.as_micros();
        if let Some((head_at, _)) = self.head {
            if t < head_at {
                self.head = Some((t, seq));
            }
        }
        if t < self.cursor {
            self.past.push((t, seq, payload));
        } else {
            self.insert_wheel(t, seq, payload);
        }
        self.live += 1;
        EventId(seq)
    }

    /// Cancels a previously scheduled event. Returns `true` if the event was
    /// still pending; cancelling twice (or after the event fired) returns
    /// `false` and has no effect.
    ///
    /// The entry stays queued and is purged lazily when it reaches the
    /// head, so only ids still physically queued may be marked — otherwise
    /// a fired id would sit in the cancellation set forever. Finding out
    /// costs a scan of the pending entries; the OSEK kernel cancels alarms
    /// by disarming them, not through this call, so the scan is off its
    /// hot path.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.0 >= self.next_seq || !self.holds_seq(id.0) || !self.cancelled.insert(id.0) {
            return false;
        }
        if self.head.is_some_and(|(_, seq)| seq == id.0) {
            self.head = None;
        }
        true
    }

    /// `true` if an entry with sequence number `seq` is still physically
    /// queued (cancelled or not). O(pending).
    fn holds_seq(&self, seq: u64) -> bool {
        let has = |ring: &Vec<(u64, u64, E)>| ring.iter().any(|&(_, s, _)| s == seq);
        has(&self.past) || self.slots.iter().any(has) || self.overflow.values().any(has)
    }

    /// Removes and returns the earliest pending event, skipping cancelled ones.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        while let Some((at, seq, payload)) = self.remove_min() {
            self.live = self.live.saturating_sub(1);
            if self.cancelled.remove(&seq) {
                continue;
            }
            return Some((Instant::from_micros(at), payload));
        }
        None
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&mut self) -> Option<Instant> {
        if let Some((at, _)) = self.head {
            return Some(Instant::from_micros(at));
        }
        loop {
            let (at, seq, loc) = self.find_min()?;
            if self.cancelled.contains(&seq) {
                self.remove_at(loc);
                self.cancelled.remove(&seq);
                self.live = self.live.saturating_sub(1);
                continue;
            }
            self.head = Some((at, seq));
            return Some(Instant::from_micros(at));
        }
    }

    /// Number of pending (non-cancelled) events.
    // `is_empty` purges lazily and therefore takes `&mut self`; the pair
    // intentionally deviates from the usual signatures.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.live.saturating_sub(
            self.cancelled
                .len()
                .min(self.live),
        )
    }

    /// `true` if no events are pending. (Takes `&mut self` because cancelled
    /// entries are lazily purged during the check; clippy's convention lint
    /// is silenced for that reason.)
    #[allow(clippy::wrong_self_convention)]
    pub fn is_empty(&mut self) -> bool {
        self.peek_time().is_none()
    }

    // ------------------------------------------------------------------
    // Snapshot / restore
    // ------------------------------------------------------------------

    /// Captures the queue's complete pending state — cursor, every wheel
    /// bucket, overflow windows, behind-cursor entries, the head cache and
    /// the sequence/cancellation bookkeeping — so a later
    /// [`EventQueue::restore_from`] resumes scheduling and popping exactly
    /// where the snapshot was taken (same ids, same order). The cascade
    /// scratch buffer is transient (empty between operations) and is not
    /// part of the snapshot.
    pub fn snapshot(&self) -> EventQueueSnapshot<E>
    where
        E: Clone,
    {
        let mut snap = EventQueueSnapshot::default();
        self.snapshot_into(&mut snap);
        snap
    }

    /// Captures the queue's state into `snap`, reusing every buffer the
    /// snapshot already owns — repeated captures into the same snapshot are
    /// allocation-free once warm.
    pub fn snapshot_into(&self, snap: &mut EventQueueSnapshot<E>)
    where
        E: Clone,
    {
        snap.cursor = self.cursor;
        if snap.slots.len() != self.slots.len() {
            snap.slots.clear();
            snap.slots.resize_with(self.slots.len(), Vec::new);
        }
        for (dst, src) in snap.slots.iter_mut().zip(&self.slots) {
            dst.clone_from(src);
        }
        snap.occupied = self.occupied;
        snap.overflow.truncate(self.overflow.len());
        while snap.overflow.len() < self.overflow.len() {
            snap.overflow.push((0, Vec::new()));
        }
        for (dst, (key, ring)) in snap.overflow.iter_mut().zip(&self.overflow) {
            dst.0 = *key;
            dst.1.clone_from(ring);
        }
        snap.past.clone_from(&self.past);
        snap.head = self.head;
        snap.next_seq = self.next_seq;
        snap.live = self.live;
        snap.cancelled.clone_from(&self.cancelled);
    }

    /// Restores the queue to a previously captured snapshot. Every region
    /// is copied, but buffers are overwritten in place (`clone_from`,
    /// spare-pool recycling for overflow windows), so restoring onto a
    /// warm queue allocates nothing in steady state.
    pub fn restore_from(&mut self, snap: &EventQueueSnapshot<E>)
    where
        E: Clone,
    {
        self.cursor = snap.cursor;
        self.occupied = snap.occupied;
        self.head = snap.head;
        self.next_seq = snap.next_seq;
        self.live = snap.live;
        if self.slots.len() != snap.slots.len() {
            self.slots.clear();
            self.slots.resize_with(snap.slots.len(), Vec::new);
        }
        for (dst, src) in self.slots.iter_mut().zip(&snap.slots) {
            dst.clone_from(src);
        }
        self.past.clone_from(&snap.past);
        self.cancelled.clone_from(&snap.cancelled);
        self.restore_overflow(&snap.overflow);
    }

    /// Rebuilds the overflow map from a snapshot's sorted window list,
    /// recycling retired window buffers through the spare pool and
    /// overwriting surviving windows in place.
    fn restore_overflow(&mut self, src: &[OverflowWindow<E>])
    where
        E: Clone,
    {
        let spare = &mut self.window_spare;
        self.overflow.retain(|key, ring| {
            if src.binary_search_by_key(key, |&(k, _)| k).is_ok() {
                true
            } else {
                spare.push(std::mem::take(ring));
                false
            }
        });
        for (key, ring) in src {
            match self.overflow.entry(*key) {
                std::collections::btree_map::Entry::Occupied(e) => {
                    e.into_mut().clone_from(ring);
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    let mut buf = self.window_spare.pop().unwrap_or_default();
                    buf.clear();
                    buf.extend(ring.iter().cloned());
                    e.insert(buf);
                }
            }
        }
    }

    /// Shifts every pending entry `shift` later in time and `seq_shift`
    /// higher in sequence, advances the cursor by `shift`, and lets `fixup`
    /// rewrite each payload in place (the kernel uses this to slide
    /// per-activation sequence numbers carried inside deadline-check
    /// events). This is the timer-wheel half of a hyperperiod macro-jump:
    /// after the macro-stepping engine has proved the queue's logical
    /// content at `t` and `t + H` identical up to these shifts, applying
    /// them advances the queue k hyperperiods in O(pending) instead of
    /// replaying every expiry.
    ///
    /// The wheel buckets are drained and every entry re-inserted relative
    /// to the new cursor, so the physical layout after a jump can differ
    /// from the layout event-by-event simulation would have produced; pop
    /// order is `(time, seq)`-logical, so behavior is unaffected.
    ///
    /// # Panics
    ///
    /// Panics if any entry is behind the cursor or a cancellation is
    /// pending — the macro-stepping guards reject such states before
    /// certifying a jump, so reaching here with one is a caller bug.
    pub fn fast_forward(&mut self, shift: Duration, seq_shift: u64, mut fixup: impl FnMut(&mut E)) {
        assert!(
            self.past.is_empty(),
            "fast_forward with behind-cursor entries pending"
        );
        assert!(
            self.cancelled.is_empty(),
            "fast_forward with cancellations pending"
        );
        let shift_us = shift.as_micros();
        let mut entries = std::mem::take(&mut self.cascade_scratch);
        debug_assert!(entries.is_empty());
        for level in 0..LEVELS {
            let mut bits = self.occupied[level];
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                entries.append(&mut self.slots[level * SLOTS + slot]);
            }
            self.occupied[level] = 0;
        }
        while let Some((_, mut ring)) = self.overflow.pop_first() {
            entries.append(&mut ring);
            self.window_spare.push(ring);
        }
        self.cursor += shift_us;
        self.next_seq += seq_shift;
        self.head = None;
        for (t, seq, mut payload) in entries.drain(..) {
            fixup(&mut payload);
            self.insert_wheel(t + shift_us, seq + seq_shift, payload);
        }
        self.cascade_scratch = entries;
    }

    /// Total buffer capacity (in entries/elements) retained across the
    /// wheel buckets, past list, overflow windows, spare pools and the
    /// cancellation set. Steady-state workloads keep this constant across
    /// repeated snapshot/restore cycles — the capacity-retention tests
    /// assert on it.
    pub fn retained_capacity(&self) -> usize {
        self.slots.iter().map(Vec::capacity).sum::<usize>()
            + self.past.capacity()
            + self.cascade_scratch.capacity()
            + self.overflow.values().map(Vec::capacity).sum::<usize>()
            + self.window_spare.iter().map(Vec::capacity).sum::<usize>()
            + self.window_spare.capacity()
            + self.cancelled.capacity()
    }

    // ------------------------------------------------------------------
    // Wheel internals
    // ------------------------------------------------------------------

    /// Buckets an entry (`t >= cursor`) at the lowest level whose window
    /// around the cursor contains it, or in the overflow map.
    fn insert_wheel(&mut self, t: u64, seq: u64, payload: E) {
        debug_assert!(t >= self.cursor);
        for level in 0..LEVELS {
            let window = LEVEL_BITS * (level as u32 + 1);
            if t >> window == self.cursor >> window {
                let slot = ((t >> (LEVEL_BITS * level as u32)) & SLOT_MASK) as usize;
                self.slots[level * SLOTS + slot].push((t, seq, payload));
                self.occupied[level] |= 1u64 << slot;
                return;
            }
        }
        let spare = &mut self.window_spare;
        self.overflow
            .entry(t >> TOP_SHIFT)
            .or_insert_with(|| {
                // Spare buffers may still hold the entries of the retired
                // window they came from; only their capacity is reused.
                let mut buf = spare.pop().unwrap_or_default();
                buf.clear();
                buf
            })
            .push((t, seq, payload));
    }

    /// Locates the earliest `(time, seq)` entry without removing it.
    ///
    /// Ordering argument: `past` entries are strictly before the cursor and
    /// therefore before every wheel entry; within the wheel, level `l` holds
    /// only times inside the cursor's level-`l+1` window while level `l+1`
    /// holds times beyond it, so the first non-empty level contains the
    /// minimum, in its lowest occupied slot (slot indices do not wrap within
    /// an aligned window); overflow windows come last, in key order.
    fn find_min(&self) -> Option<(u64, u64, Loc)> {
        fn scan<T>(ring: &[(u64, u64, T)]) -> usize {
            let mut best = 0;
            for i in 1..ring.len() {
                if (ring[i].0, ring[i].1) < (ring[best].0, ring[best].1) {
                    best = i;
                }
            }
            best
        }
        if !self.past.is_empty() {
            let idx = scan(&self.past);
            let (at, seq, _) = self.past[idx];
            return Some((at, seq, Loc::Past(idx)));
        }
        for level in 0..LEVELS {
            let bits = self.occupied[level];
            if bits == 0 {
                continue;
            }
            let slot = bits.trailing_zeros() as usize;
            let ring = &self.slots[level * SLOTS + slot];
            let idx = scan(ring);
            let (at, seq, _) = ring[idx];
            return Some((at, seq, Loc::Level { level, slot, idx }));
        }
        if let Some((&key, ring)) = self.overflow.iter().next() {
            let idx = scan(ring);
            let (at, seq, _) = ring[idx];
            return Some((at, seq, Loc::Overflow { key, idx }));
        }
        None
    }

    /// Physically removes the entry at `loc`, maintaining the bitmaps.
    fn remove_at(&mut self, loc: Loc) -> (u64, u64, E) {
        match loc {
            Loc::Past(idx) => self.past.swap_remove(idx),
            Loc::Level { level, slot, idx } => {
                let ring = &mut self.slots[level * SLOTS + slot];
                let entry = ring.swap_remove(idx);
                if ring.is_empty() {
                    self.occupied[level] &= !(1u64 << slot);
                }
                entry
            }
            Loc::Overflow { key, idx } => {
                let ring = self.overflow.get_mut(&key).expect("overflow key present");
                let entry = ring.swap_remove(idx);
                if ring.is_empty() {
                    let retired = self.overflow.remove(&key).expect("ring just accessed");
                    self.window_spare.push(retired);
                }
                entry
            }
        }
    }

    /// Removes and returns the earliest entry (cancelled or not).
    fn remove_min(&mut self) -> Option<(u64, u64, E)> {
        self.head = None;
        let (at, seq, loc) = self.find_min()?;
        match loc {
            // Entries behind the cursor pop directly; the cursor stays put.
            Loc::Past(_) => Some(self.remove_at(loc)),
            _ => {
                // Advance the cursor to the event being popped: windows the
                // cursor enters cascade down and the minimum lands in level 0.
                self.advance_to(at);
                let slot = (at & SLOT_MASK) as usize;
                let idx = self.slots[slot]
                    .iter()
                    .position(|&(a, s, _)| a == at && s == seq)
                    .expect("minimum present in level 0 after cascade");
                Some(self.remove_at(Loc::Level { level: 0, slot, idx }))
            }
        }
    }

    /// Moves the cursor forward to `m` (the pending minimum) and cascades: at
    /// each level the slot containing `m` is drained and its entries re-bucket
    /// at a strictly lower level; an overflow window reaching the wheel is
    /// migrated in. Safe because no pending entry precedes `m`: any slot the
    /// drain touches holds only times sharing `m`'s window at that level.
    fn advance_to(&mut self, m: u64) {
        debug_assert!(m >= self.cursor);
        if m == self.cursor {
            return;
        }
        self.cursor = m;
        if let Some(mut batch) = self.overflow.remove(&(m >> TOP_SHIFT)) {
            for (t, seq, payload) in batch.drain(..) {
                self.insert_wheel(t, seq, payload);
            }
            self.window_spare.push(batch);
        }
        for level in (1..LEVELS).rev() {
            let slot = ((m >> (LEVEL_BITS * level as u32)) & SLOT_MASK) as usize;
            if self.occupied[level] & (1u64 << slot) == 0 {
                continue;
            }
            // Swap the slot's buffer against the reusable cascade scratch
            // instead of `mem::take`ing it: taking would drop the buffer
            // (and its capacity) after the drain, costing an allocation per
            // re-bucketed event in steady state. With the swap, capacities
            // circulate between the scratch and the slots and the periodic
            // alarm workload cascades allocation-free once warm.
            let mut batch = std::mem::replace(
                &mut self.slots[level * SLOTS + slot],
                std::mem::take(&mut self.cascade_scratch),
            );
            self.occupied[level] &= !(1u64 << slot);
            for (t, seq, payload) in batch.drain(..) {
                self.insert_wheel(t, seq, payload);
            }
            self.cascade_scratch = batch;
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
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert!(q.cancel(a));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn double_cancel_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), "a");
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert!(!q.cancel(a), "a fired event cannot be cancelled");
        assert_eq!(q.len(), 1);
        assert!(q.snapshot().cancelled_is_empty());
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn cancel_unknown_id_returns_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId(99)));
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(20)));
        assert_eq!(q.pop(), Some((t(20), "b")));
    }

    #[test]
    fn is_empty_reflects_cancellations() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), "a");
        assert!(!q.is_empty());
        q.cancel(a);
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
        // Events at one far instant start two wheel levels up; popping the
        // near marker first forces them to cascade down through the levels,
        // which must not disturb their insertion order.
        let mut q = EventQueue::new();
        let far = 3 * 4096 + 129; // level 2 relative to cursor 0
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
        // 2^24 µs is the wheel horizon; these live in the overflow map.
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
        let mut q = EventQueue::new();
        let far = (1u64 << 26) + 42;
        for i in 0..10 {
            q.schedule(t(far), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_and_rearm_pending_alarm() {
        // The kernel's alarm pattern: cancel the pending expiry, re-arm at a
        // different offset; only the re-armed event fires.
        let mut q = EventQueue::new();
        let stale = q.schedule(t(10_000), "stale");
        assert!(q.cancel(stale));
        let _fresh = q.schedule(t(4_000), "fresh");
        assert_eq!(q.peek_time(), Some(t(4_000)));
        assert_eq!(q.pop(), Some((t(4_000), "fresh")));
        assert_eq!(q.pop(), None);
        // Re-arm again after popping; the queue stays usable.
        q.schedule(t(20_000), "again");
        assert_eq!(q.pop(), Some((t(20_000), "again")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn clear_replays_like_a_fresh_queue() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), "a");
        q.schedule(t(1 << 26), "overflow");
        q.schedule(t(5), "past-maker");
        assert_eq!(q.pop(), Some((t(5), "past-maker")));
        q.schedule(t(3), "behind");
        assert!(q.cancel(a));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        // Ids and ordering restart exactly as on a fresh queue.
        let first = q.schedule(t(30), "x");
        assert_eq!(first.raw(), 0);
        q.schedule(t(20), "y");
        assert_eq!(q.pop(), Some((t(20), "y")));
        assert_eq!(q.pop(), Some((t(30), "x")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn snapshot_restore_replays_identically() {
        // Build a queue with entries in every region: wheel, overflow,
        // behind-cursor, plus a pending cancellation.
        let mut q = EventQueue::new();
        q.schedule(t(1_000), "first");
        q.schedule(t(50_000), "later");
        q.schedule(t(1 << 26), "overflow");
        let doomed = q.schedule(t(2_000), "doomed");
        assert_eq!(q.pop(), Some((t(1_000), "first")));
        q.schedule(t(900), "behind-cursor");
        q.cancel(doomed);

        let snap = q.snapshot();
        fn drain(q: &mut EventQueue<&'static str>) -> Vec<(u64, &'static str)> {
            std::iter::from_fn(|| q.pop().map(|(at, e)| (at.as_micros(), e))).collect()
        }
        let reference = drain(&mut q);
        q.restore_from(&snap);
        assert_eq!(drain(&mut q), reference);
        // Restored queues also continue identically after new activity.
        q.restore_from(&snap);
        let a = q.schedule(t(700), "new");
        assert_eq!(a.raw(), snap.next_seq);
        assert_eq!(q.pop(), Some((t(700), "new")));
        assert_eq!(drain(&mut q), reference);
    }

    #[test]
    fn repeated_restore_retains_all_capacity() {
        let mut q = EventQueue::new();
        for i in 0..32u64 {
            q.schedule(t(500 + 10 * i), i);
        }
        // Two overflow windows plus behind-cursor and cancelled entries so
        // every region is exercised.
        q.schedule(t(1 << 26), 100);
        q.schedule(t(3 << 26), 101);
        let doomed = q.schedule(t(800), 102);
        q.cancel(doomed);
        q.pop();
        q.schedule(t(400), 103);
        let mut snap = EventQueueSnapshot::default();
        q.snapshot_into(&mut snap);

        // Cascade swaps circulate buffer capacities between wheel buckets,
        // so the footprint needs a few churn+restore cycles to reach its
        // fixed point; once warm, repeated restores must not grow anything.
        let churn = |q: &mut EventQueue<u64>| {
            for _ in 0..8 {
                q.pop();
            }
            q.schedule(t(5 << 26), 200);
            q.schedule(t(100), 201);
            q.restore_from(&snap);
        };
        let signatures: Vec<usize> = (0..20)
            .map(|_| {
                churn(&mut q);
                q.retained_capacity()
            })
            .collect();
        let warm = *signatures.last().unwrap();
        assert!(
            signatures[10..].iter().all(|&s| s == warm),
            "restore kept growing retained buffers: {signatures:?}"
        );

        // Capturing into the same snapshot buffer again is also stable.
        let snap_cap: usize = snap.slots.iter().map(Vec::capacity).sum::<usize>()
            + snap.overflow.iter().map(|(_, v)| v.capacity()).sum::<usize>()
            + snap.past.capacity();
        q.snapshot_into(&mut snap);
        let snap_cap_after: usize = snap.slots.iter().map(Vec::capacity).sum::<usize>()
            + snap.overflow.iter().map(|(_, v)| v.capacity()).sum::<usize>()
            + snap.past.capacity();
        assert_eq!(snap_cap, snap_cap_after);
    }

    #[test]
    fn fast_forward_matches_rescheduled_queue() {
        // A queue fast-forwarded by `shift` must pop exactly like a queue
        // whose entries were scheduled `shift` later to begin with,
        // including overflow entries and same-instant FIFO ties.
        let shift = Duration::from_micros(40_000);
        let seqs = 3u64; // pretend 3 schedules happened during the span
        let rotation = 1u64 << 24;
        for (cursor, pending) in [
            (1_000u64, [5_000u64, 5_000, 9_500, 1 << 26]),
            // The shift carries the cursor across a 2^24 µs wheel
            // rotation, with entries on both sides of the boundary and
            // one in overflow.
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
            q.schedule(t(cursor), 0u64);
            reference.schedule(t(cursor), 0u64);
            assert_eq!(q.pop(), Some((t(cursor), 0)));
            assert_eq!(reference.pop(), Some((t(cursor), 0)));
            for (at, tag) in pending.into_iter().zip(1u64..) {
                q.schedule(t(at), tag);
                reference.schedule(t(at + shift.as_micros()), tag);
            }
            q.fast_forward(shift, seqs, |_| {});
            assert_eq!(q.peek_time(), reference.peek_time());
            let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
            let expected: Vec<_> = std::iter::from_fn(|| reference.pop()).collect();
            assert_eq!(drained, expected);
            // New schedules continue from the shifted sequence space.
            assert_eq!(q.schedule(t(1 << 27), 9).raw(), 5 + seqs);
        }
    }

    #[test]
    fn schedule_behind_the_pop_front_stays_ordered() {
        // Popping advances the wheel cursor; events scheduled before it
        // must still pop ahead of later ones.
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
