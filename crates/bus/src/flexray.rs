//! FlexRay static-segment simulation.
//!
//! The validator's time-triggered domain: a communication cycle of fixed
//! length divided into static slots, each statically assigned to one
//! sender/frame. A sender updates its slot buffer at any time; the bus
//! transmits the buffered value at every occurrence of the slot,
//! delivering with deterministic latency — the property that makes FlexRay
//! attractive for x-by-wire. Empty slots are simply skipped (null frames).

use crate::frame::{Frame, FrameId};
use easis_sim::time::{Duration, Instant};

/// Index of a static slot within the communication cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotId(pub u16);

/// A frame received from the static segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotDelivery {
    /// End of the slot in which the frame was transmitted.
    pub at: Instant,
    /// The slot.
    pub slot: SlotId,
    /// The transmitted frame.
    pub frame: Frame,
}

#[derive(Debug, Clone)]
struct Slot {
    assigned: FrameId,
    buffer: Option<Frame>,
}

/// The FlexRay static-segment model.
///
/// # Examples
///
/// ```
/// use easis_bus::flexray::{FlexRayBus, SlotId};
/// use easis_bus::frame::{Frame, FrameId};
/// use easis_sim::time::{Duration, Instant};
///
/// let mut bus = FlexRayBus::new(Duration::from_millis(5), Duration::from_micros(50), 4);
/// bus.assign_slot(SlotId(0), FrameId(0x10)).unwrap();
/// bus.submit(SlotId(0), Frame::new(FrameId(0x10), vec![7])).unwrap();
/// let out = bus.advance(Instant::from_millis(6));
/// assert_eq!(out.len(), 2); // slot 0 occurs in cycle 0 and cycle 1
/// ```
#[derive(Debug, Clone)]
pub struct FlexRayBus {
    cycle: Duration,
    slot_len: Duration,
    slots: Vec<Slot>,
    /// Next cycle index to process.
    next_cycle: u64,
    frames_sent: u64,
}

/// Errors of the FlexRay configuration/submission API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlexRayError {
    /// Slot index out of range.
    UnknownSlot,
    /// Slot not assigned to any frame id.
    UnassignedSlot,
    /// Frame id does not match the slot assignment.
    WrongFrame,
}

impl std::fmt::Display for FlexRayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FlexRayError::UnknownSlot => "slot index out of range",
            FlexRayError::UnassignedSlot => "slot has no frame assignment",
            FlexRayError::WrongFrame => "frame id does not match slot assignment",
        })
    }
}

impl std::error::Error for FlexRayError {}

impl FlexRayBus {
    /// Creates a bus with `slots` static slots of `slot_len` each in a
    /// cycle of `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if the slots do not fit into the cycle, or either length is
    /// zero.
    pub fn new(cycle: Duration, slot_len: Duration, slots: u16) -> Self {
        assert!(
            !cycle.is_zero() && !slot_len.is_zero(),
            "lengths must be positive"
        );
        assert!(
            slot_len * slots as u64 <= cycle,
            "static segment exceeds the communication cycle"
        );
        FlexRayBus {
            cycle,
            slot_len,
            slots: (0..slots)
                .map(|_| Slot {
                    assigned: FrameId(0),
                    buffer: None,
                })
                .collect(),
            next_cycle: 0,
            frames_sent: 0,
        }
    }

    /// Assigns a frame id to a slot (the static schedule, configured at
    /// design time à la DECOMSYS).
    ///
    /// # Errors
    ///
    /// [`FlexRayError::UnknownSlot`] for out-of-range slots.
    pub fn assign_slot(&mut self, slot: SlotId, frame: FrameId) -> Result<(), FlexRayError> {
        let s = self
            .slots
            .get_mut(slot.0 as usize)
            .ok_or(FlexRayError::UnknownSlot)?;
        s.assigned = frame;
        s.buffer = None;
        Ok(())
    }

    /// Updates the transmit buffer of a slot.
    ///
    /// # Errors
    ///
    /// [`FlexRayError::UnknownSlot`] / [`FlexRayError::WrongFrame`] on
    /// schedule mismatches.
    pub fn submit(&mut self, slot: SlotId, frame: Frame) -> Result<(), FlexRayError> {
        let s = self
            .slots
            .get_mut(slot.0 as usize)
            .ok_or(FlexRayError::UnknownSlot)?;
        if s.assigned != frame.id {
            return Err(FlexRayError::WrongFrame);
        }
        s.buffer = Some(frame);
        Ok(())
    }

    /// End time of `slot` within cycle `cycle_idx`.
    fn slot_end(&self, cycle_idx: u64, slot: usize) -> Instant {
        Instant::ZERO + self.cycle * cycle_idx + self.slot_len * (slot as u64 + 1)
    }

    /// Advances the bus to `now`, emitting the deliveries of every complete
    /// slot since the last call. Buffers persist (a value transmits every
    /// cycle until overwritten), matching FlexRay state messages.
    pub fn advance(&mut self, now: Instant) -> Vec<SlotDelivery> {
        let mut out = Vec::new();
        loop {
            let cycle_idx = self.next_cycle;
            // Cycles are emitted whole, once their last static slot has
            // completed; a partially elapsed cycle is emitted on a later
            // advance call.
            let last_end = self.slot_end(cycle_idx, self.slots.len().saturating_sub(1));
            if self.slots.is_empty() || last_end > now {
                break;
            }
            for (i, slot) in self.slots.iter().enumerate() {
                if let Some(frame) = &slot.buffer {
                    out.push(SlotDelivery {
                        at: self.slot_end(cycle_idx, i),
                        slot: SlotId(i as u16),
                        frame: frame.clone(),
                    });
                    self.frames_sent += 1;
                }
            }
            self.next_cycle += 1;
        }
        out
    }

    /// Communication cycle length.
    pub fn cycle(&self) -> Duration {
        self.cycle
    }

    /// Frames transmitted so far.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// Worst-case delivery latency of a freshly submitted value: one full
    /// cycle plus the slot position.
    pub fn worst_case_latency(&self, slot: SlotId) -> Duration {
        self.cycle + self.slot_len * (slot.0 as u64 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> FlexRayBus {
        let mut b = FlexRayBus::new(Duration::from_millis(5), Duration::from_micros(100), 4);
        b.assign_slot(SlotId(0), FrameId(0x10)).unwrap();
        b.assign_slot(SlotId(1), FrameId(0x11)).unwrap();
        b
    }

    #[test]
    fn buffered_frame_transmits_every_cycle() {
        let mut b = bus();
        b.submit(SlotId(0), Frame::new(FrameId(0x10), vec![1]))
            .unwrap();
        // Cycles 0..=3 complete by 16 ms (static segments end at 0.4, 5.4,
        // 10.4 and 15.4 ms).
        let out = b.advance(Instant::from_millis(16));
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].at, Instant::from_micros(100));
        assert_eq!(out[1].at, Instant::from_micros(5_100));
        assert_eq!(out[2].at, Instant::from_micros(10_100));
        assert_eq!(out[3].at, Instant::from_micros(15_100));
    }

    #[test]
    fn empty_slots_transmit_nothing() {
        let mut b = bus();
        assert!(b.advance(Instant::from_millis(20)).is_empty());
        assert_eq!(b.frames_sent(), 0);
    }

    #[test]
    fn slots_deliver_in_schedule_order() {
        let mut b = bus();
        b.submit(SlotId(1), Frame::new(FrameId(0x11), vec![2]))
            .unwrap();
        b.submit(SlotId(0), Frame::new(FrameId(0x10), vec![1]))
            .unwrap();
        let out = b.advance(Instant::from_millis(5));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].slot, SlotId(0));
        assert_eq!(out[1].slot, SlotId(1));
        assert!(out[0].at < out[1].at);
    }

    #[test]
    fn submission_overwrites_buffer() {
        let mut b = bus();
        b.submit(SlotId(0), Frame::new(FrameId(0x10), vec![1]))
            .unwrap();
        b.submit(SlotId(0), Frame::new(FrameId(0x10), vec![9]))
            .unwrap();
        let out = b.advance(Instant::from_millis(5));
        assert_eq!(out[0].frame.payload.as_ref(), &[9]);
    }

    #[test]
    fn schedule_mismatches_are_rejected() {
        let mut b = bus();
        assert_eq!(
            b.submit(SlotId(9), Frame::new(FrameId(0x10), vec![])),
            Err(FlexRayError::UnknownSlot)
        );
        assert_eq!(
            b.submit(SlotId(0), Frame::new(FrameId(0x99), vec![])),
            Err(FlexRayError::WrongFrame)
        );
        assert_eq!(
            b.assign_slot(SlotId(9), FrameId(1)),
            Err(FlexRayError::UnknownSlot)
        );
    }

    #[test]
    fn worst_case_latency_is_cycle_plus_slot() {
        let b = bus();
        assert_eq!(
            b.worst_case_latency(SlotId(1)),
            Duration::from_millis(5) + Duration::from_micros(200)
        );
    }

    #[test]
    fn advance_is_incremental_across_calls() {
        let mut b = bus();
        b.submit(SlotId(0), Frame::new(FrameId(0x10), vec![1]))
            .unwrap();
        assert_eq!(b.advance(Instant::from_millis(5)).len(), 1);
        assert_eq!(b.advance(Instant::from_millis(5)).len(), 0); // no re-emit
        assert_eq!(b.advance(Instant::from_millis(10)).len(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds the communication cycle")]
    fn oversubscribed_static_segment_rejected() {
        let _ = FlexRayBus::new(Duration::from_micros(100), Duration::from_micros(60), 2);
    }

    #[test]
    fn error_display_is_meaningful() {
        assert!(FlexRayError::WrongFrame.to_string().contains("frame id"));
    }
}
