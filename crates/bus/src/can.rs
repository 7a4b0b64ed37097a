//! CAN bus simulation.
//!
//! Classic CAN at frame granularity: pending frames arbitrate by identifier
//! (lower wins, non-destructive), the bus is busy for the frame's wire time
//! (worst-case bit-stuffed length at the configured bit rate), and every
//! delivery is broadcast. This reproduces the latency/jitter environment
//! the EASIS validator's CAN domain exposes to the applications.

use crate::frame::Frame;
use easis_sim::time::{Duration, Instant};
use std::collections::VecDeque;

/// Identifies the submitting node (for tx accounting; CAN itself is
/// broadcast and unaddressed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// A frame delivered on the bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Delivery (end-of-frame) time.
    pub at: Instant,
    /// Submitting node.
    pub from: NodeId,
    /// The frame.
    pub frame: Frame,
}

#[derive(Debug, Clone)]
struct PendingTx {
    from: NodeId,
    frame: Frame,
    submitted: Instant,
}

/// The CAN bus model.
///
/// # Examples
///
/// ```
/// use easis_bus::can::{CanBus, NodeId};
/// use easis_bus::frame::{Frame, FrameId};
/// use easis_sim::time::Instant;
///
/// let mut bus = CanBus::new(500_000); // 500 kbit/s
/// bus.submit(NodeId(0), Frame::new(FrameId(0x100), vec![1, 2]), Instant::ZERO);
/// let deliveries = bus.poll(Instant::from_millis(1));
/// assert_eq!(deliveries.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CanBus {
    bitrate: u64,
    pending: Vec<PendingTx>,
    busy_until: Instant,
    delivered: VecDeque<Delivery>,
    frames_sent: u64,
    bits_sent: u64,
}

impl CanBus {
    /// Creates a bus with the given bit rate (bits per second).
    ///
    /// # Panics
    ///
    /// Panics if `bitrate` is zero.
    pub fn new(bitrate: u64) -> Self {
        assert!(bitrate > 0, "bit rate must be positive");
        CanBus {
            bitrate,
            pending: Vec::new(),
            busy_until: Instant::ZERO,
            delivered: VecDeque::new(),
            frames_sent: 0,
            bits_sent: 0,
        }
    }

    /// Worst-case wire time of a frame: standard-format overhead (47 bits)
    /// plus data, with maximal bit stuffing on the stuffable region.
    pub fn frame_time(&self, frame: &Frame) -> Duration {
        let data_bits = 8 * frame.dlc() as u64;
        let stuffable = 34 + data_bits; // SOF..CRC field
        let stuffed = stuffable / 4; // worst case: one stuff bit per 4
        let total_bits = 47 + data_bits + stuffed;
        Duration::from_micros((total_bits * 1_000_000).div_ceil(self.bitrate))
    }

    /// Queues a frame for transmission at `now`.
    ///
    /// # Panics
    ///
    /// Panics if the frame is not classic-CAN compatible.
    pub fn submit(&mut self, from: NodeId, frame: Frame, now: Instant) {
        assert!(frame.is_can_compatible(), "frame not CAN compatible");
        self.pending.push(PendingTx {
            from,
            frame,
            submitted: now,
        });
    }

    /// Advances the bus to `now`, arbitrating and transmitting pending
    /// frames. Returns the frames whose transmission completed by `now`.
    pub fn poll(&mut self, now: Instant) -> Vec<Delivery> {
        loop {
            if self.pending.is_empty() {
                break;
            }
            // The bus starts the next arbitration when it goes idle; only
            // frames already submitted by then participate.
            let start = self.busy_until;
            let contenders: Vec<usize> = self
                .pending
                .iter()
                .enumerate()
                .filter(|(_, p)| p.submitted <= start)
                .map(|(i, _)| i)
                .collect();
            let winner_idx = if contenders.is_empty() {
                // Bus idle before anyone submitted: start at the earliest
                // submission instead.
                let earliest = self
                    .pending
                    .iter()
                    .map(|p| p.submitted)
                    .min()
                    .expect("pending non-empty");
                if earliest >= now {
                    break;
                }
                self.busy_until = earliest;
                continue;
            } else {
                contenders
                    .into_iter()
                    .min_by_key(|&i| (self.pending[i].frame.id, self.pending[i].submitted))
                    .expect("contenders non-empty")
            };
            let tx_time = self.frame_time(&self.pending[winner_idx].frame);
            let done_at = start + tx_time;
            if done_at > now {
                break; // transmission still in progress at `now`
            }
            let tx = self.pending.remove(winner_idx);
            self.busy_until = done_at;
            self.frames_sent += 1;
            self.bits_sent += tx_time.as_micros() * self.bitrate / 1_000_000;
            self.delivered.push_back(Delivery {
                at: done_at,
                from: tx.from,
                frame: tx.frame,
            });
        }
        let mut out = Vec::new();
        while let Some(d) = self.delivered.front() {
            if d.at <= now {
                out.push(self.delivered.pop_front().expect("front exists"));
            } else {
                break;
            }
        }
        out
    }

    /// Frames fully transmitted so far.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// Approximate bus load over `elapsed`.
    pub fn load(&self, elapsed: Duration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        let capacity = self.bitrate as f64 * elapsed.as_secs_f64();
        (self.bits_sent as f64 / capacity).min(1.0)
    }

    /// Number of frames waiting for the bus.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameId;

    fn t(us: u64) -> Instant {
        Instant::from_micros(us)
    }

    #[test]
    fn single_frame_is_delivered_after_wire_time() {
        let mut bus = CanBus::new(500_000);
        let frame = Frame::new(FrameId(0x100), vec![0; 8]);
        let wire = bus.frame_time(&frame);
        assert!(wire >= Duration::from_micros(200), "got {wire}"); // ~111+ bits
        bus.submit(NodeId(0), frame, t(0));
        assert!(bus.poll(t(10)).is_empty()); // still transmitting
        let out = bus.poll(t(1_000));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].at, Instant::ZERO + wire);
    }

    #[test]
    fn arbitration_prefers_lower_identifier() {
        let mut bus = CanBus::new(500_000);
        bus.submit(NodeId(0), Frame::new(FrameId(0x300), vec![0; 2]), t(0));
        bus.submit(NodeId(1), Frame::new(FrameId(0x100), vec![0; 2]), t(0));
        bus.submit(NodeId(2), Frame::new(FrameId(0x200), vec![0; 2]), t(0));
        let out = bus.poll(t(10_000));
        let order: Vec<u16> = out.iter().map(|d| d.frame.id.0).collect();
        assert_eq!(order, vec![0x100, 0x200, 0x300]);
        // Deliveries are back-to-back, strictly increasing in time.
        assert!(out.windows(2).all(|w| w[0].at < w[1].at));
    }

    #[test]
    fn late_high_priority_frame_waits_for_bus_idle() {
        let mut bus = CanBus::new(500_000);
        let low = Frame::new(FrameId(0x400), vec![0; 8]);
        let low_time = bus.frame_time(&low);
        bus.submit(NodeId(0), low, t(0));
        // High-priority frame arrives mid-transmission: CAN is
        // non-preemptive, so it transmits second.
        bus.submit(NodeId(1), Frame::new(FrameId(0x001), vec![0; 1]), t(50));
        let out = bus.poll(t(10_000));
        assert_eq!(out[0].frame.id, FrameId(0x400));
        assert_eq!(out[1].frame.id, FrameId(0x001));
        assert_eq!(out[0].at, Instant::ZERO + low_time);
    }

    #[test]
    fn poll_is_incremental() {
        let mut bus = CanBus::new(500_000);
        bus.submit(NodeId(0), Frame::new(FrameId(0x100), vec![0; 1]), t(0));
        bus.submit(NodeId(0), Frame::new(FrameId(0x101), vec![0; 1]), t(0));
        let first = bus.poll(t(150));
        assert_eq!(first.len(), 1);
        let second = bus.poll(t(400));
        assert_eq!(second.len(), 1);
        assert!(bus.poll(t(500)).is_empty());
        assert_eq!(bus.frames_sent(), 2);
    }

    #[test]
    fn load_reflects_traffic() {
        let mut bus = CanBus::new(500_000);
        for i in 0..10 {
            bus.submit(
                NodeId(0),
                Frame::new(FrameId(0x100), vec![0; 8]),
                t(i * 300),
            );
        }
        let _ = bus.poll(t(10_000));
        let load = bus.load(Duration::from_millis(10));
        assert!(load > 0.1 && load < 0.5, "load {load}");
    }

    #[test]
    fn idle_bus_starts_at_submission_time() {
        let mut bus = CanBus::new(500_000);
        let frame = Frame::new(FrameId(0x100), vec![0; 1]);
        let wire = bus.frame_time(&frame);
        bus.submit(NodeId(0), frame, t(5_000));
        let out = bus.poll(t(20_000));
        assert_eq!(out[0].at, t(5_000) + wire);
    }

    #[test]
    #[should_panic(expected = "CAN compatible")]
    fn incompatible_frame_rejected() {
        let mut bus = CanBus::new(500_000);
        bus.submit(NodeId(0), Frame::new(FrameId(0x900), vec![0; 1]), t(0));
    }
}
