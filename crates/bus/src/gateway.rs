//! Domain gateway.
//!
//! The EASIS architecture validator includes "a gateway node, which
//! connects different vehicle domains of TCP/IP, CAN and FlexRay" (paper
//! §4.1). The gateway here is protocol-neutral store-and-forward routing at
//! frame granularity: a routing table maps ingress frame ids to egress
//! ports (optionally rewriting the id), with a fixed processing latency per
//! hop. The validator wires its ports to the CAN and FlexRay models.

use crate::frame::{Frame, FrameId};
use easis_sim::time::{Duration, Instant};
use std::collections::{BTreeMap, VecDeque};

/// A gateway egress port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u8);

/// A frame scheduled for egress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedFrame {
    /// When the gateway finishes processing (ready for egress submission).
    pub ready_at: Instant,
    /// The egress port.
    pub port: PortId,
    /// The (possibly id-rewritten) frame.
    pub frame: Frame,
}

#[derive(Debug, Clone, Copy)]
struct Route {
    port: PortId,
    rewrite: Option<FrameId>,
}

/// The gateway node.
///
/// # Examples
///
/// ```
/// use easis_bus::frame::{Frame, FrameId};
/// use easis_bus::gateway::{Gateway, PortId};
/// use easis_sim::time::{Duration, Instant};
///
/// let mut gw = Gateway::new(Duration::from_micros(200));
/// gw.add_route(FrameId(0x100), PortId(1), None);
/// gw.ingress(Frame::new(FrameId(0x100), vec![1]), Instant::ZERO);
/// let out = gw.take_ready(Instant::from_millis(1));
/// assert_eq!(out.len(), 1);
/// assert_eq!(out[0].port, PortId(1));
/// ```
#[derive(Debug, Clone)]
pub struct Gateway {
    latency: Duration,
    routes: BTreeMap<FrameId, Vec<Route>>,
    queue: VecDeque<RoutedFrame>,
    routed: u64,
    dropped: u64,
}

impl Gateway {
    /// Creates a gateway with the given per-hop processing latency.
    pub fn new(latency: Duration) -> Self {
        Gateway {
            latency,
            routes: BTreeMap::new(),
            queue: VecDeque::new(),
            routed: 0,
            dropped: 0,
        }
    }

    /// Adds a route: frames with `ingress_id` egress on `port`, optionally
    /// rewritten to `rewrite`. Multiple routes per id fan the frame out.
    pub fn add_route(&mut self, ingress_id: FrameId, port: PortId, rewrite: Option<FrameId>) {
        self.routes
            .entry(ingress_id)
            .or_default()
            .push(Route { port, rewrite });
    }

    /// Offers a received frame to the gateway at `now`. Unrouted frames are
    /// dropped (and counted).
    pub fn ingress(&mut self, frame: Frame, now: Instant) {
        match self.routes.get(&frame.id) {
            None => self.dropped += 1,
            Some(routes) => {
                for route in routes {
                    let mut out = frame.clone();
                    if let Some(id) = route.rewrite {
                        out = Frame::new(id, out.payload);
                    }
                    self.routed += 1;
                    self.queue.push_back(RoutedFrame {
                        ready_at: now + self.latency,
                        port: route.port,
                        frame: out,
                    });
                }
            }
        }
    }

    /// Drains the frames whose processing completed by `now`.
    pub fn take_ready(&mut self, now: Instant) -> Vec<RoutedFrame> {
        let mut out = Vec::new();
        while let Some(f) = self.queue.front() {
            if f.ready_at <= now {
                out.push(self.queue.pop_front().expect("front exists"));
            } else {
                break;
            }
        }
        out
    }

    /// Frames routed (counting fan-out copies).
    pub fn routed(&self) -> u64 {
        self.routed
    }

    /// Frames dropped for lack of a route.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> Instant {
        Instant::from_micros(us)
    }

    #[test]
    fn routes_with_latency() {
        let mut gw = Gateway::new(Duration::from_micros(200));
        gw.add_route(FrameId(0x10), PortId(0), None);
        gw.ingress(Frame::new(FrameId(0x10), vec![1]), t(100));
        assert!(gw.take_ready(t(250)).is_empty()); // still processing
        let out = gw.take_ready(t(300));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ready_at, t(300));
    }

    #[test]
    fn rewrite_changes_id_and_keeps_payload() {
        let mut gw = Gateway::new(Duration::ZERO);
        gw.add_route(FrameId(0x10), PortId(1), Some(FrameId(0x20)));
        gw.ingress(Frame::new(FrameId(0x10), vec![7, 8]), t(0));
        let out = gw.take_ready(t(0));
        assert_eq!(out[0].frame.id, FrameId(0x20));
        assert_eq!(out[0].frame.payload.as_ref(), &[7, 8]);
    }

    #[test]
    fn fan_out_to_multiple_ports() {
        let mut gw = Gateway::new(Duration::ZERO);
        gw.add_route(FrameId(0x10), PortId(0), None);
        gw.add_route(FrameId(0x10), PortId(1), Some(FrameId(0x99)));
        gw.ingress(Frame::new(FrameId(0x10), vec![1]), t(0));
        let out = gw.take_ready(t(0));
        assert_eq!(out.len(), 2);
        assert_eq!(gw.routed(), 2);
    }

    #[test]
    fn unrouted_frames_are_dropped_and_counted() {
        let mut gw = Gateway::new(Duration::ZERO);
        gw.ingress(Frame::new(FrameId(0x55), vec![]), t(0));
        assert!(gw.take_ready(t(100)).is_empty());
        assert_eq!(gw.dropped(), 1);
        assert_eq!(gw.routed(), 0);
    }

    #[test]
    fn pending_frames_wait_for_their_own_latency() {
        let mut gw = Gateway::new(Duration::from_micros(500));
        gw.add_route(FrameId(0x10), PortId(0), None);
        gw.ingress(Frame::new(FrameId(0x10), vec![]), t(0));
        gw.ingress(Frame::new(FrameId(0x10), vec![]), t(100));
        assert_eq!(gw.take_ready(t(500)).len(), 1);
        assert!(gw.take_ready(t(599)).is_empty());
        assert_eq!(gw.take_ready(t(600)).len(), 1);
    }
}
