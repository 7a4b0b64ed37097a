//! Distributed two-ECU validator.
//!
//! The paper's conclusions position the Software Watchdog for "distributed
//! in-vehicle embedded systems"; the architecture validator spreads the
//! ISS applications over several nodes and domains (§4.1). This assembly
//! does the same: a **speed node** (SafeSpeed + steer-by-wire, FlexRay
//! domain) and a **lane node** (SafeLane, CAN domain), each a full EASIS
//! stack with its own OSEK OS, Software Watchdog and Fault Management
//! Framework. Frame reception is interrupt-driven: the bus integration
//! fills each node's RX mailbox and raises a category-2 ISR that drains it
//! into the node's signal database.

use crate::node::{CentralNode, NodeConfig};
use crate::world::CentralWorld;
use easis_apps::{safelane, safespeed};
use easis_bus::can::{CanBus, NodeId};
use easis_bus::e2e::{E2eReceiver, E2eSender};
use easis_bus::flexray::{FlexRayBus, SlotId};
use easis_bus::frame::{FixedPointCodec, Frame, FrameId};
use easis_bus::gateway::{Gateway, PortId};
use easis_injection::injector::Injector;
use easis_osek::isr::IsrId;
use easis_sim::time::{Duration, Instant};
use easis_vehicle::plant::{Plant, SafetyOverlay};

const CAN_SPEED: FrameId = FrameId(0x100);
const CAN_LATERAL: FrameId = FrameId(0x110);
const CAN_LIMIT: FrameId = FrameId(0x120);
const CAN_CEILING: FrameId = FrameId(0x200);
const CAN_BRAKE: FrameId = FrameId(0x201);
const CAN_WARNING: FrameId = FrameId(0x210);
const FR_SPEED: FrameId = FrameId(0x10);
const FR_LIMIT: FrameId = FrameId(0x12);
const FR_CEILING: FrameId = FrameId(0x20);
const FR_BRAKE: FrameId = FrameId(0x21);
const PORT_CAN: PortId = PortId(0);
const PORT_FLEXRAY: PortId = PortId(1);

/// Summary of a distributed run.
#[derive(Debug, Clone, Default)]
pub struct DistributedReport {
    /// Final vehicle speed \[m/s\].
    pub final_speed: f64,
    /// Lane warning observed on the CAN domain.
    pub ldw_warned_on_bus: bool,
    /// Faults detected by the speed node's watchdog.
    pub speed_node_faults: usize,
    /// Faults detected by the lane node's watchdog.
    pub lane_node_faults: usize,
    /// RX interrupts taken by the speed node.
    pub speed_node_rx_irqs: u64,
    /// RX interrupts taken by the lane node.
    pub lane_node_rx_irqs: u64,
    /// End-to-end protection faults on the speed-signal path (lost,
    /// repeated or corrupted frames).
    pub e2e_faults: u64,
}

/// The two-ECU assembly.
pub struct DistributedValidator {
    /// SafeSpeed + steer-by-wire node (FlexRay domain).
    pub speed_node: CentralNode,
    /// SafeLane node (CAN domain).
    pub lane_node: CentralNode,
    speed_rx_isr: IsrId,
    lane_rx_isr: IsrId,
    plant: Plant,
    can: CanBus,
    flexray: FlexRayBus,
    gateway: Gateway,
    speed_codec: FixedPointCodec,
    lateral_codec: FixedPointCodec,
    pedal_codec: FixedPointCodec,
    /// E2E protection of the speed-signal path: the sensor node protects,
    /// the speed node's COM stack checks before the RX interrupt fires.
    e2e_tx: E2eSender,
    e2e_rx: E2eReceiver,
    /// Fault injection: number of upcoming speed frames to drop on the
    /// wire (models transient bus loss; E2E detects the gap).
    drop_speed_frames: u32,
    overlay: SafetyOverlay,
    ldw_on_bus: bool,
    speed_rx_irqs: u64,
    lane_rx_irqs: u64,
    now: Instant,
}

impl std::fmt::Debug for DistributedValidator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistributedValidator")
            .field("now", &self.now)
            .finish()
    }
}

/// Registers the RX ISR on a node: drains the world's mailbox into the
/// named signals using the given codecs.
fn add_rx_isr(
    node: &mut CentralNode,
    routes: Vec<(u16, &'static str, FixedPointCodec)>,
) -> IsrId {
    node.os.add_isr(
        "ComRxIsr",
        Duration::from_micros(15),
        move |w: &mut CentralWorld, ctx| {
            let now = ctx.now();
            let mailbox = std::mem::take(&mut w.rx_mailbox);
            for (raw_id, payload) in mailbox {
                for (id, signal, codec) in &routes {
                    if raw_id == *id {
                        if let Some(v) = codec.decode_at(&payload, 0) {
                            if let Some(sid) = w.signals.id_of(signal) {
                                w.signals.write(sid, v, now);
                            }
                        }
                    }
                }
            }
        },
    )
}

impl DistributedValidator {
    /// Builds the two-node motorway scenario.
    pub fn motorway(desired: f64, limit_low: f64, seed: u64) -> Self {
        let speed_codec = FixedPointCodec::speed();
        let lateral_codec = FixedPointCodec::new(0.001, -10.0);
        let pedal_codec = FixedPointCodec::new(0.0001, 0.0);

        let mut speed_node = CentralNode::build(NodeConfig {
            safelane: false,
            ..NodeConfig::default()
        });
        let speed_rx_isr = add_rx_isr(
            &mut speed_node,
            vec![
                (FR_SPEED.0, safespeed::signals::SPEED_MEASURED, speed_codec),
                (FR_LIMIT.0, safespeed::signals::SPEED_LIMIT, speed_codec),
            ],
        );
        speed_node.start();

        let mut lane_node = CentralNode::build(NodeConfig {
            safespeed: false,
            steer: false,
            light: true, // the body-domain light-control node shares the CAN ECU
            ..NodeConfig::default()
        });
        let lane_rx_isr = add_rx_isr(
            &mut lane_node,
            vec![(
                CAN_LATERAL.0,
                safelane::signals::LATERAL_MEASURED,
                lateral_codec,
            )],
        );
        lane_node.start();

        let mut flexray =
            FlexRayBus::new(Duration::from_millis(5), Duration::from_micros(100), 8);
        for (slot, frame) in [(0, FR_SPEED), (2, FR_LIMIT), (3, FR_CEILING), (4, FR_BRAKE)] {
            flexray.assign_slot(SlotId(slot), frame).expect("schedule fits");
        }
        let mut gateway = Gateway::new(Duration::from_micros(200));
        gateway.add_route(CAN_SPEED, PORT_FLEXRAY, Some(FR_SPEED));
        gateway.add_route(CAN_LIMIT, PORT_FLEXRAY, Some(FR_LIMIT));
        gateway.add_route(FR_CEILING, PORT_CAN, Some(CAN_CEILING));
        gateway.add_route(FR_BRAKE, PORT_CAN, Some(CAN_BRAKE));

        DistributedValidator {
            speed_node,
            lane_node,
            speed_rx_isr,
            lane_rx_isr,
            plant: Plant::motorway(desired, desired, limit_low, seed),
            can: CanBus::new(500_000),
            flexray,
            gateway,
            speed_codec,
            lateral_codec,
            pedal_codec,
            e2e_tx: E2eSender::new(),
            // FlexRay retransmits the 10 ms sensor value in two 5 ms cycles.
            e2e_rx: E2eReceiver::new().with_repeat_tolerance(1),
            drop_speed_frames: 0,
            overlay: SafetyOverlay::default(),
            ldw_on_bus: false,
            speed_rx_irqs: 0,
            lane_rx_irqs: 0,
            now: Instant::ZERO,
        }
    }

    fn step_1ms(&mut self, speed_injector: &mut Injector, lane_injector: &mut Injector) {
        let t = self.now + Duration::from_millis(1);
        self.plant.step(self.overlay, 0.001);

        // Sensor & environment nodes publish on CAN.
        let t_ms = t.as_millis();
        if t_ms.is_multiple_of(10) {
            let v = self.plant.measured_speed();
            let protected = self.e2e_tx.protect(&self.speed_codec.encode(v));
            if self.drop_speed_frames > 0 {
                // Injected bus loss: the frame never reaches the wire, but
                // the sender's alive counter has advanced — exactly what a
                // receiver-side E2E check is built to notice.
                self.drop_speed_frames -= 1;
            } else {
                self.can.submit(NodeId(1), Frame::new(CAN_SPEED, protected), t);
            }
        }
        if t_ms.is_multiple_of(20) {
            let v = self.plant.measured_lateral_offset();
            self.can.submit(
                NodeId(1),
                Frame::new(CAN_LATERAL, self.lateral_codec.encode(v).to_vec()),
                t,
            );
        }
        if t_ms.is_multiple_of(50) {
            let v = self.plant.current_limit();
            self.can
                .submit(NodeId(2), Frame::new(CAN_LIMIT, self.speed_codec.encode(v).to_vec()), t);
        }

        // CAN domain: the lane node and the actuator node listen here.
        for delivery in self.can.poll(t) {
            match delivery.frame.id {
                CAN_LATERAL => {
                    self.lane_node
                        .world
                        .rx_mailbox
                        .push((delivery.frame.id.0, delivery.frame.payload.to_vec()));
                    if self
                        .lane_node
                        .os
                        .trigger_isr(self.lane_rx_isr, &mut self.lane_node.world)
                        .is_ok()
                    {
                        self.lane_rx_irqs += 1;
                    }
                }
                CAN_CEILING => {
                    if let Some(v) = self.pedal_codec.decode_at(&delivery.frame.payload, 0) {
                        self.overlay.throttle_ceiling = v;
                    }
                }
                CAN_BRAKE => {
                    if let Some(v) = self.pedal_codec.decode_at(&delivery.frame.payload, 0) {
                        self.overlay.brake_request = v;
                    }
                }
                CAN_WARNING => {
                    if delivery.frame.payload.first() == Some(&1) {
                        self.ldw_on_bus = true;
                    }
                }
                _ => self.gateway.ingress(delivery.frame, delivery.at),
            }
        }

        // Gateway egress to both domains.
        for routed in self.gateway.take_ready(t) {
            match routed.port {
                PORT_FLEXRAY => {
                    let slot = if routed.frame.id == FR_SPEED { SlotId(0) } else { SlotId(2) };
                    let _ = self.flexray.submit(slot, routed.frame);
                }
                _ => self.can.submit(NodeId(9), routed.frame, routed.ready_at),
            }
        }

        // FlexRay domain: the speed node listens; command slots loop back
        // through the gateway.
        for delivery in self.flexray.advance(t) {
            match delivery.frame.id {
                FR_SPEED | FR_LIMIT => {
                    // The speed path is E2E-protected end to end; unwrap
                    // (and classify) before handing it to the ISR.
                    let payload = if delivery.frame.id == FR_SPEED {
                        let (_, data) = self.e2e_rx.check(&delivery.frame.payload);
                        match data {
                            Some(d) => d.to_vec(),
                            None => continue, // untrustworthy: keep last good value
                        }
                    } else {
                        delivery.frame.payload.to_vec()
                    };
                    self.speed_node
                        .world
                        .rx_mailbox
                        .push((delivery.frame.id.0, payload));
                    if self
                        .speed_node
                        .os
                        .trigger_isr(self.speed_rx_isr, &mut self.speed_node.world)
                        .is_ok()
                    {
                        self.speed_rx_irqs += 1;
                    }
                }
                FR_CEILING | FR_BRAKE => self.gateway.ingress(delivery.frame, delivery.at),
                _ => {}
            }
        }

        // Both ECUs compute.
        self.speed_node.run_until(t, speed_injector);
        self.lane_node.run_until(t, lane_injector);

        // Speed node transmit buffers (FlexRay command slots).
        let ceiling = read(&self.speed_node, safespeed::signals::CMD_THROTTLE_CEILING);
        let brake = read(&self.speed_node, safespeed::signals::CMD_BRAKE_REQUEST);
        let _ = self.flexray.submit(
            SlotId(3),
            Frame::new(FR_CEILING, self.pedal_codec.encode(ceiling).to_vec()),
        );
        let _ = self.flexray.submit(
            SlotId(4),
            Frame::new(FR_BRAKE, self.pedal_codec.encode(brake).to_vec()),
        );
        // Lane node transmits its warning on CAN every 20 ms.
        if t_ms % 20 == 5 {
            let warning = read(&self.lane_node, safelane::signals::CMD_WARNING) != 0.0;
            self.can.submit(
                NodeId(3),
                Frame::new(CAN_WARNING, vec![u8::from(warning)]),
                t,
            );
        }
        self.now = t;
    }

    /// Runs for `duration` with per-node injectors.
    pub fn run(
        &mut self,
        duration: Duration,
        speed_injector: &mut Injector,
        lane_injector: &mut Injector,
    ) -> DistributedReport {
        for _ in 0..duration.as_millis() {
            self.step_1ms(speed_injector, lane_injector);
        }
        DistributedReport {
            final_speed: self.plant.state().speed,
            ldw_warned_on_bus: self.ldw_on_bus,
            speed_node_faults: self.speed_node.world.watchdog.log().faults().count(),
            lane_node_faults: self.lane_node.world.watchdog.log().faults().count(),
            speed_node_rx_irqs: self.speed_rx_irqs,
            lane_node_rx_irqs: self.lane_rx_irqs,
            e2e_faults: self.e2e_rx.faults(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Instant {
        self.now
    }
}

fn read(node: &CentralNode, name: &str) -> f64 {
    node.world
        .signals
        .id_of(name)
        .map(|id| node.world.signals.read(id))
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use easis_injection::injector::{ErrorClass, Injection};
    use easis_vehicle::driver::{DriftEpisode, Driver};

    #[test]
    fn distributed_loop_limits_speed_and_routes_the_warning() {
        let mut rig = DistributedValidator::motorway(25.0, 13.9, 21);
        *rig.plant.driver_mut() = Driver::new(25.0).with_drift(DriftEpisode {
            from_s: 10.0,
            to_s: 14.0,
            steer: 0.02,
        });
        let mut none_a = Injector::none();
        let mut none_b = Injector::none();
        let report = rig.run(Duration::from_secs(60), &mut none_a, &mut none_b);
        assert!(
            (report.final_speed - 13.9).abs() < 2.0,
            "final speed {}",
            report.final_speed
        );
        assert!(report.ldw_warned_on_bus, "warning must cross the CAN domain");
        assert_eq!(report.speed_node_faults, 0);
        assert_eq!(report.lane_node_faults, 0);
        assert!(report.speed_node_rx_irqs > 1_000);
        assert!(report.lane_node_rx_irqs > 1_000);
    }

    #[test]
    fn fault_on_lane_node_is_contained_to_that_ecu() {
        let mut rig = DistributedValidator::motorway(20.0, 27.8, 22);
        let target = rig.lane_node.runnable("LDW_process");
        let mut lane_injector = Injector::new([Injection::new(
            ErrorClass::HeartbeatLoss { runnable: target },
            Instant::from_millis(2_000),
            Instant::from_millis(2_500),
        )]);
        let mut speed_injector = Injector::none();
        let report = rig.run(Duration::from_secs(5), &mut speed_injector, &mut lane_injector);
        assert!(report.lane_node_faults > 0, "lane node must detect");
        assert_eq!(report.speed_node_faults, 0, "speed node must stay clean");
        // The speed node's control loop kept working throughout.
        assert!((report.final_speed - 20.0).abs() < 2.0);
    }
}

#[cfg(test)]
mod e2e_tests {
    use super::*;

    #[test]
    fn healthy_speed_path_has_no_e2e_faults() {
        let mut rig = DistributedValidator::motorway(20.0, 27.8, 31);
        let mut a = Injector::none();
        let mut b = Injector::none();
        let report = rig.run(Duration::from_secs(3), &mut a, &mut b);
        assert_eq!(report.e2e_faults, 0);
        assert_eq!(report.speed_node_faults, 0);
    }

    #[test]
    fn dropped_frames_are_flagged_by_e2e_not_by_the_watchdog() {
        let mut rig = DistributedValidator::motorway(20.0, 27.8, 32);
        let mut a = Injector::none();
        let mut b = Injector::none();
        rig.run(Duration::from_secs(1), &mut a, &mut b);
        // Bus loss: the next five speed frames are dropped on the wire.
        rig.drop_speed_frames = 5;
        let report = rig.run(Duration::from_secs(2), &mut a, &mut b);
        // The gap shows up as a wrong-sequence E2E fault…
        assert!(report.e2e_faults >= 1, "e2e faults {}", report.e2e_faults);
        // …while execution supervision (rightly) stays quiet: the
        // runnables kept running on the last good value.
        assert_eq!(report.speed_node_faults, 0);
    }
}
