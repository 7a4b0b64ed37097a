//! The full hardware-in-the-loop assembly.
//!
//! Reproduces the paper's architecture-validator topology (§4.1): a sensor
//! node and an environment node publish on **CAN**; the **gateway node**
//! routes the frames into the **FlexRay** static segment feeding the
//! **central node** (AutoBox), which runs the ISS applications plus the
//! dependability services; the central node's commands travel back through
//! the gateway to the **actuator node**, which drives the vehicle plant.
//! Everything advances on one deterministic clock in 1 ms macro steps.

use crate::node::{CentralNode, NodeConfig};
use easis_apps::{safelane, safespeed};
use easis_bus::can::{CanBus, NodeId};
use easis_bus::flexray::{FlexRayBus, SlotId};
use easis_bus::frame::{FixedPointCodec, Frame};
use easis_bus::gateway::{Gateway, PortId};
use easis_injection::injector::Injector;
use easis_sim::series::SeriesSet;
use easis_sim::time::{Duration, Instant};
use easis_vehicle::driver::DriftEpisode;
use easis_vehicle::plant::{Plant, SafetyOverlay};

/// CAN identifiers of the sensor/environment/actuator traffic.
mod ids {
    use easis_bus::frame::FrameId;
    /// Sensor node → vehicle speed.
    pub const CAN_SPEED: FrameId = FrameId(0x100);
    /// Sensor node → lateral offset.
    pub const CAN_LATERAL: FrameId = FrameId(0x110);
    /// Environment node → commanded speed limit.
    pub const CAN_LIMIT: FrameId = FrameId(0x120);
    /// Central node → throttle ceiling (via gateway back to CAN).
    pub const CAN_CEILING: FrameId = FrameId(0x200);
    /// Central node → brake request.
    pub const CAN_BRAKE: FrameId = FrameId(0x201);
    /// FlexRay frame ids of the forwarded sensor values.
    pub const FR_SPEED: FrameId = FrameId(0x10);
    /// FlexRay lateral frame.
    pub const FR_LATERAL: FrameId = FrameId(0x11);
    /// FlexRay limit frame.
    pub const FR_LIMIT: FrameId = FrameId(0x12);
    /// FlexRay command frames (central node transmit slots).
    pub const FR_CEILING: FrameId = FrameId(0x20);
    /// FlexRay brake command frame.
    pub const FR_BRAKE: FrameId = FrameId(0x21);
}

const PORT_CAN: PortId = PortId(0);
const PORT_FLEXRAY: PortId = PortId(1);

/// Summary of a HIL run.
#[derive(Debug, Clone, Default)]
pub struct HilReport {
    /// Final vehicle speed \[m/s\].
    pub final_speed: f64,
    /// Commanded limit at the final position \[m/s\].
    pub final_limit: f64,
    /// Peak overspeed beyond the commanded limit \[m/s\].
    pub peak_overspeed: f64,
    /// Overspeed exposure: ∫ max(0, speed − limit) dt \[m/s·s\] — the
    /// sustained-violation metric (a brief crossing transient contributes
    /// little, sailing through the zone a lot).
    pub overspeed_exposure: f64,
    /// Whether the lane-departure warning fired at least once.
    pub ldw_warned: bool,
    /// Watchdog faults detected during the run.
    pub faults_detected: usize,
    /// CAN frames transmitted.
    pub can_frames: u64,
    /// FlexRay frames transmitted.
    pub flexray_frames: u64,
}

/// The assembled validator: plant + buses + gateway + central node.
pub struct HilValidator {
    /// The central node (AutoBox).
    pub central: CentralNode,
    /// The vehicle plant (driving-dynamics + environment nodes).
    pub plant: Plant,
    can: CanBus,
    flexray: FlexRayBus,
    gateway: Gateway,
    speed_codec: FixedPointCodec,
    lateral_codec: FixedPointCodec,
    pedal_codec: FixedPointCodec,
    overlay: SafetyOverlay,
    /// Fail-safe reaction: when the SafeSpeed application is marked faulty
    /// the actuator node applies a limp-home overlay instead of the (stale)
    /// commands — the containment half of the paper's fault treatment.
    failsafe: bool,
    failsafe_engaged: bool,
    ldw_warned: bool,
    peak_overspeed: f64,
    overspeed_exposure: f64,
    now: Instant,
}

impl std::fmt::Debug for HilValidator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HilValidator")
            .field("now", &self.now)
            .finish()
    }
}

impl HilValidator {
    /// Builds the motorway scenario: the driver wants `desired` m/s, the
    /// commanded limit drops to `limit_low` at 500 m, and (optionally) a
    /// distraction episode drifts the car out of its lane.
    pub fn motorway(desired: f64, limit_low: f64, drift: Option<DriftEpisode>, seed: u64) -> Self {
        let mut central = CentralNode::build(NodeConfig::default());
        central.start();
        let mut plant = Plant::motorway(desired, desired, limit_low, seed);
        if let Some(d) = drift {
            *plant.driver_mut() = easis_vehicle::driver::Driver::new(desired).with_drift(d);
        }

        let can = CanBus::new(500_000);
        let mut flexray = FlexRayBus::new(Duration::from_millis(5), Duration::from_micros(100), 8);
        for (slot, frame) in [
            (0, ids::FR_SPEED),
            (1, ids::FR_LATERAL),
            (2, ids::FR_LIMIT),
            (3, ids::FR_CEILING),
            (4, ids::FR_BRAKE),
        ] {
            flexray
                .assign_slot(SlotId(slot), frame)
                .expect("schedule fits");
        }
        let mut gateway = Gateway::new(Duration::from_micros(200));
        gateway.add_route(ids::CAN_SPEED, PORT_FLEXRAY, Some(ids::FR_SPEED));
        gateway.add_route(ids::CAN_LATERAL, PORT_FLEXRAY, Some(ids::FR_LATERAL));
        gateway.add_route(ids::CAN_LIMIT, PORT_FLEXRAY, Some(ids::FR_LIMIT));
        gateway.add_route(ids::FR_CEILING, PORT_CAN, Some(ids::CAN_CEILING));
        gateway.add_route(ids::FR_BRAKE, PORT_CAN, Some(ids::CAN_BRAKE));

        HilValidator {
            central,
            plant,
            can,
            flexray,
            gateway,
            speed_codec: FixedPointCodec::speed(),
            lateral_codec: FixedPointCodec::new(0.001, -10.0),
            pedal_codec: FixedPointCodec::new(0.0001, 0.0),
            overlay: SafetyOverlay::default(),
            failsafe: false,
            failsafe_engaged: false,
            ldw_warned: false,
            peak_overspeed: 0.0,
            overspeed_exposure: 0.0,
            now: Instant::ZERO,
        }
    }

    /// Enables the fail-safe actuator reaction: a faulty SafeSpeed verdict
    /// makes the actuator node ignore the (stale) commands and apply a
    /// limp-home overlay (closed throttle, gentle braking).
    pub fn with_failsafe(mut self) -> Self {
        self.failsafe = true;
        self
    }

    /// `true` once the fail-safe reaction has engaged at least once.
    pub fn failsafe_engaged(&self) -> bool {
        self.failsafe_engaged
    }

    /// Current peak overspeed beyond the commanded limit \[m/s\].
    pub fn peak_overspeed(&self) -> f64 {
        self.peak_overspeed
    }

    /// Advances the whole rig by one millisecond.
    fn step_1ms(&mut self, injector: &mut Injector) {
        let t = self.now + Duration::from_millis(1);
        // 1. Plant integrates under the current actuator overlay.
        self.plant.step(self.overlay, 0.001);

        // 2. Sensor & environment nodes publish on CAN at their periods.
        let t_ms = t.as_millis();
        if t_ms.is_multiple_of(10) {
            let speed = self.plant.measured_speed();
            let payload = self.speed_codec.encode(speed).to_vec();
            self.can
                .submit(NodeId(1), Frame::new(ids::CAN_SPEED, payload), t);
        }
        if t_ms.is_multiple_of(20) {
            let lat = self.plant.measured_lateral_offset();
            let payload = self.lateral_codec.encode(lat).to_vec();
            self.can
                .submit(NodeId(1), Frame::new(ids::CAN_LATERAL, payload), t);
        }
        if t_ms.is_multiple_of(50) {
            let limit = self.plant.current_limit();
            let payload = self.speed_codec.encode(limit).to_vec();
            self.can
                .submit(NodeId(2), Frame::new(ids::CAN_LIMIT, payload), t);
        }

        // 3. CAN deliveries: actuator node consumes commands, the gateway
        //    ingests domain-crossing frames.
        for delivery in self.can.poll(t) {
            match delivery.frame.id {
                ids::CAN_CEILING => {
                    if let Some(v) = self.pedal_codec.decode_at(&delivery.frame.payload, 0) {
                        self.overlay.throttle_ceiling = v;
                    }
                }
                ids::CAN_BRAKE => {
                    if let Some(v) = self.pedal_codec.decode_at(&delivery.frame.payload, 0) {
                        self.overlay.brake_request = v;
                    }
                }
                _ => self.gateway.ingress(delivery.frame, delivery.at),
            }
        }

        // 4. Gateway egress.
        for routed in self.gateway.take_ready(t) {
            match routed.port {
                PORT_FLEXRAY => {
                    let slot = match routed.frame.id {
                        ids::FR_SPEED => SlotId(0),
                        ids::FR_LATERAL => SlotId(1),
                        _ => SlotId(2),
                    };
                    let _ = self.flexray.submit(slot, routed.frame);
                }
                _ => self.can.submit(NodeId(9), routed.frame, routed.ready_at),
            }
        }

        // 5. FlexRay static slots: central node receives sensor values,
        //    the gateway picks up the command slots.
        for delivery in self.flexray.advance(t) {
            match delivery.frame.id {
                ids::FR_SPEED => self.write_central(safespeed::signals::SPEED_MEASURED, {
                    self.speed_codec.decode_at(&delivery.frame.payload, 0)
                }),
                ids::FR_LIMIT => self.write_central(safespeed::signals::SPEED_LIMIT, {
                    self.speed_codec.decode_at(&delivery.frame.payload, 0)
                }),
                ids::FR_LATERAL => self.write_central(safelane::signals::LATERAL_MEASURED, {
                    self.lateral_codec.decode_at(&delivery.frame.payload, 0)
                }),
                ids::FR_CEILING | ids::FR_BRAKE => {
                    self.gateway.ingress(delivery.frame, delivery.at)
                }
                _ => {}
            }
        }

        // 6. The central node computes (OS slice + injector tick).
        self.central.run_until(t, injector);

        // 7. Central transmit buffers: publish the command signals into the
        //    FlexRay command slots (state messages, re-sent every cycle).
        let ceiling = self.read_central(safespeed::signals::CMD_THROTTLE_CEILING);
        let brake = self.read_central(safespeed::signals::CMD_BRAKE_REQUEST);
        let _ = self.flexray.submit(
            SlotId(3),
            Frame::new(ids::FR_CEILING, self.pedal_codec.encode(ceiling).to_vec()),
        );
        let _ = self.flexray.submit(
            SlotId(4),
            Frame::new(ids::FR_BRAKE, self.pedal_codec.encode(brake).to_vec()),
        );

        // 8. Fail-safe reaction of the actuator node.
        if self.failsafe {
            let app = self.central.apps["SafeSpeed"];
            if self.central.world.watchdog.app_state(app).is_faulty() {
                self.failsafe_engaged = true;
                self.overlay = SafetyOverlay {
                    throttle_ceiling: 0.0,
                    brake_request: 0.25,
                };
            }
        }

        // 9. Run metrics.
        let over = self.plant.state().speed - self.plant.current_limit();
        if over > self.peak_overspeed {
            self.peak_overspeed = over;
        }
        self.overspeed_exposure += over.max(0.0) * 0.001;
        if self.read_central(safelane::signals::CMD_WARNING) != 0.0 {
            self.ldw_warned = true;
        }
        self.now = t;
    }

    fn write_central(&mut self, name: &str, value: Option<f64>) {
        if let Some(v) = value {
            let now = self.now;
            if let Some(id) = self.central.world.signals.id_of(name) {
                self.central.world.signals.write(id, v, now);
            }
        }
    }

    fn read_central(&self, name: &str) -> f64 {
        self.central
            .world
            .signals
            .id_of(name)
            .map(|id| self.central.world.signals.read(id))
            .unwrap_or(0.0)
    }

    /// Runs the rig for `duration`, optionally sampling a time series
    /// every 10 ms.
    pub fn run(
        &mut self,
        duration: Duration,
        injector: &mut Injector,
        mut series: Option<&mut SeriesSet>,
    ) -> HilReport {
        let steps = duration.as_millis();
        for i in 0..steps {
            self.step_1ms(injector);
            if i % 10 == 0 {
                if let Some(s) = series.as_deref_mut() {
                    s.push(self.now, "vehicle speed [m/s]", self.plant.state().speed);
                    s.push(self.now, "speed limit [m/s]", self.plant.current_limit());
                    s.push(
                        self.now,
                        "brake request",
                        self.read_central(safespeed::signals::CMD_BRAKE_REQUEST),
                    );
                    s.push(
                        self.now,
                        "lateral offset [m]",
                        self.plant.state().lateral_offset,
                    );
                }
            }
        }
        HilReport {
            final_speed: self.plant.state().speed,
            final_limit: self.plant.current_limit(),
            peak_overspeed: self.peak_overspeed,
            overspeed_exposure: self.overspeed_exposure,
            ldw_warned: self.ldw_warned,
            faults_detected: self.central.world.watchdog.log().faults().count(),
            can_frames: self.can.frames_sent(),
            flexray_frames: self.flexray.frames_sent(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Instant {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safespeed_limits_the_vehicle_over_the_buses() {
        let mut hil = HilValidator::motorway(25.0, 13.9, None, 7);
        let mut injector = Injector::none();
        let report = hil.run(Duration::from_secs(90), &mut injector, None);
        // The car passed the 500 m limit drop and was pulled down to it.
        assert!(hil.plant.state().position > 500.0);
        assert_eq!(report.final_limit, 13.9);
        assert!(
            (report.final_speed - 13.9).abs() < 1.5,
            "final speed {}",
            report.final_speed
        );
        // No spurious watchdog faults in the healthy closed loop.
        assert_eq!(report.faults_detected, 0);
        assert!(report.can_frames > 1000);
        assert!(report.flexray_frames > 1000);
    }

    #[test]
    fn drifting_driver_triggers_the_lane_warning() {
        let drift = DriftEpisode {
            from_s: 5.0,
            to_s: 9.0,
            steer: 0.02,
        };
        let mut hil = HilValidator::motorway(22.0, 27.8, Some(drift), 11);
        let mut injector = Injector::none();
        let report = hil.run(Duration::from_secs(12), &mut injector, None);
        assert!(report.ldw_warned, "lane departure warning expected");
    }

    #[test]
    fn injected_fault_is_detected_while_driving() {
        use easis_injection::injector::{ErrorClass, Injection};
        let mut hil = HilValidator::motorway(25.0, 13.9, None, 3);
        let target = hil.central.runnable("SAFE_CC_process");
        let mut injector = Injector::new([Injection::new(
            ErrorClass::HeartbeatLoss { runnable: target },
            Instant::from_millis(2_000),
            Instant::from_millis(4_000),
        )]);
        let report = hil.run(Duration::from_secs(6), &mut injector, None);
        assert!(report.faults_detected > 0);
    }
}
