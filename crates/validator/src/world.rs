//! The central node's world.
//!
//! [`CentralWorld`] is the shared state of the validator's central node
//! (the AutoBox in the paper): the signal database and manipulation
//! controls of the runnable layer, plus the L3 dependability services —
//! Software Watchdog, Fault Management Framework — and the L1 hardware
//! watchdog. Heartbeat glue calls route straight into the watchdog
//! service, exactly the first interface of paper §4.4. The watchdog
//! service also keeps the node's one detection log
//! ([`SoftwareWatchdog::log`]).

use easis_baselines::hw_watchdog::HardwareWatchdog;
use easis_fmf::framework::FaultManagementFramework;
use easis_fmf::policy::TreatmentAction;
use easis_obs::ObsSink;
use easis_rte::control::RunnableControls;
use easis_rte::mapping::ApplicationId;
use easis_rte::runnable::RunnableId;
use easis_rte::signal::SignalDb;
use easis_rte::world::EcuWorld;
use easis_sim::time::{Duration, Instant};
use easis_watchdog::SoftwareWatchdog;
use std::collections::BTreeMap;

/// Shared state of the central node.
#[derive(Debug)]
pub struct CentralWorld {
    /// Signal database (inter-runnable communication).
    pub signals: SignalDb,
    /// ControlDesk-style manipulation controls (error injection surface).
    pub controls: RunnableControls,
    /// The Software Watchdog dependability service (L3), keeper of the
    /// node's detection log.
    pub watchdog: SoftwareWatchdog,
    /// The Fault Management Framework (L3).
    pub fmf: FaultManagementFramework,
    /// The ECU hardware watchdog (L1 baseline).
    pub hw_watchdog: HardwareWatchdog,
    /// Raw alarm ids of each application's activation alarm (used by the
    /// terminate treatment to stop the activation source).
    pub app_alarms: BTreeMap<ApplicationId, u32>,
    /// Internal-signal prefix of each application (restart treatment
    /// resets those signals to their initial values).
    pub app_signal_prefixes: BTreeMap<ApplicationId, &'static str>,
    /// Snapshot of every signal's initial value, taken at node start.
    pub initial_signals: Vec<f64>,
    /// Every treatment the node executed, in order. The FMF counts the
    /// ECU software resets among them
    /// ([`FaultManagementFramework::ecu_resets`]).
    pub treatments: Vec<TreatmentAction>,
    /// Receive mailbox of the node's communication controller: the bus
    /// integration pushes `(raw frame id, payload)` here and raises the RX
    /// interrupt; the ISR handler drains it into the signal database.
    pub rx_mailbox: Vec<(u16, Vec<u8>)>,
    /// The node's observability sink: one handle shared by the watchdog,
    /// the FMF and (via [`crate::node::CentralNode::run_until`]) the
    /// injector. Disabled by default — recording is then a no-op.
    pub obs: ObsSink,
}

impl CentralWorld {
    /// Resets every signal whose name starts with `prefix` back to its
    /// initial value — the state-restoration half of an application
    /// restart (a freshly loaded component starts from initialised RAM).
    pub fn reset_signals_with_prefix(&mut self, prefix: &str, now: Instant) {
        let targets: Vec<(easis_rte::signal::SignalId, f64)> = self
            .signals
            .iter()
            .filter(|(id, name, _)| {
                name.starts_with(prefix) && id.index() < self.initial_signals.len()
            })
            .map(|(id, _, _)| (id, self.initial_signals[id.index()]))
            .collect();
        for (id, initial) in targets {
            self.signals.write(id, initial, now);
        }
    }

    /// Assembles the world around a configured watchdog service.
    pub fn new(
        signals: SignalDb,
        watchdog: SoftwareWatchdog,
        fmf: FaultManagementFramework,
        hw_timeout: Duration,
    ) -> Self {
        CentralWorld {
            signals,
            controls: RunnableControls::new(),
            watchdog,
            fmf,
            hw_watchdog: HardwareWatchdog::new(hw_timeout),
            app_alarms: BTreeMap::new(),
            app_signal_prefixes: BTreeMap::new(),
            initial_signals: Vec::new(),
            treatments: Vec::new(),
            rx_mailbox: Vec::new(),
            obs: ObsSink::disabled(),
        }
    }
}

impl EcuWorld for CentralWorld {
    fn signals(&self) -> &SignalDb {
        &self.signals
    }
    fn signals_mut(&mut self) -> &mut SignalDb {
        &mut self.signals
    }
    fn controls(&self) -> &RunnableControls {
        &self.controls
    }
    fn indicate_heartbeat(&mut self, runnable: RunnableId, now: Instant) {
        self.watchdog.heartbeat(runnable, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easis_sim::time::Duration;
    use easis_watchdog::config::{RunnableHypothesis, WatchdogConfig};

    #[test]
    fn heartbeats_route_into_the_watchdog() {
        let config = WatchdogConfig::builder(Duration::from_millis(10))
            .monitor(RunnableHypothesis::new(RunnableId(0)).alive_at_least(1, 1))
            .build();
        let mut world = CentralWorld::new(
            SignalDb::new(),
            SoftwareWatchdog::new(config),
            FaultManagementFramework::default(),
            Duration::from_millis(50),
        );
        world.indicate_heartbeat(RunnableId(0), Instant::from_millis(5));
        assert_eq!(world.watchdog.counters(RunnableId(0)).unwrap().ac, 1);
    }
}
