//! §7 oscillation: "If switching too aggressively, the resulting protocol
//! starts oscillating. If we make our protocol less aggressive (by adding
//! a hysteresis), we ran into an unexpected hitch" — the flush cost
//! depending on the old protocol's latency, measured in
//! [`crate::experiments::overhead`].
//!
//! Here: a load that hovers around the crossover, swept over hysteresis
//! widths. Aggressive policies flap; hysteresis damps the flapping and
//! improves delivered latency.

use crate::measure::{latency_stats, SteadyStateWindow};
use crate::report::Table;
use crate::scenario::{self, oracle_at_p0, Scenario, SimNet};
use ps_core::{hybrid_total_order, SwitchConfig, SwitchVariant, ThresholdOracle};
use ps_simnet::{EthernetConfig, SharedBus, SimTime};
use ps_stack::IdGen;
use ps_trace::ProcessId;
use ps_workload::TrafficSpec;

/// Configuration of the oscillation experiment.
#[derive(Debug, Clone)]
pub struct OscillationConfig {
    /// Group size.
    pub group: u16,
    /// Oracle threshold (put it at the crossover).
    pub threshold: usize,
    /// Hysteresis widths to sweep.
    pub hysteresis: Vec<usize>,
    /// Load alternates between `threshold - 1` and `threshold + 1` active
    /// senders every `phase`.
    pub phase: SimTime,
    /// Number of load phases.
    pub phases: usize,
    /// Per-sender rate.
    pub rate: f64,
    /// Message body size.
    pub body_bytes: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for OscillationConfig {
    fn default() -> Self {
        Self {
            group: 10,
            threshold: 5,
            hysteresis: vec![0, 1, 2],
            phase: SimTime::from_millis(400),
            phases: 10,
            rate: 50.0,
            body_bytes: 1024,
            seed: 0x05C1,
        }
    }
}

impl OscillationConfig {
    /// Reduced sweep for tests.
    pub fn quick() -> Self {
        Self { hysteresis: vec![0, 2], phases: 6, ..Self::default() }
    }
}

/// Result for one hysteresis setting.
#[derive(Debug, Clone)]
pub struct OscillationPoint {
    /// Hysteresis width.
    pub hysteresis: usize,
    /// Completed switches over the run.
    pub switches: usize,
    /// Mean delivered latency over the whole run.
    pub mean_latency: SimTime,
}

/// Runs the sweep.
pub fn run(cfg: &OscillationConfig) -> Vec<OscillationPoint> {
    cfg.hysteresis
        .iter()
        .map(|&h| {
            let threshold = cfg.threshold;
            let factory = move |p: ProcessId, ids: &mut IdGen| {
                let oracle = oracle_at_p0(p, || Box::new(ThresholdOracle::new(threshold, h)));
                let sw_cfg = SwitchConfig {
                    variant: SwitchVariant::TokenRing { idle_hold: SimTime::from_millis(2) },
                    observe_interval: SimTime::from_millis(50),
                    observe_window: SimTime::from_millis(250),
                    ..SwitchConfig::default()
                };
                let (stack, handle) = hybrid_total_order(ids, sw_cfg, ProcessId(0), oracle);
                (stack, Some(handle))
            };
            // Alternating load phases straddling the threshold.
            let mut sends = Vec::new();
            let mut t = SimTime::from_millis(100);
            for phase in 0..cfg.phases {
                let k = if phase % 2 == 0 {
                    cfg.threshold as u16 - 1
                } else {
                    cfg.threshold as u16 + 1
                };
                let traffic = TrafficSpec {
                    group: cfg.group,
                    senders: k,
                    rate: cfg.rate,
                    body_bytes: cfg.body_bytes,
                    start: t,
                    end: t + cfg.phase,
                    seed: cfg.seed ^ (phase as u64) << 8,
                    ..TrafficSpec::default()
                };
                sends.extend(traffic.generate().into_sends());
                t += cfg.phase;
            }
            let medium = SimNet::over(Box::new(SharedBus::new(EthernetConfig::default())));
            let seed = cfg.seed ^ (h as u64) << 4;
            let out = scenario::run(Scenario {
                sends,
                ..Scenario::new(cfg.group, seed, t + SimTime::from_secs(2), medium, factory)
            });
            let switches = out.handles.iter().map(|h| h.switches_completed()).max().unwrap_or(0);
            let stats = latency_stats(
                &out.driver,
                SteadyStateWindow::between(SimTime::from_millis(100), t),
            );
            OscillationPoint { hysteresis: h, switches, mean_latency: stats.mean }
        })
        .collect()
}

/// Renders the sweep.
pub fn render(points: &[OscillationPoint]) -> Table {
    let mut t = Table::new(
        "§7 — oscillation vs. hysteresis (load hovering at the cross-over)",
        vec!["hysteresis", "switches", "mean latency (ms)"],
    );
    for p in points {
        t.row(vec![
            p.hysteresis.to_string(),
            p.switches.to_string(),
            format!("{:.2}", p.mean_latency.as_millis_f64()),
        ]);
    }
    t.note("aggressive (hysteresis 0) switching flaps with the load; wider bands damp it");
    t
}
