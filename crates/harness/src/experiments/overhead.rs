//! §7 switching overhead: "the overhead of switching near the cross-over
//! point is about 31 msecs. Processes are never blocked from sending
//! during switching, so the perceived hiccup is often less than that."
//!
//! We trigger one controlled switch in each direction at several load
//! levels and report: (a) the switch duration — PREPARE seen to buffer
//! released, maximised over members; and (b) the application-perceived
//! hiccup — the largest delivery gap at a non-initiator during the switch
//! window, compared against the steady-state gap. The paper's observation
//! that overhead tracks the latency of the protocol being switched *away
//! from* shows up as token→sequencer switches costing more than
//! sequencer→token at low load, and the reverse under congestion.

use crate::measure::max_delivery_gap;
use crate::report::Table;
use crate::scenario::{self, oracle_at_p0, Scenario, SimNet};
use ps_core::{hybrid_total_order, ManualOracle, SwitchConfig, SwitchVariant};
use ps_simnet::{EthernetConfig, SharedBus, SimTime};
use ps_stack::IdGen;
use ps_trace::ProcessId;
use ps_workload::TrafficSpec;

/// Configuration of the overhead experiment.
#[derive(Debug, Clone)]
pub struct OverheadConfig {
    /// Group size.
    pub group: u16,
    /// Active-sender counts to probe (defaults bracket the crossover).
    pub senders: Vec<u16>,
    /// Per-sender rate.
    pub rate: f64,
    /// Message body size.
    pub body_bytes: usize,
    /// When the forward (0→1) switch fires.
    pub switch_at: SimTime,
    /// When the reverse (1→0) switch fires.
    pub switch_back_at: SimTime,
    /// Workload end.
    pub end: SimTime,
    /// Seed.
    pub seed: u64,
}

impl Default for OverheadConfig {
    fn default() -> Self {
        Self {
            group: 10,
            senders: vec![2, 4, 5, 6],
            rate: 50.0,
            body_bytes: 2048,
            switch_at: SimTime::from_secs(1),
            switch_back_at: SimTime::from_secs(2),
            end: SimTime::from_secs(3),
            seed: 0x0E4D,
        }
    }
}

impl OverheadConfig {
    /// Reduced probe for tests.
    pub fn quick() -> Self {
        Self { senders: vec![2, 5], ..Self::default() }
    }
}

/// Measurements for one switch at one load level.
#[derive(Debug, Clone)]
pub struct SwitchCost {
    /// Active senders during the switch.
    pub senders: u16,
    /// Direction: `(from, to)` protocol indices.
    pub direction: (usize, usize),
    /// Duration at the initiator.
    pub initiator_duration: SimTime,
    /// Worst duration across members.
    pub max_duration: SimTime,
    /// Largest delivery gap at a probe member during the switch window.
    pub hiccup: SimTime,
    /// Largest delivery gap at the same member in steady state.
    pub steady_gap: SimTime,
}

/// Full result: one row per (load, direction).
#[derive(Debug, Clone)]
pub struct OverheadResult {
    /// All measured switches.
    pub costs: Vec<SwitchCost>,
}

/// Runs the experiment.
pub fn run(cfg: &OverheadConfig) -> OverheadResult {
    let mut costs = Vec::new();
    for &k in &cfg.senders {
        let plan = vec![(cfg.switch_at, 1), (cfg.switch_back_at, 0)];
        let traffic = TrafficSpec {
            group: cfg.group,
            senders: k,
            rate: cfg.rate,
            body_bytes: cfg.body_bytes,
            end: cfg.end,
            seed: cfg.seed ^ u64::from(k),
            ..TrafficSpec::default()
        };
        let factory = move |p: ProcessId, ids: &mut IdGen| {
            let oracle = oracle_at_p0(p, || Box::new(ManualOracle::new(plan.clone())));
            let sw_cfg = SwitchConfig {
                variant: SwitchVariant::TokenRing { idle_hold: SimTime::from_millis(2) },
                observe_interval: SimTime::from_millis(20),
                ..SwitchConfig::default()
            };
            let (stack, handle) = hybrid_total_order(ids, sw_cfg, ProcessId(0), oracle);
            (stack, Some(handle))
        };
        let medium = SimNet::over(Box::new(SharedBus::new(EthernetConfig::default())));
        let horizon = cfg.end + SimTime::from_secs(2);
        let seed = cfg.seed ^ (u64::from(k) << 10);
        let out = scenario::run(Scenario {
            sends: traffic.generate().into_sends().collect(),
            ..Scenario::new(cfg.group, seed, horizon, medium, factory)
        });
        let (sim, handles) = (&out.driver, &out.handles);

        let probe = ProcessId(cfg.group - 1);
        // Steady-state gap, measured well before the first switch.
        let steady_gap = max_delivery_gap(
            sim,
            probe,
            SimTime::from_millis(300),
            cfg.switch_at.saturating_sub(SimTime::from_millis(100)),
        );
        for (i, &(from, to)) in [(0usize, 1usize), (1, 0)].iter().enumerate() {
            let recs: Vec<_> =
                handles.iter().filter_map(|h| h.snapshot().records.get(i).cloned()).collect();
            if recs.len() < usize::from(cfg.group) {
                continue; // switch did not complete everywhere
            }
            let initiator_duration = recs[0].duration();
            let max_duration = recs.iter().map(|r| r.duration()).max().unwrap();
            let start = recs.iter().map(|r| r.started_at).min().unwrap();
            let finish = recs.iter().map(|r| r.completed_at).max().unwrap();
            let hiccup = max_delivery_gap(
                sim,
                probe,
                start.saturating_sub(SimTime::from_millis(50)),
                finish + SimTime::from_millis(50),
            );
            costs.push(SwitchCost {
                senders: k,
                direction: (from, to),
                initiator_duration,
                max_duration,
                hiccup,
                steady_gap,
            });
        }
    }
    OverheadResult { costs }
}

/// Renders the result table.
pub fn render(result: &OverheadResult) -> Table {
    let mut t = Table::new(
        "§7 — switching overhead vs. load (paper: ~31 ms near the cross-over)",
        vec![
            "senders",
            "direction",
            "initiator (ms)",
            "worst member (ms)",
            "hiccup (ms)",
            "steady gap (ms)",
        ],
    );
    for c in &result.costs {
        let dir = match c.direction {
            (0, 1) => "seq → token",
            (1, 0) => "token → seq",
            _ => "?",
        };
        t.row(vec![
            c.senders.to_string(),
            dir.into(),
            format!("{:.1}", c.initiator_duration.as_millis_f64()),
            format!("{:.1}", c.max_duration.as_millis_f64()),
            format!("{:.1}", c.hiccup.as_millis_f64()),
            format!("{:.1}", c.steady_gap.as_millis_f64()),
        ]);
    }
    t.note("duration = PREPARE seen → old protocol drained & buffer released, per member");
    t.note("hiccup = worst delivery gap at a plain member during the switch; sends never block");
    t
}
