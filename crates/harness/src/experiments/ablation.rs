//! Ablation: the switching-protocol variant (§2's design choice).
//!
//! "In order to avoid congestion on the network, our implementation of SP
//! does not actually do network-level broadcasts, but rotates a token
//! message in a logical ring." This experiment quantifies that trade-off:
//! per switch, the broadcast variant costs O(n) control messages in ~2
//! round trips, while the token needs 3 full ring rotations (latency grows
//! with n) but keeps per-link load flat and serializes concurrent
//! initiators for free.

use crate::report::Table;
use crate::scenario::{self, oracle_at_p0, Scenario, SimNet};
use crate::sweep::SweepRunner;
use ps_core::{hybrid_total_order, ManualOracle, SwitchConfig, SwitchHandle, SwitchVariant};
use ps_simnet::{EthernetConfig, SharedBus, SimTime};
use ps_stack::IdGen;
use ps_trace::ProcessId;
use ps_workload::TrafficSpec;

/// Configuration of the variant ablation.
#[derive(Debug, Clone)]
pub struct AblationConfig {
    /// Group sizes to sweep.
    pub group_sizes: Vec<u16>,
    /// Active senders (fixed moderate load).
    pub senders: u16,
    /// Per-sender rate.
    pub rate: f64,
    /// When the measured switch fires.
    pub switch_at: SimTime,
    /// Run end.
    pub end: SimTime,
    /// Seed.
    pub seed: u64,
}

impl Default for AblationConfig {
    fn default() -> Self {
        Self {
            group_sizes: vec![4, 8, 12, 16],
            senders: 3,
            rate: 40.0,
            switch_at: SimTime::from_millis(600),
            end: SimTime::from_millis(1_500),
            seed: 0xAB1A,
        }
    }
}

impl AblationConfig {
    /// Reduced sweep for tests.
    pub fn quick() -> Self {
        Self { group_sizes: vec![4, 10], ..Self::default() }
    }
}

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// Group size.
    pub group: u16,
    /// Variant name.
    pub variant: &'static str,
    /// Initiator's switch duration.
    pub initiator: SimTime,
    /// Worst member's switch duration.
    pub worst: SimTime,
    /// Control-frame overhead: frames beyond an identical run that never
    /// switches.
    pub extra_frames: i64,
}

fn run_one(
    cfg: &AblationConfig,
    n: u16,
    sw_variant: SwitchVariant,
    do_switch: bool,
) -> (u64, Vec<SwitchHandle>) {
    let plan = if do_switch { vec![(cfg.switch_at, 1usize)] } else { vec![] };
    let traffic = TrafficSpec {
        group: n,
        senders: cfg.senders,
        rate: cfg.rate,
        body_bytes: 1024,
        end: cfg.end,
        seed: cfg.seed ^ u64::from(n),
        ..TrafficSpec::default()
    };
    let factory = move |p: ProcessId, ids: &mut IdGen| {
        let oracle = oracle_at_p0(p, || Box::new(ManualOracle::new(plan.clone())));
        let sw_cfg = SwitchConfig {
            variant: sw_variant,
            observe_interval: SimTime::from_millis(20),
            ..SwitchConfig::default()
        };
        let (stack, handle) = hybrid_total_order(ids, sw_cfg, ProcessId(0), oracle);
        (stack, Some(handle))
    };
    let medium = SimNet::over(Box::new(SharedBus::new(EthernetConfig::default())));
    let horizon = cfg.end + SimTime::from_secs(1);
    let out = scenario::run(Scenario {
        sends: traffic.generate().into_sends().collect(),
        ..Scenario::new(n, cfg.seed ^ (u64::from(n) << 6), horizon, medium, factory)
    });
    (out.driver.net_stats().frames_sent, out.handles)
}

/// Runs the ablation serially.
pub fn run(cfg: &AblationConfig) -> Vec<AblationPoint> {
    run_with(cfg, &SweepRunner::serial())
}

/// Runs the ablation on `runner`, one (group size × variant) cell per
/// sweep job; cells come back in grid order, so output matches [`run`]'s.
pub fn run_with(cfg: &AblationConfig, runner: &SweepRunner) -> Vec<AblationPoint> {
    let grid: Vec<(u16, (&'static str, SwitchVariant))> = cfg
        .group_sizes
        .iter()
        .flat_map(|&n| {
            [
                ("broadcast", SwitchVariant::Broadcast),
                ("token-ring", SwitchVariant::TokenRing { idle_hold: SimTime::from_millis(2) }),
            ]
            .into_iter()
            .map(move |v| (n, v))
        })
        .collect();
    let points = runner.run(grid, |_, (n, (name, variant))| {
        // Per-variant baseline without a switch, so the frame
        // subtraction isolates the switch itself (the token variant's
        // idle circulation is present in both runs).
        let (base_frames, _) = run_one(cfg, n, variant, false);
        let (frames, handles) = run_one(cfg, n, variant, true);
        let recs: Vec<_> =
            handles.iter().filter_map(|h| h.snapshot().records.first().cloned()).collect();
        if recs.len() < usize::from(n) {
            return None;
        }
        Some(AblationPoint {
            group: n,
            variant: name,
            initiator: recs[0].duration(),
            worst: recs.iter().map(|r| r.duration()).max().unwrap(),
            extra_frames: frames as i64 - base_frames as i64,
        })
    });
    points.into_iter().flatten().collect()
}

/// Renders the ablation table.
pub fn render(points: &[AblationPoint]) -> Table {
    let mut t = Table::new(
        "Ablation — switching-protocol variant (one switch, moderate load)",
        vec!["group", "variant", "initiator (ms)", "worst member (ms)", "Δ frames vs no-switch"],
    );
    for p in points {
        t.row(vec![
            p.group.to_string(),
            p.variant.into(),
            format!("{:.1}", p.initiator.as_millis_f64()),
            format!("{:.1}", p.worst.as_millis_f64()),
            p.extra_frames.to_string(),
        ]);
    }
    t.note("broadcast: 2 broadcast rounds + n unicasts; token: 3 ring rotations (duration grows with n)");
    t.note("Δ frames is usually NEGATIVE: the switch lands on the token data protocol (1 frame/msg vs the sequencer's 2), and the saved data frames dwarf the switch's own control traffic — the switch pays for itself");
    t
}
