//! `repro real` — the same seeded scenario on simnet and on a real wire.
//!
//! The transport split (`ps_stack::Driver` / `ps_stack::GroupSpec`) makes
//! this a controlled experiment: **one** [`Scenario`] — group size, seeded
//! `ps-workload` schedule, the hybrid total-order stack with a scripted
//! mid-run switch — run by the one [`scenario::run`] on two media. The
//! simulated run uses [`SimNet`]; the real run uses [`NetConfig`], which
//! launches a `ps_net::UdpGroup` on UDP loopback, one OS thread and one
//! socket per process. No `Layer` sees which one it is on.
//!
//! `--compare` runs both and diffs them along the axes the media *should*
//! agree on:
//!
//! * **deterministic fields** — messages sent, per-monitor verdicts
//!   (total order, per-sender FIFO, delivery accounting, switch
//!   liveness), delivery counts, switch completions/aborts. These must
//!   match exactly; any divergence is a finding and exits 1.
//! * **wall-clock fields** — latency quantiles and their sim/real
//!   ratios, run wall time. These are host measurements; rows carry a
//!   `(wall)` marker so tooling (and the CI determinism check) can
//!   filter them before diffing two reports.
//!
//! The scripted [`ManualOracle`] — rather than the load-driven oracle the
//! monitor scenario uses — is deliberate: both media must attempt the
//! switch at the same scenario time, so that verdict rows compare switch
//! *execution*, not oracle *timing* under different clocks. See
//! `docs/transport.md` for the methodology and the known divergences.

use crate::measure::{latency_stats, LatencyStats, SteadyStateWindow};
use crate::report::Table;
use crate::scenario::{self, oracle_at_p0, Scenario, SimNet, Transport};
use ps_core::{hybrid_total_order, ManualOracle, SwitchConfig};
use ps_net::NetConfig;
use ps_obs::{MetricsSampler, TimedEvent, Violation, ViolationKind};
use ps_simnet::SimTime;
use ps_stack::{Driver, IdGen};
use ps_trace::ProcessId;
use ps_workload::{Profile, TrafficSpec};

/// Configuration shared by both media.
#[derive(Debug, Clone)]
pub struct RealRunConfig {
    /// Group size (process 0 is the sequencer and scripts the switch).
    pub group: u16,
    /// Sending subgroup size (the workload generator's convention).
    pub senders: u16,
    /// Per-sender rate (msg/s). Kept low: the comparison wants zero
    /// loopback loss, not a throughput stress.
    pub rate: f64,
    /// Message body size.
    pub body_bytes: usize,
    /// Workload start.
    pub start: SimTime,
    /// Workload end (the run drains past it).
    pub end: SimTime,
    /// Scenario time of the scripted sequencer→token switch.
    pub switch_at: SimTime,
    /// Drain time past the workload end before the run is read out.
    pub drain: SimTime,
    /// Switch-liveness bound for the monitors. Generous: it must hold
    /// under OS scheduling jitter, not just simulated rounds.
    pub liveness_bound: SimTime,
    /// Load-sampling interval (both media feed a sampler).
    pub sample_interval: SimTime,
    /// Recorder ring capacity.
    pub ring_capacity: usize,
    /// Seed for the workload schedule and both drivers.
    pub seed: u64,
}

impl Default for RealRunConfig {
    fn default() -> Self {
        Self {
            group: 4,
            senders: 2,
            rate: 25.0,
            body_bytes: 64,
            start: SimTime::from_millis(100),
            end: SimTime::from_millis(1600),
            switch_at: SimTime::from_millis(800),
            drain: SimTime::from_millis(600),
            liveness_bound: SimTime::from_secs(2),
            sample_interval: SimTime::from_millis(100),
            ring_capacity: 1 << 16,
            seed: 0x5EA1,
        }
    }
}

impl RealRunConfig {
    /// Reduced run for tests and the CI smoke (~1 s of wall clock).
    pub fn quick() -> Self {
        Self {
            group: 3,
            rate: 30.0,
            end: SimTime::from_millis(700),
            switch_at: SimTime::from_millis(350),
            drain: SimTime::from_millis(400),
            ..Self::default()
        }
    }

    /// Instant the run stops and is read out.
    pub fn horizon(&self) -> SimTime {
        self.end + self.drain
    }
}

/// One medium's readout, in fields both media can produce.
#[derive(Clone)]
pub struct MediumReport {
    /// `"simnet"` or `"udp-loopback"`.
    pub medium: &'static str,
    /// Application messages the workload scheduled (equal by
    /// construction; diffed anyway as a sanity anchor).
    pub sent: usize,
    /// Application (message, receiver) deliveries.
    pub deliveries: usize,
    /// Messages some receiver never delivered.
    pub incomplete: usize,
    /// Streaming-monitor violations.
    pub violations: Vec<Violation>,
    /// Completed switches, minimum across processes (every process must
    /// finish the scripted switch for this to be 1).
    pub switches_min: usize,
    /// Aborted switch attempts, summed across processes.
    pub aborts: u64,
    /// Send→deliver latency statistics over the whole run. Simulated
    /// microseconds on simnet, wall-clock microseconds on loopback.
    pub latency: LatencyStats,
    /// The recorder's event snapshot (for `--trace-*` exports).
    pub events: Vec<TimedEvent>,
    /// Ring evictions (monitors stream, so verdicts are unaffected).
    pub overwritten: u64,
    /// Host wall time the run took, in milliseconds. Wall-clock field.
    pub wall_ms: u64,
}

impl MediumReport {
    /// Violation count for one monitor kind.
    pub fn violations_of(&self, kind: ViolationKind) -> usize {
        self.violations.iter().filter(|v| v.kind == kind).count()
    }
}

/// The seeded workload schedule both media replay.
fn workload(cfg: &RealRunConfig) -> TrafficSpec {
    TrafficSpec {
        profile: Profile::Steady,
        group: cfg.group,
        senders: cfg.senders,
        rate: cfg.rate,
        scale: 1.0,
        body_bytes: cfg.body_bytes,
        start: cfg.start,
        end: cfg.end,
        seed: cfg.seed,
    }
}

/// Runs the scenario — same stacks, same schedule, same seed on every
/// medium — on `medium` and reads it out into the common report shape,
/// handing back the finished driver for the caller to stop.
fn run_on<T: Transport>(
    name: &'static str,
    cfg: &RealRunConfig,
    medium: T,
) -> (MediumReport, T::Driver) {
    let switch_at = cfg.switch_at;
    let factory = move |p: ProcessId, ids: &mut IdGen| {
        let oracle = oracle_at_p0(p, || Box::new(ManualOracle::new(vec![(switch_at, 1)])));
        let (stack, handle) =
            hybrid_total_order(ids, SwitchConfig::default(), ProcessId(0), oracle);
        (stack, Some(handle))
    };
    let sends: Vec<_> = workload(cfg).generate().into_sends().collect();
    let sent = sends.len();
    let started = std::time::Instant::now();
    let out = scenario::run(Scenario {
        sends,
        ring_capacity: cfg.ring_capacity,
        liveness_bound: cfg.liveness_bound,
        sampler: Some(MetricsSampler::new(cfg.sample_interval.as_micros())),
        ..Scenario::new(cfg.group, cfg.seed, cfg.horizon(), medium, factory)
    });
    let wall_ms = started.elapsed().as_millis() as u64;

    let latency = latency_stats(&out.driver, SteadyStateWindow::all());
    let report = MediumReport {
        medium: name,
        sent,
        deliveries: out.driver.deliveries().len(),
        incomplete: latency.incomplete,
        switches_min: out.handles.iter().map(|h| h.switches_completed()).min().unwrap_or(0),
        aborts: out.handles.iter().map(|h| h.snapshot().aborted).sum(),
        latency,
        events: out.events(),
        overwritten: out.overwritten(),
        violations: out.violations,
        wall_ms,
    };
    (report, out.driver)
}

/// Runs the scenario on the simulated medium (the builder's default
/// point-to-point network — a clean 100 µs wire, the closest simulated
/// analogue of an idle loopback).
pub fn run_sim(cfg: &RealRunConfig) -> MediumReport {
    run_on("simnet", cfg, SimNet::default()).0
}

/// Runs the *same* scenario over UDP loopback: real sockets, real OS
/// threads, wall-clock time.
pub fn run_real(cfg: &RealRunConfig) -> MediumReport {
    let (report, group) = run_on("udp-loopback", cfg, NetConfig::default());
    group.shutdown();
    report
}

/// Renders one medium's report. Rows whose values are host measurements
/// carry the `(wall)` marker.
pub fn render_medium(r: &MediumReport) -> Table {
    let mut t = Table::new(&format!("real — {} run", r.medium), vec!["field", "value"]);
    t.row(vec!["messages sent".into(), r.sent.to_string()]);
    t.row(vec!["deliveries (msg × receiver)".into(), r.deliveries.to_string()]);
    t.row(vec!["incomplete messages".into(), r.incomplete.to_string()]);
    for kind in MONITOR_KINDS {
        t.row(vec![format!("monitor: {}", kind.as_str()), verdict_str(r.violations_of(*kind))]);
    }
    t.row(vec!["switches completed (min over processes)".into(), r.switches_min.to_string()]);
    t.row(vec!["switch aborts".into(), r.aborts.to_string()]);
    t.row(vec!["latency p50 µs (wall)".into(), r.latency.p50.as_micros().to_string()]);
    t.row(vec!["latency p99 µs (wall)".into(), r.latency.p99.as_micros().to_string()]);
    t.row(vec!["latency mean µs (wall)".into(), r.latency.mean.as_micros().to_string()]);
    t.row(vec!["run wall time ms (wall)".into(), r.wall_ms.to_string()]);
    if r.overwritten > 0 {
        t.note(format!("ring evicted {} events (monitors streamed regardless)", r.overwritten));
    }
    t
}

/// The monitors both media are judged by, in report order.
const MONITOR_KINDS: &[ViolationKind] = &[
    ViolationKind::TotalOrder,
    ViolationKind::Fifo,
    ViolationKind::DeliveryLoss,
    ViolationKind::SwitchLiveness,
];

fn verdict_str(violations: usize) -> String {
    if violations == 0 {
        "ok".into()
    } else {
        format!("{violations} violation(s)")
    }
}

/// A sim-vs-real comparison: both reports plus the diff verdict.
pub struct CompareResult {
    /// The simulated run.
    pub sim: MediumReport,
    /// The loopback run.
    pub real: MediumReport,
}

impl CompareResult {
    /// Deterministic-field divergences, one line each (empty = media
    /// agree everywhere they are required to).
    pub fn divergences(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut check = |field: &str, sim: String, real: String| {
            if sim != real {
                out.push(format!("{field}: simnet={sim} udp-loopback={real}"));
            }
        };
        check("messages sent", self.sim.sent.to_string(), self.real.sent.to_string());
        check("deliveries", self.sim.deliveries.to_string(), self.real.deliveries.to_string());
        check(
            "incomplete messages",
            self.sim.incomplete.to_string(),
            self.real.incomplete.to_string(),
        );
        for kind in MONITOR_KINDS {
            check(
                &format!("monitor: {}", kind.as_str()),
                verdict_str(self.sim.violations_of(*kind)),
                verdict_str(self.real.violations_of(*kind)),
            );
        }
        check(
            "switches completed",
            self.sim.switches_min.to_string(),
            self.real.switches_min.to_string(),
        );
        check("switch aborts", self.sim.aborts.to_string(), self.real.aborts.to_string());
        out
    }

    /// Whether the media agree on every deterministic field.
    pub fn media_agree(&self) -> bool {
        self.divergences().is_empty()
    }
}

/// Runs the scenario on both media.
pub fn run_compare(cfg: &RealRunConfig) -> CompareResult {
    CompareResult { sim: run_sim(cfg), real: run_real(cfg) }
}

/// Renders the sim-vs-real diff. Deterministic rows first (must be
/// byte-identical across same-seed invocations); `(wall)` rows are host
/// measurements and excluded from determinism expectations.
pub fn render_compare(r: &CompareResult) -> Table {
    let mut t = Table::new(
        "real — sim vs udp-loopback (same seeded scenario, same stacks)",
        vec!["field", "simnet", "udp-loopback", "verdict"],
    );
    let mut det = |field: &str, sim: String, real: String| {
        let verdict = if sim == real { "match" } else { "DIVERGED" };
        t.row(vec![field.into(), sim, real, verdict.into()]);
    };
    det("messages sent", r.sim.sent.to_string(), r.real.sent.to_string());
    det("deliveries (msg × receiver)", r.sim.deliveries.to_string(), r.real.deliveries.to_string());
    det("incomplete messages", r.sim.incomplete.to_string(), r.real.incomplete.to_string());
    for kind in MONITOR_KINDS {
        det(
            &format!("monitor: {}", kind.as_str()),
            verdict_str(r.sim.violations_of(*kind)),
            verdict_str(r.real.violations_of(*kind)),
        );
    }
    det("switches completed", r.sim.switches_min.to_string(), r.real.switches_min.to_string());
    det("switch aborts", r.sim.aborts.to_string(), r.real.aborts.to_string());

    let ratio = |sim: SimTime, real: SimTime| -> String {
        if sim.as_micros() == 0 {
            "n/a".into()
        } else {
            format!("×{:.2}", real.as_micros() as f64 / sim.as_micros() as f64)
        }
    };
    for (name, sim_v, real_v) in [
        ("latency p50 µs (wall)", r.sim.latency.p50, r.real.latency.p50),
        ("latency p99 µs (wall)", r.sim.latency.p99, r.real.latency.p99),
        ("latency mean µs (wall)", r.sim.latency.mean, r.real.latency.mean),
        ("latency max µs (wall)", r.sim.latency.max, r.real.latency.max),
    ] {
        t.row(vec![
            name.into(),
            sim_v.as_micros().to_string(),
            real_v.as_micros().to_string(),
            ratio(sim_v, real_v),
        ]);
    }
    t.row(vec![
        "run wall time ms (wall)".into(),
        r.sim.wall_ms.to_string(),
        r.real.wall_ms.to_string(),
        "-".into(),
    ]);
    t.note("deterministic rows must match; (wall) rows are host measurements — the sim column is simulated time, the real column wall-clock time, so the ratio reads 'real medium is N× the simulated wire'");
    t.note("latency samples are per (message, receiver) over the whole run; see docs/transport.md for tolerances and known divergences");
    t
}

/// The `BENCH_real.json` rows for a compare result: a self-describing
/// host line, then one line per medium. Wall fields are host
/// measurements; deterministic fields pin what the run did.
pub fn bench_jsonl(cfg: &RealRunConfig, r: &CompareResult) -> String {
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut out = format!(
        "{{\"group\":\"real_transport_host\",\"bench\":\"host\",\"hw_threads\":{hw},\"processes\":{},\"horizon_ms\":{}}}\n",
        cfg.group,
        cfg.horizon().as_micros() / 1000,
    );
    for m in [&r.sim, &r.real] {
        out.push_str(&format!(
            "{{\"group\":\"real_transport\",\"bench\":\"{}\",\"seed\":{},\"sent\":{},\"deliveries\":{},\"violations\":{},\"switches\":{},\"p50_us\":{},\"p99_us\":{},\"mean_us\":{},\"wall_ms\":{}}}\n",
            m.medium,
            cfg.seed,
            m.sent,
            m.deliveries,
            m.violations.len(),
            m.switches_min,
            m.latency.p50.as_micros(),
            m.latency.p99.as_micros(),
            m.latency.mean.as_micros(),
            m.wall_ms,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_matches_sim_on_deterministic_fields() {
        let cfg = RealRunConfig::quick();
        let r = run_compare(&cfg);
        assert!(r.sim.sent > 0, "workload generated no messages");
        assert!(
            r.media_agree(),
            "media diverged on deterministic fields:\n{}",
            r.divergences().join("\n")
        );
        assert_eq!(r.sim.switches_min, 1, "sim must complete the scripted switch");
        assert_eq!(r.real.switches_min, 1, "loopback must complete the scripted switch");
        assert!(r.sim.violations.is_empty() && r.real.violations.is_empty());
    }

    #[test]
    fn sim_side_is_deterministic() {
        let cfg = RealRunConfig::quick();
        let (a, b) = (run_sim(&cfg), run_sim(&cfg));
        assert_eq!(a.deliveries, b.deliveries);
        assert_eq!(a.latency, b.latency);
        assert_eq!(
            ps_obs::export::to_jsonl(&a.events),
            ps_obs::export::to_jsonl(&b.events),
            "same-seed sim traces must be byte-identical"
        );
    }

    #[test]
    fn compare_report_filters_to_a_deterministic_core() {
        let cfg = RealRunConfig::quick();
        let (a, b) = (run_compare(&cfg), run_compare(&cfg));
        let core = |t: &Table| -> String {
            t.to_string().lines().filter(|l| !l.contains("(wall)")).collect::<Vec<_>>().join("\n")
        };
        assert_eq!(
            core(&render_compare(&a)),
            core(&render_compare(&b)),
            "compare report must be deterministic modulo (wall) rows"
        );
    }

    #[test]
    fn bench_rows_are_self_describing() {
        let cfg = RealRunConfig::quick();
        let r = run_compare(&cfg);
        let body = bench_jsonl(&cfg, &r);
        assert_eq!(body.lines().count(), 3, "host row + one row per medium");
        assert!(body.starts_with("{\"group\":\"real_transport_host\""));
        assert!(body.contains("\"bench\":\"simnet\""));
        assert!(body.contains("\"bench\":\"udp-loopback\""));
        for line in body.lines() {
            assert!(ps_obs::json::validate(line).is_ok(), "invalid JSON row: {line}");
        }
    }
}
