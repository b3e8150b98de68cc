//! One run of a workload on its driver, read out into a [`Rep`].

use crate::check::{self, Verdict};
use crate::host;
use crate::tracing::Tracer;
use crate::workload::{Built, Workload};
use ps_core::SwitchHandle;
use ps_net::{NetConfig, UdpGroup};
use ps_obs::{MonitorSet, Recorder, TimedEvent};
use ps_simnet::{NetStats, SimTime};
use ps_stack::{DeliveryRecord, Driver};
use ps_trace::MsgId;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// The deterministic outputs of a simulated run; a traced run must
/// reproduce them exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Identity {
    /// Application deliveries.
    pub deliveries: usize,
    /// Hash of every delivery's message, process and virtual instant.
    pub delivery_hash: u64,
    /// Frames handed to the medium.
    pub frames_sent: u64,
    /// Events the engine processed.
    pub events_processed: u64,
    /// Switches completed, summed over members.
    pub switches: usize,
}

/// Everything one run of a workload produced.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host ns generating the traffic schedule.
    pub gen_ns: u64,
    /// Host ns building (simulator) or launching (UDP) the group.
    pub build_ns: u64,
    /// Host ns of `run_until`.
    pub run_ns: u64,
    /// CPU ns of all threads during `run_until`.
    pub cpu_ns: u64,
    /// Messages sent.
    pub sent: usize,
    /// Application (message × receiver) deliveries.
    pub deliveries: usize,
    /// Latency from scheduled send to each delivery, µs (virtual time on
    /// the simulator, wall time over UDP).
    pub lat_us: Vec<f64>,
    /// Every member's switch durations, µs.
    pub switch_us: Vec<f64>,
    /// Largest number of messages a switch layer buffered.
    pub buffered_peak: usize,
    /// Switch attempts abandoned on timeout, summed over members.
    pub aborts: u64,
    /// Events recorded, including those the ring overwrote.
    pub obs_events: u64,
    /// Engine counters (simulated runs).
    pub net: Option<NetStats>,
    /// Deterministic outputs (simulated runs).
    pub identity: Option<Identity>,
    /// 99th percentile of how late sends left their schedule, µs (UDP).
    pub send_late_p99_us: f64,
    /// Malformed datagrams received (UDP).
    pub malformed: u64,
    /// The recorder's retained events, when asked for.
    pub events: Vec<TimedEvent>,
    /// The correctness checks' outcome.
    pub verdict: Verdict,
}

/// A run whose resident memory passes this many MiB is stopped as a
/// runaway (a retransmission storm past the saturation cliff grows
/// without bound); the workloads stay far below it.
const RSS_CAP_MB: f64 = 1024.0;
/// Driver time between two memory checks.
const SLICE: SimTime = SimTime::from_secs(1);

/// Generates the workload and builds or launches the group, then drops
/// it unrun: the set-up cost alone, in host ns.
pub fn setup_only(w: &Workload, seed: u64) -> u64 {
    let start = Instant::now();
    let built = w.spec(seed, None);
    if w.simulated() {
        let sim = w.sim_builder(built.spec, None).build();
        let ns = start.elapsed().as_nanos() as u64;
        drop(sim);
        ns
    } else {
        let group = UdpGroup::launch(built.spec, NetConfig::default());
        let ns = start.elapsed().as_nanos() as u64;
        group.shutdown();
        ns
    }
}

/// Runs the workload once, traced when `tracer` is given.
pub fn rep(w: &Workload, seed: u64, tracer: Option<Arc<Tracer>>, keep_events: bool) -> Rep {
    let Built { spec, handles, monitors, scheduled, scripted, gen_ns } =
        w.spec(seed, tracer.clone());
    let sent = check::scheduled_ids(&scheduled);
    let build_start = Instant::now();
    let mut rep = if w.simulated() {
        let mut sim = w.sim_builder(spec, tracer.as_deref()).build();
        let build_ns = build_start.elapsed().as_nanos() as u64;
        let (mut rep, runaway) = drive(&mut sim, w, build_ns);
        let net = sim.net_stats().clone();
        let log = sim.deliveries();
        rep.identity = Some(Identity {
            deliveries: log.len(),
            delivery_hash: hash_deliveries(&log),
            frames_sent: net.frames_sent,
            events_processed: net.events_processed,
            switches: handles.borrow().iter().map(SwitchHandle::switches_completed).sum(),
        });
        rep.net = Some(net);
        read_out(&mut rep, &sim, &sent, &log, monitors.as_ref(), keep_events);
        rep.verdict.problems.extend(runaway);
        rep
    } else {
        let mut group = UdpGroup::launch(spec, NetConfig::default());
        let build_ns = build_start.elapsed().as_nanos() as u64;
        let (mut rep, runaway) = drive(&mut group, w, build_ns);
        let log = group.deliveries();
        read_out(&mut rep, &group, &sent, &log, monitors.as_ref(), keep_events);
        rep.verdict.problems.extend(runaway);
        let report = group.shutdown();
        rep.malformed = report.malformed_per_process.iter().sum::<usize>() as u64;
        if rep.malformed > 0 {
            rep.verdict.problems.push(format!("{} malformed datagrams", rep.malformed));
        }
        rep
    };
    rep.gen_ns = gen_ns;
    let handles = handles.borrow();
    check::switches(&handles, scripted, &mut rep.verdict);
    for h in handles.iter() {
        let s = h.snapshot();
        rep.switch_us.extend(s.records.iter().map(|r| r.duration().as_micros() as f64));
        rep.buffered_peak = rep.buffered_peak.max(s.buffered_peak);
        rep.aborts += s.aborted;
    }
    rep
}

/// Runs the driver to the workload's horizon, timing it. Stops early,
/// with the reason, if the run's memory runs away.
fn drive(driver: &mut dyn Driver, w: &Workload, build_ns: u64) -> (Rep, Option<String>) {
    let cpu_before = host::thread_cpu_ns();
    let start = Instant::now();
    let mut runaway = None;
    let mut until = SimTime::ZERO;
    while until < w.horizon() {
        until = (until + SLICE).min(w.horizon());
        driver.run_until(until);
        let rss = host::rss_mb();
        if rss > RSS_CAP_MB {
            runaway = Some(format!("stopped at {until}: resident memory {rss:.0} MiB"));
            break;
        }
    }
    let run_ns = start.elapsed().as_nanos() as u64;
    // Read before a UDP group shuts down: its node threads' CPU time
    // leaves /proc with them.
    let cpu_ns = host::cpu_ns_since(&cpu_before);
    (Rep { build_ns, run_ns, cpu_ns, ..Rep::default() }, runaway)
}

/// Checks the run and fills in latencies and observability counts.
fn read_out(
    rep: &mut Rep,
    driver: &dyn Driver,
    sent: &[(MsgId, SimTime)],
    log: &[DeliveryRecord],
    monitors: Option<&MonitorSet>,
    keep_events: bool,
) {
    let send_times = driver.send_times();
    rep.verdict = check::deliveries(driver.group().len(), sent, send_times.len(), log);
    check::monitors(monitors, &mut rep.verdict);
    rep.sent = sent.len();
    rep.deliveries = log.len();

    let due: HashMap<MsgId, SimTime> = sent.iter().copied().collect();
    rep.lat_us = log
        .iter()
        .filter_map(|d| due.get(&d.msg).map(|&at| d.at.saturating_sub(at).as_micros() as f64))
        .collect();
    let mut late: Vec<f64> = send_times
        .iter()
        .filter_map(|(m, at)| due.get(m).map(|&d| at.saturating_sub(d).as_micros() as f64))
        .collect();
    rep.send_late_p99_us = host::quantile_us(&mut late, 0.99);

    let rec: &Recorder = driver.recorder();
    rep.obs_events = rec.len() as u64 + rec.overwritten();
    if keep_events {
        rep.events = rec.snapshot();
    }
}

fn hash_deliveries(log: &[DeliveryRecord]) -> u64 {
    let mut h = DefaultHasher::new();
    for d in log {
        (d.msg, d.process, d.at.as_micros()).hash(&mut h);
    }
    h.finish()
}

/// Replays `events` through [`Recorder::record_timed`] into a fresh
/// recorder with the standard monitors attached; host ns per event.
pub fn replay_ns_per_event(events: &[TimedEvent], group: u16) -> f64 {
    if events.is_empty() {
        return 0.0;
    }
    let rec = Recorder::with_capacity(crate::workload::RING);
    MonitorSet::standard(u32::from(group), crate::workload::LIVENESS_BOUND.as_micros())
        .attach(&rec);
    let start = Instant::now();
    for e in events {
        rec.record_timed(std::hint::black_box(e));
    }
    start.elapsed().as_nanos() as f64 / events.len() as f64
}
