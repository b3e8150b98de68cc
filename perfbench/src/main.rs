//! The repository benchmark: runs one named workload of the switching
//! stacks for a fixed host-time budget, checks its outputs, and prints its
//! metrics as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hybrid-steady --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of untraced runs. `--trace 1`
//! alternates untraced runs with runs whose layers and medium are wrapped
//! in timing wrappers, checks that both produce identical deterministic
//! outputs, and reports the per-layer metrics. See `perfbench/NOTES.md`.

mod check;
mod host;
mod run;
mod tracing;
mod workload;

use run::Rep;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tracing::Tracer;
use workload::Workload;

/// Set-up is also timed alone this many times per run, for a steady median.
const SETUP_TRIALS: usize = 25;
/// Workload seeds one invocation cycles through, derived from `--seed`.
/// Simulated latencies and switch durations pool the first run of each,
/// so one invocation's figures do not hang on a single seed's draws.
const SEEDS_PER_RUN: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 40u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::all()
                        .into_iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// The workload seed of the `k`-th run of an invocation.
fn run_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(SEEDS_PER_RUN as u64).wrapping_add((k % SEEDS_PER_RUN) as u64)
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn med<'a>(reps: impl IntoIterator<Item = &'a Rep>, f: impl Fn(&Rep) -> f64) -> f64 {
    host::median(reps.into_iter().map(f).collect())
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Latency quantile `q`: pooled over the seeds of a simulated invocation
/// (virtual time, deterministic per seed); over UDP, the median of each
/// run's own quantile, which one run's scheduling hiccups cannot move.
fn latency(w: &Workload, reps: &[Rep], q: f64) -> f64 {
    if w.simulated() {
        let mut pooled: Vec<f64> =
            reps.iter().take(SEEDS_PER_RUN).flat_map(|r| r.lat_us.iter().copied()).collect();
        host::quantile_us(&mut pooled, q)
    } else {
        med(reps, |r| host::quantile_us(&mut r.lat_us.clone(), q))
    }
}

fn end_to_end(w: &Workload, reps: &[Rep], setups: &[u64]) -> Vec<Metric> {
    vec![
        metric("setup_s", host::median(setups.iter().map(|&ns| secs(ns)).collect()), "s"),
        metric("deliveries_per_s", med(reps, |r| per(r.deliveries as f64, secs(r.run_ns))), "1/s"),
        metric(
            "cpu_us_per_delivery",
            med(reps, |r| per(r.cpu_ns as f64 / 1e3, r.deliveries as f64)),
            "us",
        ),
        metric("lat_p50_us", latency(w, reps, 0.5), "us"),
        metric("peak_rss_mb", host::peak_rss_mb(), "MiB"),
    ]
}

fn per_layer(w: &Workload, plain: &[Rep], traced: &[(Rep, Arc<Tracer>)]) -> Vec<Metric> {
    let sim = w.simulated();
    let mut out = Vec::new();
    let t_reps = || traced.iter().map(|(r, _)| r);
    let tmed = |f: &dyn Fn(&Rep, &Tracer) -> f64| {
        host::median(traced.iter().map(|(r, t)| f(r, t)).collect())
    };
    let layers = [
        ("switch", "core.switch"),
        ("seq-order", "protocols.seq-order"),
        ("token-order", "protocols.token-order"),
        ("fifo", "protocols.fifo"),
        ("reliable", "protocols.reliable"),
    ];
    for (layer, prefix) in layers {
        let stat = |t: &Tracer| t.layer_stat(layer);
        out.push(metric(
            format!("{prefix}.self_ns_per_msg"),
            tmed(&|r, t| stat(t).map_or(0.0, |s| per(s.self_ns() as f64, r.sent as f64))),
            "ns",
        ));
        out.push(metric(
            format!("{prefix}.calls_per_msg"),
            tmed(&|r, t| stat(t).map_or(0.0, |s| per(s.calls() as f64, r.sent as f64))),
            "count",
        ));
    }
    out.push(metric(
        "core.switch.buffered_peak",
        plain.iter().map(|r| r.buffered_peak as f64).fold(0.0, f64::max),
        "count",
    ));
    out.push(metric("core.switch.aborts", med(plain, |r| r.aborts as f64), "count"));
    // Simulated switch durations pool the invocation's seeds, UDP ones
    // every run.
    let switch_reps = if sim { &plain[..SEEDS_PER_RUN.min(plain.len())] } else { plain };
    let mut switch_us: Vec<f64> =
        switch_reps.iter().flat_map(|r| r.switch_us.iter().copied()).collect();
    let samples = switch_us.len();
    out.push(metric("core.switch.samples", samples as f64, "count"));
    out.push(metric("core.switch.p50_us", host::quantile_us(&mut switch_us, 0.5), "us"));
    // A p95 needs at least ten samples beyond it; 0 where it has fewer.
    let p95 = if samples >= 200 { host::quantile_us(&mut switch_us, 0.95) } else { 0.0 };
    out.push(metric("core.switch.p95_us", p95, "us"));

    let net = |r: &Rep| r.net.clone().unwrap_or_default();
    let horizon_us = w.horizon().as_micros() as f64;
    out.push(metric(
        "simnet.medium.ns_per_frame",
        tmed(&|_, t| per(t.medium_stat().self_ns() as f64, t.medium_stat().calls() as f64)),
        "ns",
    ));
    out.push(metric(
        "simnet.residual_ns_per_event",
        tmed(&|r, t| match &r.net {
            Some(n) => per(
                r.run_ns.saturating_sub(t.layers_self_ns() + t.medium_stat().self_ns()) as f64,
                n.events_processed as f64,
            ),
            None => 0.0,
        }),
        "ns",
    ));
    out.push(metric("simnet.lat_p99_us", if sim { latency(w, plain, 0.99) } else { 0.0 }, "us"));
    out.push(metric(
        "simnet.events_per_delivery",
        med(plain, |r| per(net(r).events_processed as f64, r.deliveries as f64)),
        "count",
    ));
    out.push(metric(
        "simnet.frames_per_msg",
        med(plain, |r| per(net(r).frames_sent as f64, r.sent as f64)),
        "count",
    ));
    out.push(metric(
        "simnet.bytes_per_msg",
        med(plain, |r| per(net(r).bytes_sent as f64, r.sent as f64)),
        "B",
    ));
    out.push(metric(
        "simnet.bus_busy_permille",
        med(plain, |r| per(net(r).medium_busy_us as f64 * 1000.0, horizon_us)),
        "permille",
    ));

    out.push(metric(
        "obs.events_per_delivery",
        med(plain, |r| per(r.obs_events as f64, r.deliveries as f64)),
        "count",
    ));
    let replays: Vec<f64> =
        (0..5).map(|_| run::replay_ns_per_event(&plain[0].events, w.group)).collect();
    out.push(metric("obs.replay_ns_per_event", host::median(replays), "ns"));

    // Wall-clock numbers come from the untraced runs, which the timing
    // wrappers cannot slow down.
    out.push(metric(
        "net.send_late_p99_us",
        if sim { 0.0 } else { med(plain, |r| r.send_late_p99_us) },
        "us",
    ));
    out.push(metric("net.lat_p99_us", if sim { 0.0 } else { latency(w, plain, 0.99) }, "us"));
    out.push(metric(
        "net.malformed",
        plain.iter().chain(t_reps()).map(|r| r.malformed as f64).sum(),
        "count",
    ));

    out.push(metric("workload.gen_ms", med(plain, |r| r.gen_ns as f64 / 1e6), "ms"));
    out.push(metric("setup.build_ms", med(plain, |r| r.build_ns as f64 / 1e6), "ms"));

    // Tracing overhead: host time per delivery, traced over untraced
    // (CPU time over UDP, where the run's wall time is fixed).
    let cost = |r: &Rep| per(if sim { r.run_ns } else { r.cpu_ns } as f64, r.deliveries as f64);
    let base = med(plain, cost);
    out.push(metric("trace.overhead_pct", per(med(t_reps(), cost) - base, base) * 100.0, "%"));
    out
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(s, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    s.push_str("}}");
    s
}

/// Every correctness problem of the runs: failed checks, and any run that
/// does not reproduce the deterministic outputs of the untraced run of
/// the same seed.
fn problems(plain: &[Rep], traced: &[(Rep, Arc<Tracer>)]) -> Vec<String> {
    let mut out = Vec::new();
    for (k, r) in plain.iter().enumerate() {
        out.extend(r.verdict.problems.iter().map(|p| format!("run {k}: {p}")));
        let reference = &plain[k % SEEDS_PER_RUN].identity;
        if r.identity != *reference {
            out.push(format!("run {k} differs from run {}: {:?}", k % SEEDS_PER_RUN, r.identity));
        }
    }
    for (k, (r, _)) in traced.iter().enumerate() {
        out.extend(r.verdict.problems.iter().map(|p| format!("traced run {k}: {p}")));
        if r.identity != plain[k].identity {
            out.push(format!(
                "traced run {k} differs from the untraced run: {:?} vs {:?}",
                r.identity, plain[k].identity
            ));
        }
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <hybrid-steady|ft-lossy|udp-loopback> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let w = &args.workload;
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();

    let setups: Vec<u64> =
        (0..SETUP_TRIALS).map(|k| run::setup_only(w, run_seed(args.seed, k))).collect();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<(Rep, Arc<Tracer>)> = Vec::new();
    loop {
        let k = plain.len();
        let seed = run_seed(args.seed, k);
        let mut rep = run::rep(w, seed, None, args.trace && k == 0);
        if w.simulated() && k >= SEEDS_PER_RUN {
            rep.lat_us = Vec::new(); // only the first run of each seed is pooled
        }
        plain.push(rep);
        if args.trace {
            let tracer = Arc::new(Tracer::default());
            let mut rep = run::rep(w, seed, Some(Arc::clone(&tracer)), false);
            rep.lat_us = Vec::new();
            traced.push((rep, tracer));
        }
        let rounds = plain.len() as u32;
        let elapsed = started.elapsed();
        if plain.len() >= SEEDS_PER_RUN && elapsed + elapsed / rounds > budget {
            break;
        }
    }

    let problems = problems(&plain, &traced);
    let all = || plain.iter().chain(traced.iter().map(|(r, _)| r));
    let attempted: u64 = all().map(|r| r.verdict.attempted).sum();
    let failed: u64 = all().map(|r| r.verdict.failed).sum();
    let metrics = if args.trace {
        per_layer(w, &plain, &traced)
    } else {
        let mut setups = setups;
        setups.extend(plain.iter().map(|r| r.gen_ns + r.build_ns));
        end_to_end(w, &plain, &setups)
    };

    let hw_threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "perfbench {} seed={} trace={} runs={} hw_threads={hw_threads} wall={:.2}s",
        w.name,
        args.seed,
        u8::from(args.trace),
        plain.len(),
        started.elapsed().as_secs_f64()
    );
    for m in &metrics {
        eprintln!("  {:<40} {:>14.3} {}", m.name, m.value, m.unit);
    }
    for p in &problems {
        eprintln!("FAIL {p}");
    }
    let correct = problems.is_empty();
    println!("{}", json_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
