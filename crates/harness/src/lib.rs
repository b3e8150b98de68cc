//! Experiment harness: regenerates every table and figure of the paper.
//!
//! | Experiment | Paper artifact | Entry point |
//! |---|---|---|
//! | [`experiments::table1`] | Table 1 — each property implemented and violated | `repro table1` |
//! | [`experiments::table2`] | Table 2 — properties × meta-properties matrix | `repro table2` |
//! | [`experiments::fig2`] | Figure 2 — latency vs. active senders, sequencer vs. token vs. hybrid | `repro fig2` |
//! | [`experiments::overhead`] | §7 — switching overhead near the crossover (~31 ms in the paper) | `repro overhead` |
//! | [`experiments::oscillation`] | §7 — aggressive switching oscillates; hysteresis damps it | `repro oscillation` |
//! | [`trace_run`] | §7 — instrumented switch run: event trace + phase timeline | `repro trace --trace out.jsonl` |
//! | [`monitor_run`] | §7 — live monitors + load sampling + metrics-driven switch oracle | `repro monitor --series load.jsonl` |
//! | [`chaos`] | §2/§8 — crash/recovery + partition fault injection, monitored scenario matrix | `repro chaos` |
//! | [`explain`] | §7 — causal critical-path attribution per switch + post-mortem flight recorder | `repro explain` |
//! | [`campaign`] | §7 — judged campaign grid: traffic profiles × stacks × faults, monitored | `repro campaign` |
//! | [`profile`] | host-time attribution of the monitored run (engine/layer/obs components) | `repro profile --flame out.folded` |
//! | [`real`] | sim-vs-real: the same seeded scenario on simnet and UDP loopback, diffed | `repro real --compare` |
//!
//! Every run in every experiment is a [`scenario::Scenario`] — group,
//! seed, `ps-workload` sends, stack factory, medium, observability —
//! executed by the one [`scenario::run`], on the simulator or over UDP
//! loopback.
//!
//! Every experiment is deterministic given its config (all randomness is
//! seeded) and returns a typed result that both the CLI and the Criterion
//! benches render. Absolute numbers come from the simulated testbed
//! (DESIGN.md §1), so the *shape* of each result is the claim, not the
//! milliseconds.

pub mod campaign;
pub mod chaos;
pub mod experiments;
pub mod explain;
pub mod ledger;
pub mod measure;
pub mod monitor_run;
pub mod profile;
pub mod real;
pub mod report;
pub mod scenario;
pub mod sweep;
pub mod trace_run;

pub use measure::{latency_histogram, LatencyStats, SteadyStateWindow};
pub use report::Table;
pub use sweep::SweepRunner;

/// The workload every experiment sends: `ps-workload`'s steady profile over
/// the last `senders` of `group` members, at a fixed per-sender rate.
#[cfg(test)]
mod workload {
    mod tests {
        use ps_simnet::SimTime;
        use ps_workload::{SendEvent, TrafficSpec};

        fn sends(group: u16, senders: u16, rate: f64) -> Vec<SendEvent> {
            TrafficSpec {
                group,
                senders,
                rate,
                body_bytes: 1024,
                end: SimTime::from_secs(10),
                seed: 1,
                ..TrafficSpec::default()
            }
            .generate()
            .events
        }

        #[test]
        fn periodic_rate_is_close() {
            let got = sends(10, 4, 50.0).len() as f64;
            let expected = 4.0 * 50.0 * 9.9; // ~9.9 s of workload
            assert!((got - expected).abs() / expected < 0.05, "got {got}, expected ~{expected}");
        }

        #[test]
        fn senders_are_the_last_k_members() {
            for e in sends(10, 3, 10.0) {
                assert!((7..10).contains(&e.sender.0), "{:?} is not among the last 3", e.sender);
            }
            let mut everyone: Vec<u16> = sends(10, 10, 10.0).iter().map(|e| e.sender.0).collect();
            everyone.sort_unstable();
            everyone.dedup();
            assert_eq!(everyone, (0..10).collect::<Vec<_>>());
        }

        #[test]
        fn bodies_are_distinct_per_message() {
            let events = sends(10, 2, 30.0);
            let mut bodies: Vec<_> = events.iter().map(|e| &e.body).collect();
            bodies.sort();
            let before = bodies.len();
            bodies.dedup();
            assert_eq!(bodies.len(), before, "workload bodies must not collide");
        }
    }
}
