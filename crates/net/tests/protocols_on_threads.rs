//! The same protocol stacks — including the switching protocol — running
//! on real OS threads over UDP loopback, with wall-clock timers. Each stack
//! is handed to `UdpGroup` unmodified through a `GroupSpec`. Assertions are
//! on trace properties and counts, never exact timings.

use ps_core::{hybrid_total_order, ManualOracle, NeverOracle, Oracle, SwitchConfig, SwitchHandle};
use ps_net::{NetConfig, NetReport, UdpGroup};
use ps_protocols::{SeqOrderLayer, TokenOrderLayer};
use ps_simnet::SimTime;
use ps_stack::{Driver, GroupSpec, Stack};
use ps_trace::props::{Property, Reliability, TotalOrder};
use ps_trace::{ProcessId, Trace};
use std::sync::{Arc, Mutex};

/// Runs `spec` on loopback with `msgs` round-robin multicasts `gap_ms`
/// apart, drains for `drain_ms` past the last send, and shuts down.
fn run_on_threads(
    mut spec: GroupSpec,
    msgs: u64,
    gap_ms: u64,
    drain_ms: u64,
) -> (Trace, NetReport) {
    let n = u64::from(spec.n);
    for i in 0..msgs {
        spec = spec.send_at(
            SimTime::from_millis(gap_ms * i),
            ProcessId((i % n) as u16),
            format!("rt-{i}"),
        );
    }
    let mut group = UdpGroup::launch(spec, NetConfig::default());
    group.run_until(SimTime::from_millis(gap_ms * msgs + drain_ms));
    let trace = group.app_trace();
    let report = group.shutdown();
    assert_eq!(report.malformed_per_process.iter().sum::<usize>(), 0, "every datagram must decode");
    (trace, report)
}

#[test]
fn sequencer_total_order_on_threads() {
    let n = 4;
    let spec = GroupSpec::new(n).seed(0xE2E).stack_factory(|_, _, ids| {
        Stack::with_ids(vec![Box::new(SeqOrderLayer::new(ProcessId(0)))], ids)
    });
    let (trace, report) = run_on_threads(spec, 16, 3, 300);
    assert!(TotalOrder.holds(&trace), "{trace}");
    let members: Vec<ProcessId> = (0..n).map(ProcessId).collect();
    assert!(Reliability::new(members).holds(&trace));
    assert_eq!(report.delivered_per_process.iter().sum::<usize>(), 16 * 4);
}

#[test]
fn token_total_order_on_threads() {
    let n = 3;
    let spec = GroupSpec::new(n).seed(0xE2E).stack_factory(|_, _, ids| {
        Stack::with_ids(
            vec![Box::new(TokenOrderLayer::with_idle_hold(SimTime::from_millis(1)))],
            ids,
        )
    });
    let (trace, _) = run_on_threads(spec, 12, 4, 400);
    assert!(TotalOrder.holds(&trace), "{trace}");
    assert!(Reliability::new((0..n).map(ProcessId).collect::<Vec<_>>()).holds(&trace));
}

#[test]
fn protocol_switch_on_threads_preserves_total_order() {
    let n = 4;
    let handles: Arc<Mutex<Vec<SwitchHandle>>> = Arc::new(Mutex::new(Vec::new()));
    let h2 = handles.clone();
    let spec = GroupSpec::new(n).seed(0xBEEF).stack_factory(move |p, _, ids| {
        let oracle: Box<dyn Oracle> = if p == ProcessId(0) {
            Box::new(ManualOracle::new(vec![(SimTime::from_millis(120), 1)]))
        } else {
            Box::new(NeverOracle)
        };
        let cfg =
            SwitchConfig { observe_interval: SimTime::from_millis(20), ..SwitchConfig::default() };
        let (stack, handle) = hybrid_total_order(ids, cfg, ProcessId(0), oracle);
        h2.lock().expect("handles").push(handle);
        stack
    });
    // Send across the switch instant.
    let (trace, _) = run_on_threads(spec, 30, 10, 500);

    assert!(TotalOrder.holds(&trace), "{trace}");
    let members: Vec<ProcessId> = (0..n).map(ProcessId).collect();
    assert!(Reliability::new(members).holds(&trace));
    let handles = handles.lock().expect("handles");
    assert!(
        handles.iter().all(|h| h.switches_completed() == 1 && h.current() == 1),
        "every thread must have switched to the token protocol: {handles:?}"
    );
}
