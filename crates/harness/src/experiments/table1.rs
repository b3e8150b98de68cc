//! Table 1: the eight example properties, each demonstrated live —
//! implemented by its protocol layer, violated by a baseline without it.

use crate::report::Table;
use crate::scenario::{self, Scenario, SimNet};
use ps_bytes::Bytes;
use ps_protocols::{
    ConfidentialityLayer, IntegrityLayer, NoReplayLayer, PriorityLayer, ReliableLayer,
    SeqOrderLayer, VsyncConfig, VsyncLayer,
};
use ps_simnet::{Lossy, Medium, PointToPoint, SimTime};
use ps_stack::{IdGen, Layer, Stack};
use ps_trace::props::{
    Amoeba, Confidentiality, Integrity, NoReplay, PrioritizedDelivery, Property, Reliability,
    TotalOrder, VirtualSynchrony,
};
use ps_trace::{Event, ProcessId, Trace};

/// Outcome of one property demonstration.
#[derive(Debug, Clone)]
pub struct Demo {
    /// Property name.
    pub property: &'static str,
    /// Table-1 definition.
    pub definition: &'static str,
    /// Did the property hold with its protocol in the stack?
    pub with_protocol: bool,
    /// Did it hold on the baseline (it should not)?
    pub baseline: bool,
    /// One-line description of the adversarial scenario.
    pub scenario: &'static str,
}

fn jittery(latency_us: u64, jitter_ms: u64) -> Box<dyn Medium> {
    Box::new(
        PointToPoint::new(SimTime::from_micros(latency_us))
            .with_jitter(SimTime::from_millis(jitter_ms)),
    )
}

/// Runs `n` processes over `medium`, each with the layers `factory`
/// builds, and returns the application trace at `horizon`.
fn run_trace<F>(
    n: u16,
    seed: u64,
    medium: Box<dyn Medium>,
    sends: Vec<(SimTime, ProcessId, Bytes)>,
    horizon: SimTime,
    factory: F,
) -> Trace
where
    F: Fn(ProcessId) -> Vec<Box<dyn Layer>> + 'static,
{
    let factory = move |p, ids: &mut IdGen| (Stack::with_ids(factory(p), ids), None);
    let out = scenario::run(Scenario {
        sends,
        ..Scenario::new(n, seed, horizon, SimNet::over(medium), factory)
    });
    out.driver.app_trace()
}

/// [`run_trace`] with `msgs` multicasts round-robin over the group, 4 ms
/// apart, read out at 10 s.
fn run_stack<F>(n: u16, seed: u64, medium: Box<dyn Medium>, msgs: usize, factory: F) -> Trace
where
    F: Fn(ProcessId) -> Vec<Box<dyn Layer>> + 'static,
{
    let sends = (0..msgs)
        .map(|i| {
            let sender = ProcessId((i % n as usize) as u16);
            (SimTime::from_millis(2 + 4 * i as u64), sender, Bytes::from(format!("t1-{i}")))
        })
        .collect();
    run_trace(n, seed, medium, sends, SimTime::from_secs(10), factory)
}

/// Rebuilds the "release boundary" trace for the Amoeba demo: each send is
/// re-timed to the instant of its first delivery (a released message is in
/// flight). See `AmoebaLayer`'s docs for why the app-submission trace
/// cannot exhibit the property under an eager application.
fn release_boundary(tr: &Trace) -> Trace {
    let mut out = Vec::new();
    for e in tr.iter() {
        match e {
            Event::Send(_) => {}
            Event::Deliver(_, m) => {
                let first = !out
                    .iter()
                    .any(|x: &Event| matches!(x, Event::Deliver(_, m2) if m2.id == m.id));
                if first {
                    out.push(Event::send(m.clone()));
                }
                out.push(e.clone());
            }
        }
    }
    Trace::from_events(out)
}

/// Runs all eight demonstrations.
pub fn run() -> Vec<Demo> {
    let mut demos = Vec::new();
    let group4: Vec<ProcessId> = (0..4).map(ProcessId).collect();

    // Reliability: 25% loss; the reliable layer retransmits, the bare
    // stack loses messages.
    {
        let lossy =
            || Box::new(Lossy::new(Box::new(PointToPoint::new(SimTime::from_micros(200))), 0.25));
        let with = run_stack(4, 11, lossy(), 12, |_| vec![Box::new(ReliableLayer::new())]);
        let base = run_stack(4, 11, lossy(), 12, |_| vec![]);
        let prop = Reliability::new(group4.clone());
        demos.push(Demo {
            property: prop.name(),
            definition: prop.description(),
            with_protocol: prop.holds(&with),
            baseline: prop.holds(&base),
            scenario: "25% message loss",
        });
    }

    // Total Order: heavy jitter; the sequencer restores a single order.
    {
        let with = run_stack(4, 12, jittery(300, 5), 16, |_| {
            vec![Box::new(SeqOrderLayer::new(ProcessId(0)))]
        });
        let base = run_stack(4, 12, jittery(300, 5), 16, |_| vec![]);
        demos.push(Demo {
            property: TotalOrder.name(),
            definition: TotalOrder.description(),
            with_protocol: TotalOrder.holds(&with),
            baseline: TotalOrder.holds(&base),
            scenario: "±5 ms network jitter reorders multicasts",
        });
    }

    // Integrity: process 3 has no key; with the layer its traffic is
    // rejected, without it everyone delivers the untrusted sender.
    {
        let trusted = [ProcessId(0), ProcessId(1), ProcessId(2)];
        let with = run_stack(4, 13, jittery(200, 0), 12, move |p| {
            let l: Box<dyn Layer> = if trusted.contains(&p) {
                Box::new(IntegrityLayer::new(0xAB, trusted))
            } else {
                Box::new(IntegrityLayer::untrusted(trusted))
            };
            vec![l]
        });
        let base = run_stack(4, 13, jittery(200, 0), 12, |_| vec![]);
        let prop = Integrity::new(trusted);
        demos.push(Demo {
            property: prop.name(),
            definition: prop.description(),
            with_protocol: prop.holds(&with),
            baseline: prop.holds(&base),
            scenario: "process 3 is untrusted (no group key)",
        });
    }

    // Confidentiality: process 3 has no key and must see nothing.
    {
        let trusted = [ProcessId(0), ProcessId(1), ProcessId(2)];
        let with = run_stack(4, 14, jittery(200, 0), 12, move |p| {
            let l: Box<dyn Layer> = if trusted.contains(&p) {
                Box::new(ConfidentialityLayer::new(0xCD))
            } else {
                Box::new(ConfidentialityLayer::keyless())
            };
            vec![l]
        });
        let base = run_stack(4, 14, jittery(200, 0), 12, |_| vec![]);
        let prop = Confidentiality::new(trusted);
        demos.push(Demo {
            property: prop.name(),
            definition: prop.description(),
            with_protocol: prop.holds(&with),
            baseline: prop.holds(&base),
            scenario: "eavesdropper without the group key",
        });
    }

    // No Replay: the medium duplicates frames.
    {
        let dup = || {
            Box::new(
                Lossy::new(Box::new(PointToPoint::new(SimTime::from_micros(200))), 0.0)
                    .with_duplication(0.6),
            )
        };
        let with = run_stack(3, 15, dup(), 10, |_| vec![Box::new(NoReplayLayer::new())]);
        let base = run_stack(3, 15, dup(), 10, |_| vec![]);
        demos.push(Demo {
            property: NoReplay.name(),
            definition: NoReplay.description(),
            with_protocol: NoReplay.holds(&with),
            baseline: NoReplay.holds(&base),
            scenario: "network duplicates 60% of frames",
        });
    }

    // Prioritized Delivery: jitter races other members past the master.
    {
        let with = run_stack(4, 16, jittery(300, 4), 14, |_| {
            vec![Box::new(PriorityLayer::new(ProcessId(0)))]
        });
        let base = run_stack(4, 16, jittery(300, 4), 14, |_| vec![]);
        let prop = PrioritizedDelivery::new(ProcessId(0));
        demos.push(Demo {
            property: prop.name(),
            definition: prop.description(),
            with_protocol: prop.holds(&with),
            baseline: prop.holds(&base),
            scenario: "jitter delivers to followers before the master",
        });
    }

    // Amoeba: eager application; the layer serializes releases. The
    // property is read at the release boundary (see docs).
    {
        // One eager sender over a jittery network: without self-clocking,
        // a later message's fastest copy overtakes the earlier message's
        // self-delivery, violating the property at the release boundary.
        let sends = || {
            (0..12u64)
                .map(|i| {
                    let at = SimTime::from_micros(100 + 200 * i);
                    (at, ProcessId(0), Bytes::from(format!("amoeba-{i}")))
                })
                .collect()
        };
        let horizon = SimTime::from_secs(2);
        let with = run_trace(3, 17, jittery(800, 3), sends(), horizon, |_| {
            vec![Box::new(ps_protocols::AmoebaLayer::new())]
        });
        let base = run_trace(3, 17, jittery(800, 3), sends(), horizon, |_| vec![]);
        let (with, base) = (release_boundary(&with), release_boundary(&base));
        demos.push(Demo {
            property: Amoeba.name(),
            definition: Amoeba.description(),
            with_protocol: Amoeba.holds(&with),
            baseline: Amoeba.holds(&base),
            scenario: "eager app bursts; trace read at the release boundary",
        });
    }

    // Virtual Synchrony: process 3 starts outside the view and joins via a
    // view change; without the machinery its traffic appears out-of-view.
    {
        let initial = vec![ProcessId(0), ProcessId(1), ProcessId(2)];
        let init2 = initial.clone();
        let with = run_stack(4, 18, jittery(200, 0), 16, move |_| {
            vec![Box::new(VsyncLayer::new(VsyncConfig {
                initial: Some(init2.clone()),
                changes: vec![(
                    SimTime::from_millis(20),
                    vec![ProcessId(0), ProcessId(1), ProcessId(2), ProcessId(3)],
                )],
                ..VsyncConfig::default()
            }))]
        });
        let base = run_stack(4, 18, jittery(200, 0), 16, |_| vec![]);
        let prop = VirtualSynchrony::new(initial);
        demos.push(Demo {
            property: prop.name(),
            definition: prop.description(),
            with_protocol: prop.holds(&with),
            baseline: prop.holds(&base),
            scenario: "process 3 joins the group mid-run",
        });
    }

    demos
}

/// Renders the demonstrations as a table.
pub fn render(demos: &[Demo]) -> Table {
    let mut t = Table::new(
        "Table 1 — example properties, implemented and violated",
        vec!["property", "with protocol", "baseline", "adversarial scenario"],
    );
    for d in demos {
        t.row(vec![
            d.property.to_owned(),
            if d.with_protocol { "✓ holds" } else { "✗ VIOLATED" }.into(),
            if d.baseline { "✓ holds (!)" } else { "✗ violated" }.into(),
            d.scenario.to_owned(),
        ]);
    }
    t.note("every row should read '✓ holds' + '✗ violated': the protocol provides the property, the bare stack does not");
    t
}
