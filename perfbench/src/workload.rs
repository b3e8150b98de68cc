//! The three workloads and the one builder both the untraced and the
//! traced runs use, so the timing wrappers are the only difference.

use crate::tracing::Tracer;
use ps_core::{
    ManualOracle, NeverOracle, Oracle, SwitchConfig, SwitchHandle, SwitchLayer, SwitchVariant,
};
use ps_obs::{MonitorSet, Recorder};
use ps_protocols::{FifoLayer, ReliableLayer, SeqOrderLayer, TokenOrderLayer};
use ps_simnet::{EthernetConfig, Lossy, Medium, SharedBus, SimTime};
use ps_stack::{GroupSimBuilder, GroupSpec, IdGen, Layer, Stack};
use ps_trace::ProcessId;
use ps_workload::{Profile, TrafficSpec};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Which protocol stack every process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackKind {
    /// The §7 sequencer↔token hybrid, one protocol layer per sub-stack.
    Hybrid,
    /// seq/fifo/reliable ↔ token/reliable with a reliable control stack.
    HybridFt,
}

/// Which transport carries the frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Simulated shared 10 Mbit bus, dropping `loss_permille` of copies.
    SimBus {
        /// Per-copy loss, in permille.
        loss_permille: u32,
    },
    /// `ps_net::UdpGroup` over the loopback interface, wall clock.
    UdpLoopback,
}

/// A named workload. Spans are virtual time on the simulator and wall
/// time over UDP.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Group size.
    pub group: u16,
    /// Protocol stack.
    pub stack: StackKind,
    /// Transport.
    pub transport: Transport,
    /// Traffic shape.
    pub profile: Profile,
    /// Sending processes (the last `senders` members).
    pub senders: u16,
    /// Base rate per sender, msg/s.
    pub rate: f64,
    /// Body size in bytes.
    pub body_bytes: usize,
    /// Offset of the first possible send.
    pub start: SimTime,
    /// Length of the traffic span of one run.
    pub span: SimTime,
    /// Time after the traffic span for the group to settle.
    pub drain: SimTime,
    /// Process 0 switches protocol every `switch_every`.
    pub switch_every: SimTime,
    /// Whether a recorder with the standard monitors is attached.
    pub observed: bool,
}

/// Ring capacity of the attached recorder.
pub const RING: usize = 64 * 1024;
/// Switch-liveness bound handed to the standard monitors.
pub const LIVENESS_BOUND: SimTime = SimTime::from_secs(2);
/// Token idle hold of the fault-tolerant stack's token protocol.
const FT_IDLE_HOLD: SimTime = SimTime::from_millis(5);

/// Every workload, in the order the notes describe them.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "hybrid-steady",
            group: 10,
            stack: StackKind::Hybrid,
            transport: Transport::SimBus { loss_permille: 0 },
            profile: Profile::Steady,
            senders: 5,
            rate: 50.0,
            body_bytes: 256,
            start: SimTime::from_millis(100),
            span: SimTime::from_secs(150),
            drain: SimTime::from_secs(2),
            switch_every: SimTime::from_millis(500),
            observed: true,
        },
        Workload {
            name: "ft-lossy",
            group: 6,
            stack: StackKind::HybridFt,
            transport: Transport::SimBus { loss_permille: 100 },
            // One burst cycle per 10 s of the 600 s span.
            profile: Profile::CorrelatedBursts { bursts: 60, peak: 3, duty_permille: 200 },
            senders: 3,
            // Below the saturation cliff with margin; see NOTES.md.
            rate: 6.0,
            body_bytes: 1024,
            start: SimTime::from_millis(100),
            span: SimTime::from_secs(600),
            drain: SimTime::from_secs(5),
            switch_every: SimTime::from_secs(2),
            observed: false,
        },
        Workload {
            name: "udp-loopback",
            group: 2,
            stack: StackKind::Hybrid,
            transport: Transport::UdpLoopback,
            profile: Profile::Steady,
            senders: 2,
            rate: 500.0,
            body_bytes: 256,
            start: SimTime::from_millis(20),
            span: SimTime::from_secs(1),
            drain: SimTime::from_millis(300),
            switch_every: SimTime::from_millis(500),
            observed: true,
        },
    ]
}

impl Workload {
    /// Whether the workload runs on the simulator.
    pub fn simulated(&self) -> bool {
        matches!(self.transport, Transport::SimBus { .. })
    }

    /// End of the traffic span.
    pub fn end(&self) -> SimTime {
        self.start + self.span
    }

    /// The instant the run stops.
    pub fn horizon(&self) -> SimTime {
        self.end() + self.drain
    }

    /// Process 0's switch script: every `switch_every` inside the traffic
    /// span, alternating between protocol 1 and protocol 0.
    pub fn switch_plan(&self) -> Vec<(SimTime, usize)> {
        let step = self.switch_every.as_micros();
        (1..)
            .map(|k| SimTime::from_micros(k * step))
            .take_while(|&at| at < self.end())
            .enumerate()
            .map(|(i, at)| (at, (i + 1) % 2))
            .collect()
    }

    /// Generates the workload and assembles the group's spec. With a
    /// tracer, every layer is wrapped in a timing layer; nothing else
    /// differs.
    pub fn spec(&self, seed: u64, tracer: Option<Arc<Tracer>>) -> Built {
        let gen_start = Instant::now();
        let schedule = TrafficSpec {
            profile: self.profile,
            group: self.group,
            senders: self.senders,
            rate: self.rate,
            scale: 1.0,
            body_bytes: self.body_bytes,
            start: self.start,
            end: self.end(),
            seed,
        }
        .generate();
        let gen_ns = gen_start.elapsed().as_nanos() as u64;

        let mut scheduled = vec![Vec::new(); usize::from(self.group)];
        for e in &schedule.events {
            scheduled[e.sender.index()].push(e.at);
        }
        for times in &mut scheduled {
            times.sort();
        }

        let recorder = self.observed.then(|| Recorder::with_capacity(RING));
        let monitors = recorder.as_ref().map(|rec| {
            let m = MonitorSet::standard(u32::from(self.group), LIVENESS_BOUND.as_micros());
            m.attach(rec);
            m
        });

        let handles: Rc<RefCell<Vec<SwitchHandle>>> = Rc::default();
        let handles_in = Rc::clone(&handles);
        let plan = self.switch_plan();
        let scripted = plan.len();
        let stack = self.stack;
        let mut spec = GroupSpec::new(self.group)
            .seed(seed ^ 0x5eed_5eed)
            .stack_factory(move |p, _, ids| {
                let oracle: Box<dyn Oracle> = if p == ProcessId(0) {
                    Box::new(ManualOracle::new(plan.clone()))
                } else {
                    Box::new(NeverOracle)
                };
                let (stack, handle) = build_stack(stack, ids, oracle, tracer.as_deref());
                handles_in.borrow_mut().push(handle);
                stack
            })
            .sends(schedule.into_sends());
        if let Some(rec) = &recorder {
            spec = spec.recorder(rec.clone());
        }
        Built { spec, handles, monitors, scheduled, scripted, gen_ns }
    }

    /// The simulated medium, wrapped when traced.
    pub fn medium(&self, tracer: Option<&Tracer>) -> Box<dyn Medium> {
        let Transport::SimBus { loss_permille } = self.transport else {
            panic!("{} does not run on the simulator", self.name);
        };
        let mut medium: Box<dyn Medium> = Box::new(SharedBus::new(EthernetConfig::default()));
        if loss_permille > 0 {
            medium = Box::new(Lossy::new(medium, f64::from(loss_permille) / 1000.0));
        }
        match tracer {
            Some(t) => t.medium(medium),
            None => medium,
        }
    }

    /// Builds the simulated group from a spec.
    pub fn sim_builder(&self, spec: GroupSpec, tracer: Option<&Tracer>) -> GroupSimBuilder {
        GroupSimBuilder::from_spec(spec)
            .service_time(SimTime::from_micros(150))
            .medium(self.medium(tracer))
    }
}

/// A generated workload, ready to hand to a driver.
pub struct Built {
    /// The transport-independent group description.
    pub spec: GroupSpec,
    /// One switch handle per process, filled when the driver builds stacks.
    pub handles: Rc<RefCell<Vec<SwitchHandle>>>,
    /// The standard monitors, when the workload is observed.
    pub monitors: Option<MonitorSet>,
    /// Scheduled send instants per process, in send order.
    pub scheduled: Vec<Vec<SimTime>>,
    /// Switches process 0 is scripted to make.
    pub scripted: usize,
    /// Host nanoseconds spent generating the traffic schedule.
    pub gen_ns: u64,
}

fn build_stack(
    kind: StackKind,
    ids: &mut IdGen,
    oracle: Box<dyn Oracle>,
    tracer: Option<&Tracer>,
) -> (Stack, SwitchHandle) {
    let wrap = |layer: Box<dyn Layer>| match tracer {
        Some(t) => t.layer(layer),
        None => layer,
    };
    match kind {
        StackKind::Hybrid => {
            let seq = Stack::with_ids(vec![wrap(Box::new(SeqOrderLayer::new(ProcessId(0))))], ids);
            let token = Stack::with_ids(
                vec![wrap(Box::new(TokenOrderLayer::with_idle_hold(SimTime::from_millis(1))))],
                ids,
            );
            let (layer, handle) = SwitchLayer::new(SwitchConfig::default(), seq, token, oracle);
            (Stack::with_ids(vec![wrap(Box::new(layer))], ids), handle)
        }
        StackKind::HybridFt => {
            let seq = Stack::with_ids(
                vec![
                    wrap(Box::new(SeqOrderLayer::new(ProcessId(0)))),
                    wrap(Box::new(FifoLayer::new())),
                    wrap(Box::new(ReliableLayer::new())),
                ],
                ids,
            );
            let token = Stack::with_ids(
                vec![
                    wrap(Box::new(TokenOrderLayer::with_idle_hold(FT_IDLE_HOLD))),
                    wrap(Box::new(ReliableLayer::new())),
                ],
                ids,
            );
            let control = Stack::with_ids(vec![wrap(Box::new(ReliableLayer::new()))], ids);
            // The fault campaign's switch configuration.
            let cfg = SwitchConfig {
                variant: SwitchVariant::TokenRing { idle_hold: SimTime::from_millis(10) },
                observe_interval: SimTime::from_millis(50),
                phase_timeout: SimTime::from_millis(600),
                retransmit_base: SimTime::from_millis(40),
                retransmit_max: SimTime::from_millis(160),
                token_regen: SimTime::from_millis(100),
                ..SwitchConfig::default()
            };
            let (layer, handle) = SwitchLayer::new(cfg, seq, token, oracle);
            let layer = layer.with_control_stack(control);
            (Stack::with_ids(vec![wrap(Box::new(layer))], ids), handle)
        }
    }
}
