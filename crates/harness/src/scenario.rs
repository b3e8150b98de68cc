//! One scenario description, one runner, any medium.
//!
//! Every harness run — the paper's figures and tables, the traced and
//! monitored switch runs, the chaos matrix, the campaign grid, and the
//! sim-vs-real comparison — is the same shape: a group of identical
//! stacks, a seeded list of application sends, a medium, and the
//! observability attached to it. A [`Scenario`] states that shape as
//! data; [`run`] builds the recorder, the standard streaming monitors and
//! the per-process stacks, hands them to the medium's [`Driver`], runs to
//! the horizon, and returns a [`RunOutcome`].
//!
//! The runner knows nothing about its callers. What differs between them
//! — seed derivations, which medium and topology, CPU service times, an
//! extra event sink, the sampler an oracle reads — is a value in the
//! scenario, never a branch here. The medium is a type parameter
//! ([`SimNet`] for the simulator, [`NetConfig`] for UDP loopback), so the
//! outcome carries the concrete driver and its medium-specific readouts
//! (for example [`GroupSim::net_stats`]).

use ps_bytes::Bytes;
use ps_core::{NeverOracle, Oracle, SwitchHandle};
use ps_net::{NetConfig, UdpGroup};
use ps_obs::{
    EventSink, LoadSample, MetricsSampler, MonitorSet, PostmortemBundle, Recorder, TimedEvent,
    Violation,
};
use ps_prof::Profiler;
use ps_simnet::{Medium, SimTime, Topology};
use ps_stack::{Driver, GroupSim, GroupSimBuilder, GroupSpec, IdGen, Stack};
use ps_trace::ProcessId;
use std::cell::RefCell;
use std::sync::Arc;

/// Builds one process's stack, plus its switch handle if the stack
/// switches. Called once per process, in process order.
pub type ProcessFactory = Box<dyn Fn(ProcessId, &mut IdGen) -> (Stack, Option<SwitchHandle>)>;

/// The switch decider's oracle: process 0 gets the one `decider` builds,
/// every other process a [`NeverOracle`].
pub fn oracle_at_p0(p: ProcessId, decider: impl FnOnce() -> Box<dyn Oracle>) -> Box<dyn Oracle> {
    if p == ProcessId(0) {
        decider()
    } else {
        Box::new(NeverOracle)
    }
}

/// A fail-stop crash and the later recovery of one process.
#[derive(Debug, Clone, Copy)]
pub struct Crash {
    /// The process that fail-stops.
    pub victim: ProcessId,
    /// Crash instant.
    pub at: SimTime,
    /// Recovery instant.
    pub back: SimTime,
}

/// The simulated medium: the discrete-event engine of `ps-simnet`.
#[derive(Default)]
pub struct SimNet {
    /// The network model (`None` = the builder's default: a 100 µs
    /// point-to-point wire, or a segmented bus when a topology is set).
    pub medium: Option<Box<dyn Medium>>,
    /// Multi-segment topology. Applied before `medium`, so an explicit
    /// medium wins over the topology's default segmented bus.
    pub topology: Option<Arc<Topology>>,
    /// Per-event CPU service time of every node (`None` = engine default).
    pub service_time: Option<SimTime>,
    /// Crash/recover schedule, applied after the group is built.
    pub crashes: Vec<Crash>,
}

impl SimNet {
    /// The simulator over `medium`, with every other knob at its default.
    pub fn over(medium: Box<dyn Medium>) -> Self {
        Self { medium: Some(medium), ..Self::default() }
    }
}

/// A medium a [`Scenario`] can run on.
pub trait Transport {
    /// The running group this medium produces.
    type Driver: Driver;
    /// Starts the group described by `spec`; `prof` is the host-time
    /// profiler the run attributes into (media without an engine
    /// profiler ignore it).
    fn launch(self, spec: GroupSpec, prof: &Profiler) -> Self::Driver;
}

impl Transport for SimNet {
    type Driver = GroupSim;

    fn launch(self, spec: GroupSpec, prof: &Profiler) -> GroupSim {
        let mut b = GroupSimBuilder::from_spec(spec).prof(prof.clone());
        if let Some(t) = self.service_time {
            b = b.service_time(t);
        }
        if let Some(topo) = self.topology {
            b = b.topology(topo);
        }
        if let Some(medium) = self.medium {
            b = b.medium(medium);
        }
        let mut sim = b.build();
        for c in self.crashes {
            sim.schedule_crash(c.at, c.victim);
            sim.schedule_recover(c.back, c.victim);
        }
        sim
    }
}

impl Transport for NetConfig {
    type Driver = UdpGroup;

    fn launch(self, spec: GroupSpec, _prof: &Profiler) -> UdpGroup {
        UdpGroup::launch(spec, self)
    }
}

/// One harness run, described as data.
pub struct Scenario<T> {
    /// Group size; processes are `ProcessId(0..group)`.
    pub group: u16,
    /// The driver's seed, already derived by the caller.
    pub seed: u64,
    /// Scheduled application multicasts: `(at, sender, body)`.
    pub sends: Vec<(SimTime, ProcessId, Bytes)>,
    /// Per-process stack factory.
    pub factory: ProcessFactory,
    /// Where the group runs.
    pub medium: T,
    /// Instant the run stops and is read out.
    pub horizon: SimTime,
    /// Recorder ring capacity; 0 runs without a recorder (and so with
    /// blind monitors).
    pub ring_capacity: usize,
    /// Switch-liveness bound of the streaming monitors.
    pub liveness_bound: SimTime,
    /// Load sampler the run feeds (keep a clone for oracles that read it).
    pub sampler: Option<MetricsSampler>,
    /// Extra event sinks, subscribed after the monitors.
    pub sinks: Vec<Box<dyn EventSink>>,
    /// Host-time profiler (disabled unless the caller profiles).
    pub prof: Profiler,
}

impl<T> Scenario<T> {
    /// A scenario with no sends, no recorder, no sampler, no extra sinks,
    /// profiling off, and no liveness bound; set the rest with struct
    /// update syntax.
    pub fn new<F>(group: u16, seed: u64, horizon: SimTime, medium: T, factory: F) -> Self
    where
        F: Fn(ProcessId, &mut IdGen) -> (Stack, Option<SwitchHandle>) + 'static,
    {
        Self {
            group,
            seed,
            sends: Vec::new(),
            factory: Box::new(factory),
            medium,
            horizon,
            ring_capacity: 0,
            liveness_bound: SimTime::MAX,
            sampler: None,
            sinks: Vec::new(),
            prof: Profiler::disabled(),
        }
    }
}

/// What a finished run produced.
pub struct RunOutcome<D> {
    /// The finished driver, for medium-specific readouts.
    pub driver: D,
    /// Switch handles of the processes whose stacks switch, in process
    /// order (empty for non-switching stacks).
    pub handles: Vec<SwitchHandle>,
    /// Every streaming-monitor violation, sorted by detection time.
    pub violations: Vec<Violation>,
    /// Application messages the monitors saw sent.
    pub sent: usize,
    /// The sampled load series (empty without a sampler).
    pub samples: Vec<LoadSample>,
}

impl<D: Driver> RunOutcome<D> {
    /// The recorder's surviving events, oldest first.
    pub fn events(&self) -> Vec<TimedEvent> {
        self.driver.recorder().snapshot()
    }

    /// Events the recorder ring evicted (the monitors saw them anyway).
    pub fn overwritten(&self) -> u64 {
        self.driver.recorder().overwritten()
    }

    /// Whether some process ended mid-switch, or the processes disagree
    /// on the current protocol.
    pub fn wedged(&self) -> bool {
        let h = &self.handles;
        !h.is_empty()
            && (h.iter().any(SwitchHandle::switching)
                || h.iter().any(|x| x.current() != h[0].current()))
    }

    /// The flight-recorder bundle explaining a failed run.
    pub fn postmortem(&self, reason: &str) -> PostmortemBundle {
        crate::explain::capture_failure(
            reason,
            &self.events(),
            self.overwritten(),
            &self.violations,
            &self.samples,
        )
    }
}

/// Runs `sc` to its horizon and reads it out.
pub fn run<T: Transport>(sc: Scenario<T>) -> RunOutcome<T::Driver> {
    // Harness-phase spans, free no-ops when profiling is off: the engine
    // attributes its own components, these cover the work around it.
    let prof = sc.prof;
    let setup = prof.span(&["harness", "setup"]);
    let recorder = Recorder::with_capacity(sc.ring_capacity);
    let monitors = MonitorSet::standard(u32::from(sc.group), sc.liveness_bound.as_micros());
    monitors.attach(&recorder);
    for sink in sc.sinks {
        recorder.subscribe(sink);
    }

    // Stacks are built here, in process order with a fresh id generator
    // each — exactly as the drivers would — so the handles come straight
    // back without a shared list captured by the driver's factory.
    let mut handles = Vec::new();
    let stacks: Vec<RefCell<Option<Stack>>> = (0..sc.group)
        .map(|p| {
            let (stack, handle) = (sc.factory)(ProcessId(p), &mut IdGen::new());
            handles.extend(handle);
            RefCell::new(Some(stack))
        })
        .collect();
    let mut spec = GroupSpec::new(sc.group)
        .seed(sc.seed)
        .recorder(recorder)
        .sends(sc.sends)
        .stack_factory(move |p, _, _| stacks[p.index()].take().expect("one stack per process"));
    if let Some(sampler) = &sc.sampler {
        spec = spec.sampler(sampler.clone());
    }
    let mut driver = sc.medium.launch(spec, &prof);
    drop(setup);
    {
        let _run = prof.span(&["harness", "run"]);
        driver.run_until(sc.horizon);
    }
    let _finish = prof.span(&["harness", "finish"]);
    RunOutcome {
        handles,
        violations: monitors.finish(),
        sent: monitors.delivery().sent_count(),
        samples: sc.sampler.map(|s| s.samples()).unwrap_or_default(),
        driver,
    }
}
