//! Benchmark-side layer and medium wrappers that time every call.
//!
//! A [`TimedLayer`] forwards each [`Layer`] method to the layer it wraps,
//! including the composite hooks `route_timer` and `launch_nested`, and a
//! [`TimedMedium`] forwards both `transmit` and `transmit_into`. Neither
//! changes what the wrapped object does, so a traced run must reproduce the
//! untraced run's deterministic outputs exactly.
//!
//! Self time is a wrapper's time minus the time of the wrappers nested
//! inside it (the switch layer's sub-stack and control-stack layers). A
//! thread-local stack of child-time accumulators tracks the nesting, so
//! the same wrappers work on the simulator's single thread and on the UDP
//! runtime's node threads; totals are shared atomics.

use ps_bytes::Bytes;
use ps_simnet::{DetRng, Medium, NodeId, SimTime, TxPlan};
use ps_stack::{Frame, Layer, LayerCtx, LayerId};
use ps_trace::ProcessId;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Calls and self time of one layer kind (all instances, all threads).
#[derive(Debug, Default)]
pub struct Stat {
    calls: AtomicU64,
    self_ns: AtomicU64,
}

impl Stat {
    /// Calls made into the wrapped objects.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Nanoseconds spent in the wrapped objects, minus nested wrappers.
    pub fn self_ns(&self) -> u64 {
        self.self_ns.load(Ordering::Relaxed)
    }
}

thread_local! {
    /// One accumulator per open wrapper call: time its nested wrappers took.
    static NESTED_NS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn timed<R>(stat: &Stat, f: impl FnOnce() -> R) -> R {
    NESTED_NS.with(|n| n.borrow_mut().push(0));
    let start = Instant::now();
    let r = f();
    let spent = start.elapsed().as_nanos() as u64;
    let nested = NESTED_NS.with(|n| {
        let mut n = n.borrow_mut();
        let nested = n.pop().expect("timed call pushed its accumulator");
        if let Some(parent) = n.last_mut() {
            *parent += spent;
        }
        nested
    });
    stat.calls.fetch_add(1, Ordering::Relaxed);
    stat.self_ns.fetch_add(spent.saturating_sub(nested), Ordering::Relaxed);
    r
}

/// The per-run registry of layer and medium statistics.
#[derive(Debug, Default)]
pub struct Tracer {
    layers: Mutex<BTreeMap<&'static str, Arc<Stat>>>,
    medium: Arc<Stat>,
}

impl Tracer {
    /// Wraps `layer` so its calls count under its own name.
    pub fn layer(&self, layer: Box<dyn Layer>) -> Box<dyn Layer> {
        let stat = Arc::clone(
            self.layers.lock().expect("tracer registry poisoned").entry(layer.name()).or_default(),
        );
        Box::new(TimedLayer { inner: layer, stat })
    }

    /// Wraps the simulated medium.
    pub fn medium(&self, medium: Box<dyn Medium>) -> Box<dyn Medium> {
        Box::new(TimedMedium { inner: medium, stat: Arc::clone(&self.medium) })
    }

    /// Statistics of the layer named `name`, if one was wrapped.
    pub fn layer_stat(&self, name: &str) -> Option<Arc<Stat>> {
        self.layers.lock().expect("tracer registry poisoned").get(name).cloned()
    }

    /// Self time summed over every wrapped layer.
    pub fn layers_self_ns(&self) -> u64 {
        self.layers.lock().expect("tracer registry poisoned").values().map(|s| s.self_ns()).sum()
    }

    /// The medium's statistics.
    pub fn medium_stat(&self) -> &Stat {
        &self.medium
    }
}

struct TimedLayer {
    inner: Box<dyn Layer>,
    stat: Arc<Stat>,
}

impl Layer for TimedLayer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_launch(&mut self, ctx: &mut LayerCtx<'_>) {
        timed(&self.stat, || self.inner.on_launch(ctx))
    }
    fn on_restart(&mut self, ctx: &mut LayerCtx<'_>) {
        timed(&self.stat, || self.inner.on_restart(ctx))
    }
    fn on_down(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
        timed(&self.stat, || self.inner.on_down(frame, ctx))
    }
    fn on_up(&mut self, src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
        timed(&self.stat, || self.inner.on_up(src, bytes, ctx))
    }
    fn on_timer(&mut self, token: u32, ctx: &mut LayerCtx<'_>) {
        timed(&self.stat, || self.inner.on_timer(token, ctx))
    }
    fn route_timer(&mut self, id: LayerId, token: u32, ctx: &mut LayerCtx<'_>) -> bool {
        timed(&self.stat, || self.inner.route_timer(id, token, ctx))
    }
    fn launch_nested(&mut self, ctx: &mut LayerCtx<'_>) {
        timed(&self.stat, || self.inner.launch_nested(ctx))
    }
}

struct TimedMedium {
    inner: Box<dyn Medium>,
    stat: Arc<Stat>,
}

impl Medium for TimedMedium {
    fn transmit(
        &mut self,
        src: NodeId,
        dests: &[NodeId],
        size_bytes: usize,
        now: SimTime,
        rng: &mut DetRng,
    ) -> TxPlan {
        timed(&self.stat, || self.inner.transmit(src, dests, size_bytes, now, rng))
    }
    fn transmit_into(
        &mut self,
        src: NodeId,
        dests: &[NodeId],
        size_bytes: usize,
        now: SimTime,
        rng: &mut DetRng,
        plan: &mut TxPlan,
    ) {
        timed(&self.stat, || self.inner.transmit_into(src, dests, size_bytes, now, rng, plan))
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
