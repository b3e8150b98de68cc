//! Linear-time correctness checks over a finished run.
//!
//! Pairwise property checkers do not finish on tens of thousands of
//! messages, so agreement is checked the direct way: index every sent
//! message once, count each member's deliveries of it, and compare every
//! member's delivery sequence with the first member's, element by element.

use ps_core::SwitchHandle;
use ps_obs::MonitorSet;
use ps_simnet::SimTime;
use ps_stack::DeliveryRecord;
use ps_trace::{MsgId, ProcessId};
use std::collections::HashMap;

/// Outcome of the checks on one run.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Messages the workload sent.
    pub attempted: u64,
    /// Sent messages not delivered exactly once to every member.
    pub failed: u64,
    /// Human-readable reasons the run is wrong; empty when correct.
    pub problems: Vec<String>,
}

/// The messages a schedule produces: sender `p`'s `k`-th scheduled send
/// carries sequence number `k + 1`.
pub fn scheduled_ids(scheduled: &[Vec<SimTime>]) -> Vec<(MsgId, SimTime)> {
    scheduled
        .iter()
        .enumerate()
        .flat_map(|(p, times)| {
            times
                .iter()
                .enumerate()
                .map(move |(k, &at)| (MsgId { sender: ProcessId(p as u16), seq: k as u64 + 1 }, at))
        })
        .collect()
}

/// Checks exactly-once delivery of every scheduled message to every
/// member, in one common order, and no delivery of anything unsent.
pub fn deliveries(
    group: usize,
    sent: &[(MsgId, SimTime)],
    sends_observed: usize,
    log: &[DeliveryRecord],
) -> Verdict {
    let mut v = Verdict { attempted: sent.len() as u64, ..Verdict::default() };
    if sends_observed != sent.len() {
        v.problems.push(format!("{} sends scheduled, {sends_observed} made", sent.len()));
    }
    let index: HashMap<MsgId, usize> = sent.iter().enumerate().map(|(i, (m, _))| (*m, i)).collect();
    let mut counts = vec![0u32; sent.len() * group];
    let mut orders: Vec<Vec<usize>> = vec![Vec::with_capacity(sent.len()); group];
    let mut spurious = 0usize;
    for d in log {
        match index.get(&d.msg) {
            Some(&i) if d.process.index() < group => {
                counts[i * group + d.process.index()] += 1;
                orders[d.process.index()].push(i);
            }
            _ => spurious += 1,
        }
    }
    if spurious > 0 {
        v.problems.push(format!("{spurious} deliveries of messages never sent"));
    }
    v.failed = counts.chunks(group).filter(|c| c.iter().any(|&n| n != 1)).count() as u64;
    if v.failed > 0 {
        v.problems.push(format!("{} messages not delivered exactly once everywhere", v.failed));
    }
    if let Some(p) = (1..group).find(|&p| orders[p] != orders[0]) {
        v.problems.push(format!("process {p} delivered in another order than process 0"));
    }
    v
}

/// Checks that every member completed every scripted switch and ended on
/// the same protocol.
pub fn switches(handles: &[SwitchHandle], scripted: usize, v: &mut Verdict) {
    for (p, h) in handles.iter().enumerate() {
        let s = h.snapshot();
        if s.records.len() != scripted || s.switching {
            v.problems.push(format!(
                "process {p} completed {} of {scripted} scripted switches (switching: {})",
                s.records.len(),
                s.switching
            ));
        }
    }
    let current: Vec<usize> = handles.iter().map(SwitchHandle::current).collect();
    if current.windows(2).any(|w| w[0] != w[1]) {
        v.problems.push(format!("members ended on different protocols: {current:?}"));
    }
}

/// Checks that the attached monitors saw no violation.
pub fn monitors(monitors: Option<&MonitorSet>, v: &mut Verdict) {
    if let Some(m) = monitors {
        let violations = m.finish();
        if let Some(first) = violations.first() {
            v.problems.push(format!("{} monitor violations, first: {first:?}", violations.len()));
        }
    }
}
