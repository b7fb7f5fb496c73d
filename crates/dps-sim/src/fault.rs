//! Fault injection at the machine-model layer: a fabric that plays a
//! [`FaultPlan`] against the paper's simulator.
//!
//! [`FaultFabric`] wraps [`SimFabric`] and injects the plan's *rate*
//! perturbations directly into the models the engine already consults:
//!
//! * `LinkDegrade` windows become [`netmodel`] capacity windows — the
//!   equal-share fairness solver re-splits bandwidth at the window
//!   boundaries, so concurrent transfers through a degraded node slow down
//!   and everything sharing its ports feels it;
//! * `NodeSlowdown` windows scale [`Fabric::cpu_available`] — the engine's
//!   processor-sharing rates drop for the window's duration and recover
//!   afterwards. Window boundaries are reported through
//!   [`Fabric::next_event_time`] and [`Fabric::comm_dirty_nodes`], so the
//!   engine re-prices running steps exactly at the boundary.
//!
//! Crashes and preemptions are **not** fabric-level events: removing a node
//! under running atomic steps would deadlock the DPS graph (posts to dead
//! servers). They are realized at the application layer through the
//! existing DPS thread-removal machinery at the next iteration boundary
//! (see the `workload` crate) and at the cluster-server layer through job
//! interruption — the fabric only carries the continuous perturbations.
//!
//! An empty plan degrades to the plain [`SimFabric`] bit-for-bit: every
//! multiplier is exactly `1.0` and no extra event times are reported.

use desim::{SimDuration, SimTime};
use faults::{FaultPlan, RateTimeline};
use netmodel::network::NetStats;
use netmodel::{NetParams, NodeId, Sharing};

use crate::fabric::{Fabric, SimFabric};

/// A [`SimFabric`] with a [`FaultPlan`]'s rate perturbations injected.
pub struct FaultFabric {
    inner: SimFabric,
    cpu: RateTimeline,
    now: SimTime,
    /// Nodes whose CPU multiplier changed since the last
    /// [`Fabric::comm_dirty_nodes`] drain.
    changed: Vec<NodeId>,
    /// Scratch buffer for draining the timeline's raw node indices.
    scratch: Vec<u32>,
}

impl FaultFabric {
    /// A fabric over the paper's machine model with `plan` injected.
    pub fn new(params: NetParams, plan: &FaultPlan) -> FaultFabric {
        FaultFabric::with_sharing(params, Sharing::EqualSplit, plan)
    }

    /// Variant selecting the bandwidth-sharing discipline.
    pub fn with_sharing(params: NetParams, sharing: Sharing, plan: &FaultPlan) -> FaultFabric {
        let mut inner = SimFabric::with_sharing(params, sharing);
        for w in plan.link_windows() {
            inner.schedule_capacity_window(NodeId(w.node), w.factor, w.factor, w.from, w.to);
        }
        FaultFabric {
            inner,
            cpu: RateTimeline::new(plan.cpu_windows()),
            now: SimTime::ZERO,
            changed: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// The wrapped fabric.
    pub fn inner(&self) -> &SimFabric {
        &self.inner
    }

    /// Effective CPU-speed multiplier of `node` at the fabric's current
    /// time.
    pub fn cpu_factor(&self, node: NodeId) -> f64 {
        self.cpu.factor_at(node.0, self.now)
    }
}

impl Fabric for FaultFabric {
    fn start_transfer(&mut self, now: SimTime, src: NodeId, dst: NodeId, bytes: u64) -> u64 {
        self.inner.start_transfer(now, src, dst, bytes)
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        let boundary = self.cpu.next_boundary_after(self.now);
        match (self.inner.next_event_time(), boundary) {
            (None, x) | (x, None) => x,
            (Some(a), Some(b)) => Some(a.min(b)),
        }
    }

    fn advance(&mut self, now: SimTime) -> Vec<u64> {
        // CPU windows crossed by this advance change those nodes' rates;
        // report them as dirty so the engine re-prices their steps.
        if !self.cpu.is_empty() {
            self.scratch.clear();
            self.cpu.changed_nodes(self.now, now, &mut self.scratch);
            self.changed.extend(self.scratch.drain(..).map(NodeId));
        }
        self.now = now;
        self.inner.advance(now)
    }

    fn cpu_available(&self, node: NodeId) -> f64 {
        let base = self.inner.cpu_available(node);
        let f = self.cpu.factor_at(node.0, self.now);
        if f == 1.0 {
            base
        } else {
            base * f
        }
    }

    fn comm_dirty_nodes(&mut self, out: &mut Vec<NodeId>) -> bool {
        self.inner.comm_dirty_nodes(out);
        out.append(&mut self.changed);
        true
    }

    fn compute_time(&mut self, node: NodeId, nominal: SimDuration) -> SimDuration {
        // Slowdowns act through the processor-sharing *rate*
        // (cpu_available), which tracks window boundaries mid-step; the
        // nominal work itself is unchanged.
        self.inner.compute_time(node, nominal)
    }

    fn net_stats(&self) -> NetStats {
        self.inner.net_stats()
    }

    fn scheduled_windows(&self) -> Vec<(NodeId, f64, f64, SimTime, SimTime)> {
        // Link windows live in the wrapped network; CPU-slowdown windows
        // live in this wrapper's timeline. Journal both, slowdowns encoded
        // as windows with an unscaled up-link (`up_factor == 1.0` marks a
        // CPU window; the plan never schedules asymmetric link windows).
        let mut out = self.inner.scheduled_windows();
        out.extend(
            self.cpu
                .windows()
                .iter()
                .map(|w| (NodeId(w.node), 1.0, w.factor, w.from, w.to)),
        );
        out
    }

    fn fork_fabric(&mut self) -> Option<Box<dyn Fabric + Send>> {
        Some(Box::new(FaultFabric {
            inner: self.inner.fork_sim(),
            cpu: self.cpu.clone(),
            now: self.now,
            changed: self.changed.clone(),
            scratch: Vec::new(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faults::{CheckpointSpec, FaultEvent, FaultKind};

    fn plan_with(events: Vec<FaultEvent>) -> FaultPlan {
        FaultPlan::new(events, CheckpointSpec::none())
    }

    #[test]
    fn empty_plan_matches_plain_fabric() {
        let params = NetParams::fast_ethernet();
        let mut plain = SimFabric::new(params);
        let mut faulty = FaultFabric::new(params, &FaultPlan::none());
        for f in [&mut plain as &mut dyn Fabric, &mut faulty] {
            f.start_transfer(SimTime::ZERO, NodeId(0), NodeId(1), 100_000);
        }
        loop {
            let a = plain.next_event_time();
            let b = faulty.next_event_time();
            assert_eq!(a, b);
            let Some(t) = a else { break };
            assert_eq!(plain.advance(t), faulty.advance(t));
            for n in 0..4 {
                assert_eq!(
                    plain.cpu_available(NodeId(n)),
                    faulty.cpu_available(NodeId(n))
                );
            }
        }
    }

    #[test]
    fn slowdown_window_scales_cpu_and_reports_boundaries() {
        let p = plan_with(vec![FaultEvent {
            at: SimTime(1_000),
            node: 2,
            kind: FaultKind::NodeSlowdown {
                factor: 0.5,
                window: SimDuration(500),
            },
        }]);
        let mut f = FaultFabric::new(NetParams::ideal(), &p);
        assert_eq!(f.cpu_available(NodeId(2)), 1.0);
        // The window start is the next fabric event.
        assert_eq!(f.next_event_time(), Some(SimTime(1_000)));
        f.advance(SimTime(1_000));
        assert_eq!(f.cpu_available(NodeId(2)), 0.5);
        assert_eq!(f.cpu_available(NodeId(1)), 1.0);
        assert_eq!(f.cpu_factor(NodeId(2)), 0.5);
        // The node is reported dirty so the engine re-prices its steps.
        let mut dirty = Vec::new();
        assert!(f.comm_dirty_nodes(&mut dirty));
        assert!(dirty.contains(&NodeId(2)));
        // Window end restores full speed.
        assert_eq!(f.next_event_time(), Some(SimTime(1_500)));
        f.advance(SimTime(1_500));
        assert_eq!(f.cpu_available(NodeId(2)), 1.0);
        assert_eq!(f.next_event_time(), None);
    }

    #[test]
    fn link_degrade_slows_transfers_through_netmodel() {
        let mut params = NetParams::ideal();
        params.up_bytes_per_sec = 1e6;
        params.down_bytes_per_sec = 1e6;
        let p = plan_with(vec![FaultEvent {
            at: SimTime(0),
            node: 0,
            kind: FaultKind::LinkDegrade {
                factor: 0.5,
                window: SimDuration::from_secs(100),
            },
        }]);
        let mut f = FaultFabric::new(params, &p);
        let h = f.start_transfer(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        let mut done = Vec::new();
        let mut last = SimTime::ZERO;
        while let Some(t) = f.next_event_time() {
            last = t;
            done.extend(f.advance(t));
            if !done.is_empty() {
                break;
            }
        }
        assert_eq!(done, vec![h]);
        // 1 MB at 0.5 MB/s: 2 s instead of 1 s.
        assert_eq!(last, SimTime(2_000_000_000));
    }
}
