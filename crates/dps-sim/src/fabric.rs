//! The fabric abstraction: what the engine believes about the machine.
//!
//! The virtual-time engine in [`crate::engine`] is generic over a [`Fabric`]
//! that answers two questions: *how long do transfers take* and *how much
//! CPU is left for computation*. The simulator's fabric ([`SimFabric`])
//! implements the paper's models — flow-level `t = l + s/b` network with
//! equal bandwidth shares and a linear CPU cost per concurrent transfer. The
//! `testbed` crate implements a much more detailed, stochastic fabric; the
//! *difference* between the two is exactly what the paper's validation
//! measures.

use desim::{SimDuration, SimTime};
use netmodel::network::NetStats;
use netmodel::{NetEvent, NetParams, Network, NodeId, Sharing};

/// Machine model behind the engine (see module docs).
pub trait Fabric {
    /// Begins a transfer of `bytes` payload bytes; returns a handle reported
    /// back by [`advance`](Fabric::advance) on completion.
    fn start_transfer(&mut self, now: SimTime, src: NodeId, dst: NodeId, bytes: u64) -> u64;

    /// Next instant at which the fabric's state changes on its own.
    fn next_event_time(&mut self) -> Option<SimTime>;

    /// Advances to `now`, returning handles of completed transfers in
    /// deterministic order.
    fn advance(&mut self, now: SimTime) -> Vec<u64>;

    /// Fraction of `node`'s processing power currently available to
    /// computation, after communication handling costs.
    fn cpu_available(&self, node: NodeId) -> f64;

    /// Appends to `out` every node whose [`cpu_available`] inputs may have
    /// changed since the previous call (nodes may repeat) and returns
    /// `true`. Returning `false` means the fabric cannot tell, and the
    /// engine must re-examine every node. Fabrics whose availability
    /// depends only on per-node communication counts implement this so the
    /// engine's per-event CPU recomputation is O(changed nodes), not
    /// O(all nodes).
    ///
    /// [`cpu_available`]: Fabric::cpu_available
    fn comm_dirty_nodes(&mut self, out: &mut Vec<NodeId>) -> bool {
        let _ = out;
        false
    }

    /// Transforms a nominal computation duration into the duration this
    /// machine actually takes (noise/perturbation hook; identity for the
    /// simulator's idealized model).
    fn compute_time(&mut self, node: NodeId, nominal: SimDuration) -> SimDuration;

    /// Efficiency penalty when `k` atomic steps share one processor
    /// (context-switch overhead hook). The effective per-step rate is
    /// `available / (k * sharing_penalty(k))`; 1.0 means ideal processor
    /// sharing, the simulator's assumption.
    fn sharing_penalty(&self, k: usize) -> f64 {
        let _ = k;
        1.0
    }

    /// Cumulative transfer statistics.
    fn net_stats(&self) -> NetStats;

    /// An independent deep copy of the fabric's current state, for engines
    /// that snapshot and fork a running simulation. `None` — the default —
    /// marks the fabric as unforkable; checkpoints over it cannot fork.
    /// Takes `&mut self` so implementations may compact internal state
    /// (dead heap entries) before copying.
    fn fork_fabric(&mut self) -> Option<Box<dyn Fabric + Send>> {
        None
    }

    /// Capacity windows scheduled on this fabric (fault plans, straggler
    /// studies), as `(node, up_factor, down_factor, from, to)` tuples in a
    /// deterministic order. The engine copies these into the event journal
    /// at start-up so a journal is self-describing about the rate edits the
    /// run was subjected to. Default: none.
    fn scheduled_windows(&self) -> Vec<(NodeId, f64, f64, SimTime, SimTime)> {
        Vec::new()
    }

    /// Whether [`compute_time`](Fabric::compute_time) is a pure function of
    /// its arguments. The engine is serial and no longer reads this; it
    /// remains only so existing implementations that forward it keep
    /// compiling, and will be removed.
    fn parallel_commit_safe(&self) -> bool {
        false
    }
}

/// The paper's machine model: [`netmodel`] flow network + linear CPU cost of
/// communications.
pub struct SimFabric {
    net: Network,
    params: NetParams,
}

impl SimFabric {
    /// Creates an empty instance.
    pub fn new(params: NetParams) -> SimFabric {
        SimFabric {
            net: Network::new(params, Sharing::EqualSplit),
            params,
        }
    }

    /// Variant with max-min fair bandwidth sharing (model ablation).
    pub fn with_sharing(params: NetParams, sharing: Sharing) -> SimFabric {
        SimFabric {
            net: Network::new(params, sharing),
            params,
        }
    }

    /// The underlying network model.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Concrete-typed fork (see [`Fabric::fork_fabric`]); used by wrapper
    /// fabrics that need to rebuild themselves around the copy.
    pub(crate) fn fork_sim(&mut self) -> SimFabric {
        SimFabric {
            net: self.net.snapshot(),
            params: self.params,
        }
    }

    /// Overrides one node's link capacities (heterogeneous clusters,
    /// straggler studies).
    pub fn set_node_capacity(&mut self, node: NodeId, up: f64, down: f64) {
        self.net.set_node_capacity(node, up, down);
    }

    /// Schedules a temporary capacity multiplier on one node's ports over
    /// `[from, to)` (fault injection; see the `faults` crate).
    pub fn schedule_capacity_window(
        &mut self,
        node: NodeId,
        up_factor: f64,
        down_factor: f64,
        from: SimTime,
        to: SimTime,
    ) {
        self.net
            .schedule_capacity_window(node, up_factor, down_factor, from, to);
    }
}

impl Fabric for SimFabric {
    fn start_transfer(&mut self, now: SimTime, src: NodeId, dst: NodeId, bytes: u64) -> u64 {
        self.net.start_flow(now, src, dst, bytes).0
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        self.net.next_event_time()
    }

    fn advance(&mut self, now: SimTime) -> Vec<u64> {
        self.net
            .advance(now)
            .into_iter()
            .map(|NetEvent::Completed(id)| id.0)
            .collect()
    }

    fn cpu_available(&self, node: NodeId) -> f64 {
        let (n_in, n_out) = self.net.comm_counts(node);
        let used = n_in as f64 * self.params.cpu_in_cost + n_out as f64 * self.params.cpu_out_cost;
        // Communications are kernel work; they can consume most but never
        // quite all of the processor — running operations always make some
        // progress.
        (1.0 - used).max(0.05)
    }

    fn comm_dirty_nodes(&mut self, out: &mut Vec<NodeId>) -> bool {
        self.net.drain_comm_dirty(out);
        true
    }

    fn compute_time(&mut self, _node: NodeId, nominal: SimDuration) -> SimDuration {
        nominal
    }

    fn net_stats(&self) -> NetStats {
        self.net.stats()
    }

    fn fork_fabric(&mut self) -> Option<Box<dyn Fabric + Send>> {
        Some(Box::new(self.fork_sim()))
    }

    fn scheduled_windows(&self) -> Vec<(NodeId, f64, f64, SimTime, SimTime)> {
        self.net.scheduled_windows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_available_decreases_with_comm_load() {
        let mut p = NetParams::fast_ethernet();
        p.latency = SimDuration::ZERO;
        let cin = p.cpu_in_cost;
        let mut f = SimFabric::new(p);
        assert_eq!(f.cpu_available(NodeId(1)), 1.0);
        f.start_transfer(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        f.advance(SimTime::ZERO); // promote into bandwidth phase
        let avail = f.cpu_available(NodeId(1));
        assert!((avail - (1.0 - cin)).abs() < 1e-12, "avail = {avail}");
        assert!(f.cpu_available(NodeId(0)) < 1.0);
        assert_eq!(f.cpu_available(NodeId(7)), 1.0);
    }

    #[test]
    fn cpu_available_floors_at_5_percent() {
        let mut p = NetParams::fast_ethernet();
        p.latency = SimDuration::ZERO;
        p.cpu_in_cost = 0.3;
        let mut f = SimFabric::new(p);
        for s in 1..6 {
            f.start_transfer(SimTime::ZERO, NodeId(s), NodeId(0), 1_000_000);
        }
        f.advance(SimTime::ZERO);
        assert_eq!(f.cpu_available(NodeId(0)), 0.05);
    }

    #[test]
    fn transfers_complete_through_fabric_interface() {
        let mut f = SimFabric::new(NetParams::ideal());
        let h = f.start_transfer(SimTime::ZERO, NodeId(0), NodeId(1), 1234);
        let mut done = Vec::new();
        while let Some(t) = f.next_event_time() {
            done.extend(f.advance(t));
        }
        assert_eq!(done, vec![h]);
        assert_eq!(f.net_stats().flows_completed, 1);
    }

    #[test]
    fn identity_compute_time() {
        let mut f = SimFabric::new(NetParams::ideal());
        let d = SimDuration::from_millis(5);
        assert_eq!(f.compute_time(NodeId(0), d), d);
        assert_eq!(f.sharing_penalty(4), 1.0);
    }
}
