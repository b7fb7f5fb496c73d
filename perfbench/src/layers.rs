//! The traced run's timers: wrappers around each crate's public traits that
//! delegate every call and add its host time to a per-layer accumulator.
//!
//! Nothing here changes what the program computes. [`TimedFabric`] stands
//! between the `dps-sim` engine and the `netmodel`-backed `SimFabric`,
//! [`TimedWorkload`] and [`TimedSession`] between `cluster-svc` and the
//! `workload` crate's simulator-backed jobs, and [`TimedStream`] between
//! `cluster-svc` and its job stream. Each wrapper forwards to the wrapped
//! value, so a traced run produces byte-identical outputs (the benchmark
//! checks this on every traced operation).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cluster::{EfficiencyProfile, WhatIfSession, Workload};
use cluster_svc::JobSpec;
use desim::{SimDuration, SimTime};
use dps_sim::{Fabric, SimResult};
use netmodel::network::NetStats;
use netmodel::NodeId;

/// Host time and call count of one kind of call. Counters are statistics
/// that publish no other data, so `Relaxed` suffices.
#[derive(Default)]
pub struct Span {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Span {
    /// Runs `f`, adding its host time and one call to the span.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Accumulated host seconds.
    pub fn secs(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Accumulated calls.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// Every span the traced run records, shared by the wrappers of one run.
#[derive(Default)]
pub struct Clocks {
    /// `lu_app::build_lu_app` (flow-graph construction).
    pub build: Span,
    /// `dps_sim::simulate_with_fabric` (the whole engine run).
    pub simulate: Span,
    /// `ClusterService::serve` (the whole service run).
    pub serve: Span,
    /// `WriteAheadLog::build` (framing the decision journal).
    pub wal_build: Span,
    /// `WriteAheadLog::scan` (reading a crashed log back).
    pub wal_scan: Span,
    /// `Fabric` calls into the flow network (`netmodel`).
    pub netmodel: Span,
    /// `Workload::profile` (fixed-allocation simulator runs).
    pub profile: Span,
    /// `Workload::realize` (one run with a varying allocation).
    pub realize: Span,
    /// `Workload::whatif_session` (opening a warm paused run).
    pub session_open: Span,
    /// `WhatIfSession::advance_to_barrier`.
    pub advance: Span,
    /// `WhatIfSession::score_plan` (forked suffix runs).
    pub score: Span,
    /// `WhatIfSession::commit_plan`.
    pub commit: Span,
    /// `Iterator::next` on the service's job stream.
    pub stream: Span,
    /// Simulator steps used by what-if sessions, summed when each closes.
    pub steps_used: AtomicU64,
}

impl Clocks {
    /// Host seconds spent inside `workload` calls.
    pub fn workload_secs(&self) -> f64 {
        [
            &self.profile,
            &self.realize,
            &self.session_open,
            &self.advance,
            &self.score,
            &self.commit,
        ]
        .iter()
        .map(|s| s.secs())
        .sum()
    }
}

/// A [`Fabric`] that times every call into the wrapped one. Forks are
/// wrapped too, so a forked run keeps recording into the same clocks.
pub struct TimedFabric {
    inner: Box<dyn Fabric + Send>,
    clocks: Arc<Clocks>,
}

impl TimedFabric {
    /// Wraps `inner`, recording into `clocks.netmodel`.
    pub fn new(inner: Box<dyn Fabric + Send>, clocks: Arc<Clocks>) -> TimedFabric {
        TimedFabric { inner, clocks }
    }
}

impl Fabric for TimedFabric {
    fn start_transfer(&mut self, now: SimTime, src: NodeId, dst: NodeId, bytes: u64) -> u64 {
        self.clocks
            .netmodel
            .time(|| self.inner.start_transfer(now, src, dst, bytes))
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        self.clocks.netmodel.time(|| self.inner.next_event_time())
    }

    fn advance(&mut self, now: SimTime) -> Vec<u64> {
        self.clocks.netmodel.time(|| self.inner.advance(now))
    }

    fn cpu_available(&self, node: NodeId) -> f64 {
        self.clocks.netmodel.time(|| self.inner.cpu_available(node))
    }

    fn comm_dirty_nodes(&mut self, out: &mut Vec<NodeId>) -> bool {
        self.clocks
            .netmodel
            .time(|| self.inner.comm_dirty_nodes(out))
    }

    fn compute_time(&mut self, node: NodeId, nominal: SimDuration) -> SimDuration {
        self.clocks
            .netmodel
            .time(|| self.inner.compute_time(node, nominal))
    }

    fn sharing_penalty(&self, k: usize) -> f64 {
        self.clocks.netmodel.time(|| self.inner.sharing_penalty(k))
    }

    fn net_stats(&self) -> NetStats {
        self.clocks.netmodel.time(|| self.inner.net_stats())
    }

    fn fork_fabric(&mut self) -> Option<Box<dyn Fabric + Send>> {
        let fork = self.clocks.netmodel.time(|| self.inner.fork_fabric())?;
        Some(Box::new(TimedFabric::new(fork, Arc::clone(&self.clocks))))
    }

    fn scheduled_windows(&self) -> Vec<(NodeId, f64, f64, SimTime, SimTime)> {
        self.clocks.netmodel.time(|| self.inner.scheduled_windows())
    }

    fn parallel_commit_safe(&self) -> bool {
        self.inner.parallel_commit_safe()
    }
}

/// A [`Workload`] that times the simulator-backed calls of the wrapped one.
/// Identity calls (`key`, `iterations`, `max_nodes`) are forwarded untimed:
/// they are field reads that belong to the caller's own time.
pub struct TimedWorkload {
    inner: Arc<dyn Workload>,
    clocks: Arc<Clocks>,
}

impl TimedWorkload {
    /// Wraps `inner`, recording into `clocks`.
    pub fn new(inner: Arc<dyn Workload>, clocks: Arc<Clocks>) -> TimedWorkload {
        TimedWorkload { inner, clocks }
    }
}

impl Workload for TimedWorkload {
    fn key(&self) -> String {
        self.inner.key()
    }

    fn iterations(&self) -> usize {
        self.inner.iterations()
    }

    fn max_nodes(&self) -> u32 {
        self.inner.max_nodes()
    }

    fn profile(&self, nodes: u32) -> SimResult<EfficiencyProfile> {
        self.clocks.profile.time(|| self.inner.profile(nodes))
    }

    fn realize(&self, allocs: &[u32]) -> SimResult<Option<EfficiencyProfile>> {
        self.clocks.realize.time(|| self.inner.realize(allocs))
    }

    fn whatif_session(&self, start_nodes: u32) -> SimResult<Option<Box<dyn WhatIfSession>>> {
        let session = self
            .clocks
            .session_open
            .time(|| self.inner.whatif_session(start_nodes))?;
        Ok(session.map(|inner| {
            Box::new(TimedSession {
                inner,
                clocks: Arc::clone(&self.clocks),
            }) as Box<dyn WhatIfSession>
        }))
    }
}

/// A [`WhatIfSession`] that times every call into the wrapped one and adds
/// its simulator step count to [`Clocks::steps_used`] when it closes.
pub struct TimedSession {
    inner: Box<dyn WhatIfSession>,
    clocks: Arc<Clocks>,
}

impl WhatIfSession for TimedSession {
    fn advance_to_barrier(&mut self, barrier: usize) -> SimResult<bool> {
        self.clocks
            .advance
            .time(|| self.inner.advance_to_barrier(barrier))
    }

    fn score_plan(&mut self, plan: &[(usize, u32)]) -> SimResult<EfficiencyProfile> {
        self.clocks.score.time(|| self.inner.score_plan(plan))
    }

    fn commit_plan(&mut self, plan: &[(usize, u32)]) -> SimResult<()> {
        self.clocks.commit.time(|| self.inner.commit_plan(plan))
    }

    fn steps_used(&self) -> u64 {
        self.inner.steps_used()
    }
}

impl Drop for TimedSession {
    fn drop(&mut self) {
        self.clocks
            .steps_used
            .fetch_add(self.inner.steps_used(), Ordering::Relaxed);
    }
}

/// A job stream that times each `next` call.
pub struct TimedStream<I> {
    inner: I,
    clocks: Arc<Clocks>,
}

impl<I> TimedStream<I> {
    /// Wraps `inner`, recording into `clocks.stream`.
    pub fn new(inner: I, clocks: Arc<Clocks>) -> TimedStream<I> {
        TimedStream { inner, clocks }
    }
}

impl<I: Iterator<Item = JobSpec>> Iterator for TimedStream<I> {
    type Item = JobSpec;

    fn next(&mut self) -> Option<JobSpec> {
        self.clocks.stream.time(|| self.inner.next())
    }
}
