//! The traced run's per-layer split, rendered as the per-layer metrics.
//!
//! Host times are summed over the traced pass and reported as a share of
//! its wall time, so a layer that a workload never calls reads 0 % on that
//! workload; the absolute seconds go to the printed table. Counts are per
//! operation (one prediction pass, one serve, or one durable serve with its
//! recoveries), so they repeat exactly for a given seed.

use crate::report::{metric, pct, ratio, Metric, Tally};

/// Per-layer figures of one traced pass. Every field defaults to zero: a
/// workload fills in the layers it exercises.
#[derive(Default, Debug)]
pub struct Split {
    /// Operations in the traced pass (and in the untraced pass it is
    /// compared with).
    pub ops: u64,
    /// Host seconds of the traced operations (the base of every share).
    pub traced_wall_s: f64,
    /// Reference seconds of the traced operations.
    pub traced_ref_s: f64,
    /// Reference seconds of the same operations untraced.
    pub untraced_ref_s: f64,

    /// `netmodel`: seconds inside `Fabric` calls.
    pub netmodel_s: f64,
    /// `netmodel`: `Fabric` calls per operation.
    pub netmodel_calls: u64,
    /// `netmodel`: flows completed per operation.
    pub flows: u64,
    /// `netmodel`: wire bytes per operation.
    pub wire_bytes: u64,

    /// `dps-sim`: seconds inside `simulate_with_fabric`, less `netmodel`.
    pub dps_self_s: f64,
    /// `dps-sim`: committed atomic steps per operation.
    pub steps: u64,
    /// `dps-sim`: largest event-queue length seen.
    pub max_queue_len: u64,

    /// `lu-app`: seconds inside `build_lu_app`.
    pub lu_build_s: f64,

    /// `workload`: seconds and calls per operation of each timed call.
    pub profile_s: f64,
    /// See [`Split::profile_s`].
    pub profile_calls: u64,
    /// See [`Split::profile_s`].
    pub realize_s: f64,
    /// See [`Split::profile_s`].
    pub realize_calls: u64,
    /// See [`Split::profile_s`].
    pub session_open_s: f64,
    /// See [`Split::profile_s`].
    pub session_open_calls: u64,
    /// See [`Split::profile_s`].
    pub advance_s: f64,
    /// See [`Split::profile_s`].
    pub advance_calls: u64,
    /// See [`Split::profile_s`].
    pub score_s: f64,
    /// See [`Split::profile_s`].
    pub score_calls: u64,
    /// See [`Split::profile_s`].
    pub commit_s: f64,
    /// `workload`: simulator steps used by what-if sessions per operation.
    pub steps_used: u64,

    /// `cluster`: profile-cache and what-if counters per operation.
    pub cache_hits: u64,
    /// See [`Split::cache_hits`].
    pub cache_misses: u64,
    /// See [`Split::cache_hits`].
    pub cache_evictions: u64,
    /// See [`Split::cache_hits`].
    pub fork_scored: u64,
    /// See [`Split::cache_hits`].
    pub memo_scored: u64,
    /// See [`Split::cache_hits`].
    pub profile_scored: u64,
    /// See [`Split::cache_hits`].
    pub analytic_scored: u64,
    /// See [`Split::cache_hits`].
    pub sessions_opened: u64,
    /// See [`Split::cache_hits`].
    pub candidates: u64,

    /// `cluster-svc`: seconds inside the job stream's `next`.
    pub stream_s: f64,
    /// `cluster-svc`: seconds inside `serve` less stream, workload calls
    /// and validated replay.
    pub svc_self_s: f64,
    /// `cluster-svc`: service events per operation.
    pub events: u64,
    /// `cluster-svc`: seconds inside `WriteAheadLog::build`.
    pub wal_build_s: f64,
    /// `cluster-svc`: WAL bytes per operation.
    pub wal_bytes: u64,
    /// `cluster-svc`: WAL frames per operation.
    pub wal_frames: u64,
    /// `cluster-svc`: journal entries in the WAL per operation.
    pub wal_entries: u64,
    /// `cluster-svc`: seconds inside `WriteAheadLog::scan`.
    pub wal_scan_s: f64,
    /// `cluster-svc`: entries recovered from crashed WALs per operation.
    pub recovered_entries: u64,
    /// `cluster-svc`: seconds of validated replay through recovered
    /// prefixes (the service's own `ReplayStats::catch_up_secs`).
    pub replay_s: f64,
    /// `cluster-svc`: seconds of recovering serves after the prefix.
    pub suffix_s: f64,

    /// `desim`: `crc32` cost over the run's WAL bytes.
    pub crc32_ns_per_kb: f64,
    /// `desim`: `Journal::decode` cost over the run's journal bytes.
    pub decode_ns_per_kb: f64,
}

impl Split {
    /// Host seconds attributed to some layer.
    pub fn attributed_s(&self) -> f64 {
        self.netmodel_s
            + self.dps_self_s
            + self.lu_build_s
            + self.profile_s
            + self.realize_s
            + self.session_open_s
            + self.advance_s
            + self.score_s
            + self.commit_s
            + self.stream_s
            + self.svc_self_s
            + self.wal_build_s
            + self.wal_scan_s
            + self.replay_s
            + self.suffix_s
    }

    /// Share of the traced wall no layer accounts for.
    pub fn unattributed_pct(&self) -> f64 {
        pct(self.traced_wall_s - self.attributed_s(), self.traced_wall_s)
    }

    /// Fails the run when the layers leave more than 5% of the traced wall
    /// unaccounted for: the split would not explain where the time went.
    pub fn check(&self, tally: &mut Tally) {
        let gap = self.unattributed_pct();
        let problems = if gap.abs() > 5.0 {
            vec![format!(
                "layers leave {gap:.2}% of the traced wall unattributed"
            )]
        } else {
            Vec::new()
        };
        tally.op(problems);
    }

    fn share(&self, secs: f64) -> f64 {
        pct(secs, self.traced_wall_s)
    }

    /// Nanoseconds per unit when `per_op` units happen in each operation.
    fn ns_per(&self, secs: f64, per_op: u64) -> f64 {
        ratio(secs * 1e9, (per_op * self.ops) as f64)
    }

    /// The per-layer metrics of the result line.
    pub fn metrics(&self) -> Vec<Metric> {
        let c = |n: u64| n as f64;
        vec![
            metric("netmodel.share", self.share(self.netmodel_s), "%"),
            metric("netmodel.calls", c(self.netmodel_calls), "count"),
            metric(
                "netmodel.ns_per_call",
                self.ns_per(self.netmodel_s, self.netmodel_calls),
                "ns/call",
            ),
            metric("netmodel.flows", c(self.flows), "count"),
            metric("netmodel.wire_bytes", c(self.wire_bytes), "B"),
            metric("dps-sim.self_share", self.share(self.dps_self_s), "%"),
            metric("dps-sim.steps", c(self.steps), "count"),
            metric(
                "dps-sim.ns_per_step",
                self.ns_per(self.dps_self_s, self.steps),
                "ns/step",
            ),
            metric("dps-sim.max_queue_len", c(self.max_queue_len), "count"),
            metric("lu-app.build_share", self.share(self.lu_build_s), "%"),
            metric("workload.profile_share", self.share(self.profile_s), "%"),
            metric("workload.profile_calls", c(self.profile_calls), "count"),
            metric("workload.realize_share", self.share(self.realize_s), "%"),
            metric("workload.realize_calls", c(self.realize_calls), "count"),
            metric(
                "workload.session_open_share",
                self.share(self.session_open_s),
                "%",
            ),
            metric(
                "workload.session_open_calls",
                c(self.session_open_calls),
                "count",
            ),
            metric("workload.advance_share", self.share(self.advance_s), "%"),
            metric("workload.advance_calls", c(self.advance_calls), "count"),
            metric("workload.score_share", self.share(self.score_s), "%"),
            metric("workload.score_calls", c(self.score_calls), "count"),
            metric("workload.commit_share", self.share(self.commit_s), "%"),
            metric("workload.steps_used", c(self.steps_used), "count"),
            metric("cluster.cache_hits", c(self.cache_hits), "count"),
            metric("cluster.cache_misses", c(self.cache_misses), "count"),
            metric("cluster.cache_evictions", c(self.cache_evictions), "count"),
            metric(
                "cluster.cache_hit_ratio",
                pct(c(self.cache_hits), c(self.cache_hits + self.cache_misses)),
                "%",
            ),
            metric("cluster.fork_scored", c(self.fork_scored), "count"),
            metric("cluster.memo_scored", c(self.memo_scored), "count"),
            metric("cluster.profile_scored", c(self.profile_scored), "count"),
            metric("cluster.analytic_scored", c(self.analytic_scored), "count"),
            metric("cluster.sessions_opened", c(self.sessions_opened), "count"),
            metric("cluster.candidates", c(self.candidates), "count"),
            metric("cluster-svc.stream_share", self.share(self.stream_s), "%"),
            metric("cluster-svc.self_share", self.share(self.svc_self_s), "%"),
            metric("cluster-svc.events", c(self.events), "count"),
            metric(
                "cluster-svc.ns_per_event",
                self.ns_per(self.svc_self_s, self.events),
                "ns/event",
            ),
            metric(
                "cluster-svc.wal_build_share",
                self.share(self.wal_build_s),
                "%",
            ),
            metric("cluster-svc.wal_bytes", c(self.wal_bytes), "B"),
            metric("cluster-svc.wal_frames", c(self.wal_frames), "count"),
            metric(
                "cluster-svc.wal_bytes_per_entry",
                ratio(c(self.wal_bytes), c(self.wal_entries)),
                "B/entry",
            ),
            metric(
                "cluster-svc.wal_scan_share",
                self.share(self.wal_scan_s),
                "%",
            ),
            metric(
                "cluster-svc.recovered_entries",
                c(self.recovered_entries),
                "count",
            ),
            metric("cluster-svc.replay_share", self.share(self.replay_s), "%"),
            metric("cluster-svc.suffix_share", self.share(self.suffix_s), "%"),
            metric("desim.crc32_ns_per_kb", self.crc32_ns_per_kb, "ns/KB"),
            metric(
                "desim.journal_decode_ns_per_kb",
                self.decode_ns_per_kb,
                "ns/KB",
            ),
            metric(
                "trace.overhead_pct",
                pct(self.traced_ref_s - self.untraced_ref_s, self.untraced_ref_s),
                "%",
            ),
            metric("trace.unattributed_pct", self.unattributed_pct(), "%"),
        ]
    }

    /// Absolute host seconds per layer, for the printed table.
    pub fn table(&self) -> Vec<Metric> {
        vec![
            metric("trace.traced_wall_s", self.traced_wall_s, "s"),
            metric("trace.traced_ref_s", self.traced_ref_s, "s"),
            metric("trace.untraced_ref_s", self.untraced_ref_s, "s"),
            metric("netmodel.busy_s", self.netmodel_s, "s"),
            metric("dps-sim.self_s", self.dps_self_s, "s"),
            metric("lu-app.build_s", self.lu_build_s, "s"),
            metric("workload.profile_s", self.profile_s, "s"),
            metric("workload.realize_s", self.realize_s, "s"),
            metric("workload.session_open_s", self.session_open_s, "s"),
            metric("workload.advance_s", self.advance_s, "s"),
            metric("workload.score_s", self.score_s, "s"),
            metric("workload.commit_s", self.commit_s, "s"),
            metric("cluster-svc.stream_s", self.stream_s, "s"),
            metric("cluster-svc.self_s", self.svc_self_s, "s"),
            metric("cluster-svc.wal_build_s", self.wal_build_s, "s"),
            metric("cluster-svc.wal_scan_s", self.wal_scan_s, "s"),
            metric("cluster-svc.replay_s", self.replay_s, "s"),
            metric("cluster-svc.suffix_s", self.suffix_s, "s"),
        ]
    }
}
