//! The service engine: one deterministic event loop spanning N shard
//! executors.
//!
//! # Determinism contract
//!
//! The committed outcome (every report byte, every journal entry) is a
//! function of `(config topology, policy, tenant set, job stream, fault
//! plan)` only — never of the shard count or the host's thread settings.
//! That holds structurally:
//!
//! * **Fixed cells.** The node pool is partitioned into cells by the
//!   config; shards are contiguous groupings of cells, so regrouping
//!   changes nothing a job can observe.
//! * **Fixed global order.** Each virtual instant is processed in three
//!   stages: global events (faults, returns, requeues, job cancellations,
//!   in schedule order), then stream arrivals, then cell events in
//!   ascending cell id (iterating shards, then their cells, equals the
//!   global cell order because shard ranges are contiguous).
//! * **Per-cell queues.** Event-queue insertion sequence numbers — the
//!   tie-break inside one instant — are cell-local, so they cannot depend
//!   on the shard grouping.
//! * **Integer accounting.** All accumulated report state is integer
//!   nanoseconds / node-nanoseconds; `f64` appears only inside per-job
//!   pricing (identical inputs per job regardless of grouping) and in
//!   derived accessors computed once at the end.
//!
//! # Scheduling decision journal
//!
//! With [`ServeOptions::journal`] set, every scheduling decision is
//! committed to a [`desim::Journal`] as a `Step` event whose `op` field
//! indexes the journal's Mark-label table ([`DECISION_LABELS`]):
//! `job` = the service-assigned monotone submission id, `thread` = tenant,
//! `node` = cell (`u32::MAX` when the decision concerns no cell),
//! `start` = nodes requested/granted, `work` = decision-specific extra
//! (queue wait on `place`, lost work on `requeue`, released nodes on
//! `shrink`, turnaround on `complete`). Two runs are equivalent iff their
//! decision streams match — [`desim::Journal::first_divergence`] pinpoints
//! the first disagreeing field, which is what lets future what-if forks be
//! diffed decision-by-decision.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use cluster::{
    profile_suffix, realized_suffix, score_fingerprint, BreakerState, CandidateKind,
    CandidateScore, CircuitBreaker, ProfileCache, SchedulePolicy, WhatIfSession,
};
use desim::fxhash::FxHashMap;
use desim::{EventQueue, Journal, JournalEntry, JournalEvent, SimDuration, SimTime};
use dps_sim::{BudgetKind, CancelToken, SimError, SimErrorKind, SimResult};
use faults::{CheckpointSpec, FaultPlan, Outage, RateTimeline};

use crate::config::ServiceConfig;
use crate::fairshare::FairShare;
use crate::job::{AnalyticJob, JobPayload, JobSpec};
use crate::report::{LatencyHist, ServiceReport, TenantReport, WhatIfStats};
use crate::shard::{Cell, PhaseEnd, Shard};

/// Decision codes recorded in journal `Step.op`, indexing
/// [`DECISION_LABELS`].
pub mod decision {
    /// Job admitted into its tenant's queue.
    pub const ADMIT: u32 = 0;
    /// Job placed on a cell (first start).
    pub const PLACE: u32 = 1;
    /// Allocation shrunk at an iteration boundary.
    pub const SHRINK: u32 = 2;
    /// Job interrupted by a fault and re-queued.
    pub const REQUEUE: u32 = 3;
    /// Interrupted job re-placed (restart).
    pub const RECOVER: u32 = 4;
    /// Job rejected at admission.
    pub const REJECT: u32 = 5;
    /// Job completed.
    pub const COMPLETE: u32 = 6;
    /// Job terminally failed after admission.
    pub const FAIL: u32 = 7;
    /// Job cancelled.
    pub const CANCEL: u32 = 8;
    /// A what-if candidate future was scored (`start` = nodes, `work` =
    /// predicted remaining span in ns).
    pub const CANDIDATE: u32 = 9;
    /// The winning what-if candidate was committed (`work` = its
    /// [`cluster::CandidateKind`] as an integer).
    pub const WHATIF: u32 = 10;
    /// The what-if circuit breaker changed state (`start` = the new
    /// [`cluster::BreakerState`] code, `work` = the step cost of the
    /// decision that caused the transition, when one did).
    pub const BREAKER: u32 = 11;
}

/// Names of the decision codes, interned into the journal's label table in
/// code order (so `labels[op]` names a decision).
pub const DECISION_LABELS: [&str; 12] = [
    "admit",
    "place",
    "shrink",
    "requeue",
    "recover",
    "reject",
    "complete",
    "fail",
    "cancel",
    "candidate",
    "whatif",
    "breaker",
];

/// `Step.node` value for decisions that concern no cell.
pub const NO_CELL: u32 = u32::MAX;

/// Execution budgets for one `serve` call (`0`/zero duration = unlimited),
/// the service-level analogue of `SimConfig::max_steps`/`max_virtual_time`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceBudget {
    /// Abort with [`SimErrorKind::BudgetExceeded`] after this many events.
    pub max_events: u64,
    /// Abort once virtual time passes this horizon.
    pub max_virtual_time: SimDuration,
}

/// Options for one `serve` call.
#[derive(Clone, Debug, Default)]
pub struct ServeOptions {
    /// Event and virtual-time budgets.
    pub budget: ServiceBudget,
    /// Cooperative cancellation, checked between events.
    pub cancel: Option<CancelToken>,
    /// Record the scheduling-decision journal.
    pub journal: bool,
    /// Measure host wall-clock latency of each what-if decision into
    /// [`ServiceReport::decision_hist`]. Off by default: the measurement
    /// itself costs a couple of clock reads per decision, and the
    /// histogram is host data (never part of the canonical report).
    pub measure_decisions: bool,
    /// Validated replay: a committed journal prefix recovered from a
    /// durable log. The re-execution must reproduce these entries exactly,
    /// in order, before committing anything new; the first divergence is a
    /// typed protocol error. Implies `journal`.
    pub resume: Option<ResumePrefix>,
}

/// A recovered committed decision prefix for validated replay (see
/// [`ServeOptions::resume`] and the `recovery` module).
#[derive(Clone, Debug)]
pub struct ResumePrefix {
    /// Committed entries recovered from the durable log, in commit order.
    pub entries: Arc<Vec<JournalEntry>>,
}

/// How a validated replay went.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayStats {
    /// Entries in the recovered committed prefix.
    pub prefix_entries: u64,
    /// Prefix entries the re-execution reproduced (all of them, on a
    /// successful recovery).
    pub matched: u64,
    /// Host wall seconds spent re-executing through the prefix — the
    /// recovery's catch-up latency.
    pub catch_up_secs: f64,
}

/// What a completed `serve` returns.
#[derive(Clone, Debug)]
pub struct ServiceOutcome {
    /// Aggregate report.
    pub report: ServiceReport,
    /// The decision journal, when requested.
    pub journal: Option<Journal>,
    /// Validated-replay statistics, when `serve` resumed from a recovered
    /// prefix.
    pub replay: Option<ReplayStats>,
}

/// The long-lived sharded multi-tenant job service.
pub struct ClusterService {
    cfg: ServiceConfig,
}

impl ClusterService {
    /// Validates the config and builds a service.
    pub fn new(cfg: ServiceConfig) -> SimResult<ClusterService> {
        cfg.validate()?;
        Ok(ClusterService { cfg })
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Serves a job stream to completion under a fault plan.
    ///
    /// Jobs are admitted per tenant (quotas, backpressure), placed on the
    /// least-loaded cell by the fair-share scheduler, resized at iteration
    /// boundaries per the policy, interrupted and re-queued (cross-shard)
    /// by outages, and accounted into the aggregate report. Budgets and
    /// the cancel token abort with typed errors; a workload that errors or
    /// panics fails only its own job.
    pub fn serve(
        &self,
        stream: impl IntoIterator<Item = JobSpec>,
        plan: &FaultPlan,
        opts: &ServeOptions,
    ) -> SimResult<ServiceOutcome> {
        let mut engine = Engine::new(&self.cfg, plan, opts);
        engine.run(stream.into_iter(), plan)?;
        Ok(engine.finish())
    }
}

// ----- internal engine ------------------------------------------------------

const NO_HOLDER: u32 = u32::MAX;
/// Cancel-token poll interval, in events.
const CANCEL_CHECK_EVERY: u64 = 4096;
/// Live what-if sessions kept warm at once (each holds a paused engine
/// run); the oldest-opened is dropped first and reopened on demand.
const MAX_SESSIONS: usize = 32;
/// Score-fingerprint discriminant for fork-realized scores. Profile-suffix
/// scores use `CandidateKind::Keep as u32` (shared with the batch server's
/// `best_allocation`); this tag keeps the two semantics apart in the memo.
const FORK_TAG: u32 = 6;
/// Profiling-panic retries per phase schedule before the job fails.
const RETRY_MAX: u32 = 3;
/// Base of the profiling-retry exponential backoff (10 ms virtual).
const RETRY_BASE: SimDuration = SimDuration(10_000_000);
/// Cap of the profiling-retry backoff (1 s virtual).
const RETRY_CAP: SimDuration = SimDuration(1_000_000_000);
/// Bound (exclusive) on the deterministic retry jitter (1 ms virtual).
const RETRY_JITTER_NS: u64 = 1_000_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JobState {
    /// In its tenant's fair-share queue.
    Pending,
    /// Placed on a cell.
    Running,
    /// Interrupted, waiting out an elastic backoff.
    Limbo,
}

struct LiveJob {
    /// Slab-reuse guard: bumped when the slot is released. Global events
    /// (requeues, cancellations) carry the epoch they were scheduled for.
    epoch: u32,
    /// Schedule guard for iteration-end events; monotone per slot.
    gen: u32,
    /// Service-assigned monotone submission id (journal identity).
    id: u64,
    tenant: u32,
    requested: u32,
    arrival: SimTime,
    payload: JobPayload,
    state: JobState,
    cell: u32,
    /// Held node ids (pooled buffer).
    held: Vec<u32>,
    phase: u32,
    iter_start: SimTime,
    iter_span: SimDuration,
    iter_work: SimDuration,
    restarts: u32,
    done_work: SimDuration,
    since_ckpt: SimDuration,
    resume_phase: u32,
    pending_restart: bool,
    first_start: Option<SimTime>,
    /// Allocation of the job's first start — the baseline every committed
    /// removal-plan entry shrinks from (what-if fork scoring).
    start_nodes: u32,
    /// Removal-plan entries committed so far (`(after, count)`, 1-based).
    plan: Vec<(usize, u32)>,
    /// Whether fork-based scoring is still exact for this job: true until
    /// it grows, migrates, restarts, or its backend refuses to fork.
    fork_ok: bool,
    /// Charge one extra checkpoint cost to the next scheduled phase (a
    /// committed checkpoint-now decision).
    extra_ckpt: bool,
    /// Resume point established by the latest extra checkpoint.
    extra_ckpt_phase: u32,
    /// Profiling-panic attempts for the phase currently being scheduled
    /// (reset on the first successful profile point).
    profile_attempts: u32,
}

#[derive(Clone, Copy, Debug)]
enum GlobalEv {
    /// Outage `i` of the fault plan fires.
    Fault(u32),
    /// A preempted node rejoins its cell.
    Return(u32),
    /// An elastically recovering job re-enters its queue after backoff.
    Requeue { slot: u32, epoch: u32 },
    /// A job's requested cancellation time arrived.
    CancelJob { slot: u32, epoch: u32 },
    /// A profiling-panic backoff elapsed: try scheduling the phase again
    /// (`restart` re-carries the restart cost of the original attempt).
    RetryPhase {
        slot: u32,
        epoch: u32,
        gen: u32,
        restart: SimDuration,
    },
}

/// What a boundary decision commits.
#[derive(Clone, Copy, Debug)]
enum WhatIfAction {
    /// Run the next iteration on this many nodes in the current cell.
    Resize(u32),
    /// Checkpoint, move to `cell`, and restart there on `nodes`.
    Migrate { cell: u32, nodes: u32 },
}

struct Engine<'a> {
    cfg: &'a ServiceConfig,
    moldable: bool,
    elastic: bool,
    min_eff: Option<f64>,
    backoff: Option<(SimDuration, SimDuration)>,
    ckpt: CheckpointSpec,
    cpu_tl: RateTimeline,
    link_tl: RateTimeline,
    shards: Vec<Shard>,
    /// Cell id → (shard index, local index).
    cell_loc: Vec<(u32, u32)>,
    /// Node id → slab slot of the holder, or `NO_HOLDER`.
    holder: Vec<u32>,
    dead: Vec<bool>,
    away: Vec<bool>,
    slab: Vec<LiveJob>,
    free_slots: Vec<u32>,
    /// Recycled `held` buffers (PR 1 playbook: no steady-state allocation
    /// on the start/complete path).
    vec_pool: Vec<Vec<u32>>,
    queues: FairShare,
    global: EventQueue<GlobalEv>,
    cache: ProfileCache,
    tenants: Vec<TenantReport>,
    wait_hist: LatencyHist,
    submitted: u64,
    makespan: SimTime,
    events: u64,
    now: SimTime,
    job_seq: u64,
    journal: Option<Journal>,
    budget: ServiceBudget,
    cancel: Option<CancelToken>,
    next_cancel_check: u64,
    /// Reentrancy guard: terminal transitions triggered *during* placement
    /// (a workload erroring at start) must not recurse into placement.
    placing: bool,
    /// Set when capacity returned to a cell while `placing` — tells the
    /// placement loop to retry capacity-blocked tenants.
    freed_while_placing: bool,
    /// Reusable per-tenant capacity-blocked flags.
    blocked: Vec<bool>,
    /// Whether the policy is [`SchedulePolicy::WhatIf`].
    whatif: bool,
    /// Whether the fault plan can interrupt jobs (gates checkpoint-now).
    has_faults: bool,
    /// Warm per-job what-if sessions, keyed by slab slot.
    sessions: FxHashMap<u32, Box<dyn WhatIfSession>>,
    /// Session slots in open order (FIFO eviction at [`MAX_SESSIONS`]).
    session_order: VecDeque<u32>,
    /// Deterministic what-if counters.
    wi: WhatIfStats,
    /// Optional circuit breaker around fork-based what-if scoring
    /// (service-global, like the profile cache).
    breaker: Option<CircuitBreaker>,
    /// Profiling-panic retries scheduled so far.
    profile_retries: u64,
    /// Validated-replay state when resuming from a recovered prefix.
    resume: Option<ResumeCheck>,
    /// Host-measure decision latency ([`ServeOptions::measure_decisions`]).
    measure: bool,
    decision_hist: LatencyHist,
}

/// Live state of a validated journal replay ([`ServeOptions::resume`]).
struct ResumeCheck {
    /// The recovered committed prefix.
    entries: Arc<Vec<JournalEntry>>,
    /// Prefix entries matched so far.
    cursor: usize,
    /// Wall instant the replay started.
    started: Instant,
    /// Wall seconds to re-execute through the full prefix.
    caught_up: Option<f64>,
    /// First divergence, surfaced as a protocol error by the main loop.
    error: Option<String>,
}

impl<'a> Engine<'a> {
    fn new(cfg: &'a ServiceConfig, plan: &FaultPlan, opts: &ServeOptions) -> Engine<'a> {
        let total_nodes = cfg.total_nodes() as usize;
        let mut shards = Vec::with_capacity(cfg.shards as usize);
        let mut cell_loc = vec![(0u32, 0u32); cfg.cells as usize];
        for s in 0..cfg.shards {
            let range = cfg.shard_cells(s);
            let first_cell = range.start;
            let cells: Vec<Cell> = range
                .clone()
                .map(|c| Cell::new(c * cfg.nodes_per_cell, cfg.nodes_per_cell))
                .collect();
            for c in range {
                cell_loc[c as usize] = (s, c - first_cell);
            }
            shards.push(Shard { first_cell, cells });
        }
        let (min_eff, backoff) = match cfg.policy {
            SchedulePolicy::Rigid => (None, None),
            SchedulePolicy::Malleable { min_efficiency } => (Some(min_efficiency), None),
            SchedulePolicy::ElasticRecovery {
                min_efficiency,
                base_backoff,
                max_backoff,
            }
            | SchedulePolicy::WhatIf {
                min_efficiency,
                base_backoff,
                max_backoff,
            } => (Some(min_efficiency), Some((base_backoff, max_backoff))),
        };
        let journal = (opts.journal || opts.resume.is_some()).then(|| {
            let mut j = Journal::new();
            for label in DECISION_LABELS {
                j.intern_label(label);
            }
            j.set_meta("service", "cluster-svc");
            j.set_meta("nodes_per_cell", cfg.nodes_per_cell.to_string());
            j.set_meta("cells", cfg.cells.to_string());
            j.set_meta("shards", cfg.shards.to_string());
            j.set_meta("policy", format!("{:?}", cfg.policy));
            j.set_meta("tenants", cfg.tenants.len().to_string());
            j
        });
        Engine {
            cfg,
            moldable: !matches!(cfg.policy, SchedulePolicy::Rigid),
            elastic: matches!(
                cfg.policy,
                SchedulePolicy::ElasticRecovery { .. } | SchedulePolicy::WhatIf { .. }
            ),
            min_eff,
            backoff,
            ckpt: plan.checkpoint,
            cpu_tl: RateTimeline::new(plan.cpu_windows()),
            link_tl: RateTimeline::new(plan.link_windows()),
            shards,
            cell_loc,
            holder: vec![NO_HOLDER; total_nodes],
            dead: vec![false; total_nodes],
            away: vec![false; total_nodes],
            slab: Vec::new(),
            free_slots: Vec::new(),
            vec_pool: Vec::new(),
            queues: FairShare::new(&cfg.tenants),
            global: EventQueue::new(),
            cache: ProfileCache::new(),
            tenants: cfg
                .tenants
                .iter()
                .map(|t| TenantReport {
                    name: t.name.clone(),
                    ..TenantReport::default()
                })
                .collect(),
            wait_hist: LatencyHist::new(),
            submitted: 0,
            makespan: SimTime::ZERO,
            events: 0,
            now: SimTime::ZERO,
            job_seq: 0,
            journal,
            budget: opts.budget,
            cancel: opts.cancel.clone(),
            next_cancel_check: CANCEL_CHECK_EVERY,
            placing: false,
            freed_while_placing: false,
            blocked: Vec::new(),
            whatif: matches!(cfg.policy, SchedulePolicy::WhatIf { .. }),
            has_faults: !plan.outages().is_empty(),
            sessions: FxHashMap::default(),
            session_order: VecDeque::new(),
            wi: WhatIfStats::default(),
            breaker: cfg.breaker.map(CircuitBreaker::new),
            profile_retries: 0,
            resume: opts.resume.as_ref().map(|r| ResumeCheck {
                entries: Arc::clone(&r.entries),
                cursor: 0,
                started: Instant::now(),
                caught_up: None,
                error: None,
            }),
            measure: opts.measure_decisions,
            decision_hist: LatencyHist::new(),
        }
    }

    #[inline]
    fn cell_mut(&mut self, cell: u32) -> &mut Cell {
        let (s, l) = self.cell_loc[cell as usize];
        &mut self.shards[s as usize].cells[l as usize]
    }

    fn journal_decision(
        &mut self,
        op: u32,
        id: u64,
        tenant: u32,
        cell: u32,
        nodes: u32,
        extra: u64,
    ) {
        if let Some(j) = &mut self.journal {
            j.push(
                self.now,
                JournalEvent::Step {
                    job: id,
                    op,
                    thread: tenant,
                    node: cell,
                    start: u64::from(nodes),
                    work: extra,
                },
            );
            if let Some(rc) = &mut self.resume {
                if rc.error.is_none() && rc.cursor < rc.entries.len() {
                    let got = j.entries.last().expect("entry just pushed");
                    let want = &rc.entries[rc.cursor];
                    if got == want {
                        rc.cursor += 1;
                        if rc.cursor == rc.entries.len() {
                            rc.caught_up = Some(rc.started.elapsed().as_secs_f64());
                        }
                    } else {
                        rc.error = Some(format!(
                            "re-execution diverged from the recovered prefix at \
                             entry {}: expected {want:?}, got {got:?}",
                            rc.cursor
                        ));
                    }
                }
            }
        }
    }

    // ----- main loop -------------------------------------------------------

    fn run(
        &mut self,
        mut stream: impl Iterator<Item = JobSpec>,
        plan: &FaultPlan,
    ) -> SimResult<()> {
        let outages = plan.outages();
        for (i, o) in outages.iter().enumerate() {
            self.global.schedule(o.at, GlobalEv::Fault(i as u32));
        }
        let mut next_arrival = stream.next();
        let mut last_arrival = SimTime::ZERO;
        loop {
            if let Some(msg) = self.resume.as_mut().and_then(|rc| rc.error.take()) {
                return Err(SimError::protocol(msg).context("validated journal replay"));
            }
            if self.budget.max_events != 0 && self.events >= self.budget.max_events {
                return Err(SimError::new(SimErrorKind::BudgetExceeded {
                    kind: BudgetKind::Steps,
                    at: self.now,
                    steps: self.events,
                })
                .context("cluster-svc serve"));
            }
            if self.events >= self.next_cancel_check {
                self.next_cancel_check = self.events + CANCEL_CHECK_EVERY;
                if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                    return Err(SimError::new(SimErrorKind::Cancelled {
                        at: self.now,
                        steps: self.events,
                    })
                    .context("cluster-svc serve"));
                }
            }
            // Next instant: the min over the global queue, the arrival
            // stream and every cell queue.
            let mut t = self.global.peek_time();
            if let Some(a) = &next_arrival {
                t = Some(t.map_or(a.arrival, |x| x.min(a.arrival)));
            }
            for s in &mut self.shards {
                if let Some(ts) = s.next_time() {
                    t = Some(t.map_or(ts, |x| x.min(ts)));
                }
            }
            let Some(t) = t else { break };
            if !self.budget.max_virtual_time.is_zero()
                && t.as_nanos() > self.budget.max_virtual_time.as_nanos()
            {
                return Err(SimError::new(SimErrorKind::BudgetExceeded {
                    kind: BudgetKind::VirtualTime,
                    at: t,
                    steps: self.events,
                })
                .context("cluster-svc serve"));
            }
            self.now = t;
            // Stage 1: global events (faults, returns, requeues, cancels).
            while self.global.peek_time() == Some(t) {
                let (_, ev) = self.global.pop().expect("peeked");
                self.events += 1;
                match ev {
                    GlobalEv::Fault(i) => self.handle_fault(&outages[i as usize])?,
                    GlobalEv::Return(node) => self.handle_return(node)?,
                    GlobalEv::Requeue { slot, epoch } => self.handle_requeue(slot, epoch)?,
                    GlobalEv::CancelJob { slot, epoch } => self.handle_cancel(slot, epoch)?,
                    GlobalEv::RetryPhase {
                        slot,
                        epoch,
                        gen,
                        restart,
                    } => self.handle_retry(slot, epoch, gen, restart)?,
                }
            }
            // Stage 2: arrivals at this instant, in stream order.
            while next_arrival.as_ref().is_some_and(|a| a.arrival <= t) {
                let spec = next_arrival.take().expect("checked");
                if spec.arrival < last_arrival {
                    return Err(SimError::protocol(format!(
                        "job stream arrivals must be non-decreasing ({:?} after {:?})",
                        spec.arrival, last_arrival
                    )));
                }
                last_arrival = spec.arrival;
                next_arrival = stream.next();
                self.events += 1;
                self.admit(spec)?;
            }
            // Stage 3: cell events, shards then cells = ascending cell id.
            for s in 0..self.shards.len() {
                for c in 0..self.shards[s].cells.len() {
                    while self.shards[s].cells[c].queue.peek_time() == Some(t) {
                        let (_, pe) = self.shards[s].cells[c].queue.pop().expect("peeked");
                        self.events += 1;
                        let cell = self.shards[s].first_cell + c as u32;
                        self.handle_phase_end(cell, pe)?;
                    }
                }
            }
        }
        if let Some(rc) = &mut self.resume {
            if let Some(msg) = rc.error.take() {
                return Err(SimError::protocol(msg).context("validated journal replay"));
            }
            if rc.cursor < rc.entries.len() {
                return Err(SimError::protocol(format!(
                    "re-execution committed only {} of {} recovered decisions",
                    rc.cursor,
                    rc.entries.len()
                ))
                .context("validated journal replay"));
            }
        }
        Ok(())
    }

    fn finish(self) -> ServiceOutcome {
        let mut cells = Vec::with_capacity(self.cfg.cells as usize);
        for s in self.shards {
            for c in s.cells {
                cells.push(c.report);
            }
        }
        let replay = self.resume.map(|rc| ReplayStats {
            prefix_entries: rc.entries.len() as u64,
            matched: rc.cursor as u64,
            catch_up_secs: rc
                .caught_up
                .unwrap_or_else(|| rc.started.elapsed().as_secs_f64()),
        });
        ServiceOutcome {
            report: ServiceReport {
                nodes_per_cell: self.cfg.nodes_per_cell,
                shards: self.cfg.shards,
                cells,
                tenants: self.tenants,
                submitted: self.submitted,
                events: self.events,
                makespan: self.makespan,
                wait_hist: self.wait_hist,
                cache_hits: self.cache.hits(),
                cache_misses: self.cache.misses(),
                cache_entries: (self.cache.len() + self.cache.scores_len()) as u64,
                cache_evictions: self.cache.evictions(),
                whatif: self.wi,
                breaker: self
                    .breaker
                    .as_ref()
                    .map(CircuitBreaker::stats)
                    .unwrap_or_default(),
                profile_retries: self.profile_retries,
                decision_hist: self.decision_hist,
            },
            journal: self.journal,
            replay,
        }
    }

    // ----- admission -------------------------------------------------------

    fn admit(&mut self, spec: JobSpec) -> SimResult<()> {
        let ti = spec.tenant as usize;
        if ti >= self.tenants.len() {
            return Err(SimError::protocol(format!(
                "job stream names tenant {} but only {} are registered",
                spec.tenant,
                self.tenants.len()
            )));
        }
        self.tenants[ti].submitted += 1;
        self.submitted += 1;
        let id = self.job_seq;
        self.job_seq += 1;
        let rejected = spec.requested_nodes == 0
            || spec.requested_nodes > self.cfg.nodes_per_cell
            || spec.requested_nodes > spec.payload.max_nodes()
            || spec.payload.iterations() == 0
            || self.queues.tenants[ti].over_pressure();
        if rejected {
            self.tenants[ti].rejected += 1;
            self.journal_decision(
                decision::REJECT,
                id,
                spec.tenant,
                NO_CELL,
                spec.requested_nodes,
                0,
            );
            return Ok(());
        }
        let slot = self.alloc_slot(&spec, id);
        self.queues.push_back(spec.tenant, slot);
        self.journal_decision(
            decision::ADMIT,
            id,
            spec.tenant,
            NO_CELL,
            spec.requested_nodes,
            0,
        );
        if let Some(at) = spec.cancel_at {
            let epoch = self.slab[slot as usize].epoch;
            self.global
                .schedule(at.max(self.now), GlobalEv::CancelJob { slot, epoch });
        }
        self.place_pending()
    }

    fn alloc_slot(&mut self, spec: &JobSpec, id: u64) -> u32 {
        let held = self.vec_pool.pop().unwrap_or_default();
        let fresh = |epoch: u32, gen: u32| LiveJob {
            epoch,
            gen,
            id,
            tenant: spec.tenant,
            requested: spec.requested_nodes,
            arrival: spec.arrival,
            payload: spec.payload.clone(),
            state: JobState::Pending,
            cell: 0,
            held,
            phase: 0,
            iter_start: SimTime::ZERO,
            iter_span: SimDuration::ZERO,
            iter_work: SimDuration::ZERO,
            restarts: 0,
            done_work: SimDuration::ZERO,
            since_ckpt: SimDuration::ZERO,
            resume_phase: 0,
            pending_restart: false,
            first_start: None,
            start_nodes: 0,
            plan: Vec::new(),
            fork_ok: false,
            extra_ckpt: false,
            extra_ckpt_phase: 0,
            profile_attempts: 0,
        };
        if let Some(slot) = self.free_slots.pop() {
            let e = &mut self.slab[slot as usize];
            *e = fresh(e.epoch, e.gen);
            slot
        } else {
            self.slab.push(fresh(0, 0));
            (self.slab.len() - 1) as u32
        }
    }

    /// Returns a slot to the free list; bumps the epoch so any in-flight
    /// requeue/cancel events for the old occupant go stale.
    fn release_slot(&mut self, slot: u32) {
        self.drop_session(slot);
        let e = &mut self.slab[slot as usize];
        e.epoch += 1;
        e.gen += 1;
        e.plan = Vec::new();
        e.fork_ok = false;
        let mut held = std::mem::take(&mut e.held);
        held.clear();
        self.vec_pool.push(held);
        // Drop any boxed payload now (the slot may idle a long time).
        e.payload = JobPayload::Analytic(AnalyticJob {
            work: SimDuration::ZERO,
            parallel_first: 0.0,
            parallel_last: 0.0,
            iterations: 0,
        });
        self.free_slots.push(slot);
    }

    // ----- placement -------------------------------------------------------

    fn place_pending(&mut self) -> SimResult<()> {
        if self.placing || self.queues.pending_total() == 0 {
            return Ok(());
        }
        self.placing = true;
        let result = self.place_rounds();
        self.placing = false;
        result
    }

    /// Serves the lowest-pass startable tenant until every remaining
    /// tenant is capacity-blocked or out of startable jobs. A tenant whose
    /// head job doesn't fit is skipped for the round; if a terminal
    /// failure during placement returned capacity to a cell, blocked
    /// tenants get another round.
    fn place_rounds(&mut self) -> SimResult<()> {
        let nt = self.queues.tenants.len();
        let mut blocked = std::mem::take(&mut self.blocked);
        loop {
            blocked.clear();
            blocked.resize(nt, false);
            self.freed_while_placing = false;
            while self.queues.pending_total() > 0 {
                let Some(ti) = self.queues.next_candidate(&blocked) else {
                    break;
                };
                if !self.try_place_head(ti)? {
                    blocked[ti] = true;
                }
            }
            if !self.freed_while_placing {
                break;
            }
        }
        self.blocked = blocked;
        Ok(())
    }

    /// Largest per-cell surviving capacity — the cap that keeps requests
    /// schedulable after crashes shrink cells.
    fn max_alive(&self) -> u32 {
        self.shards
            .iter()
            .flat_map(|s| &s.cells)
            .map(|c| c.alive)
            .max()
            .unwrap_or(0)
    }

    /// Places (or terminally fails) the head job of tenant `ti`. Returns
    /// `false` only when missing capacity is what prevents placement.
    fn try_place_head(&mut self, ti: usize) -> SimResult<bool> {
        let slot = *self.queues.tenants[ti].pending.front().expect("candidate");
        let req = self.slab[slot as usize].requested;
        let req_eff = req.min(self.max_alive());
        if req_eff == 0 {
            self.queues.pop_head(ti as u32);
            self.fail_pending(slot);
            return Ok(true);
        }
        // Work-balancing placement: the cell with the most free nodes,
        // ties to the lowest cell id (scan order is global cell order).
        let mut best: Option<(u32, usize)> = None;
        let mut cell_id = 0u32;
        for s in &self.shards {
            for c in &s.cells {
                if best.is_none_or(|(_, f)| c.free.len() > f) {
                    best = Some((cell_id, c.free.len()));
                }
                cell_id += 1;
            }
        }
        let min_grant = if self.moldable {
            req_eff.div_ceil(2)
        } else {
            req_eff
        };
        let Some((cell, free)) = best.filter(|&(_, f)| f >= min_grant as usize) else {
            return Ok(false);
        };
        let full = req_eff.min(free as u32);
        let grant = if self.whatif {
            self.whatif_grant(slot, full, cell)
        } else {
            full
        };
        self.queues.pop_head(ti as u32);
        self.queues.charge(ti, grant);
        self.queues.tenants[ti].inflight += 1;
        self.start_job(slot, cell, grant)?;
        Ok(true)
    }

    fn start_job(&mut self, slot: u32, cell_id: u32, grant: u32) -> SimResult<()> {
        let now = self.now;
        {
            let (s, l) = self.cell_loc[cell_id as usize];
            let cell = &mut self.shards[s as usize].cells[l as usize];
            let e = &mut self.slab[slot as usize];
            e.state = JobState::Running;
            e.cell = cell_id;
            e.held.clear();
            e.held.extend(cell.free.drain(..grant as usize));
        }
        for i in 0..grant as usize {
            let node = self.slab[slot as usize].held[i];
            self.holder[node as usize] = slot;
        }
        let e = &mut self.slab[slot as usize];
        let restart_cost = if e.pending_restart {
            self.ckpt.restart_cost
        } else {
            SimDuration::ZERO
        };
        e.pending_restart = false;
        let (id, tenant, restarts) = (e.id, e.tenant, e.restarts);
        let mut wait_ns = 0;
        if e.first_start.is_none() {
            e.first_start = Some(now);
            e.start_nodes = grant;
            e.fork_ok = self.whatif && matches!(e.payload, JobPayload::Boxed(_));
            wait_ns = (now - e.arrival).as_nanos();
            self.wait_hist.record(wait_ns);
            let tr = &mut self.tenants[tenant as usize];
            tr.started += 1;
            tr.wait_ns_sum += u128::from(wait_ns);
            tr.max_wait_ns = tr.max_wait_ns.max(wait_ns);
        }
        let op = if restarts > 0 {
            decision::RECOVER
        } else {
            decision::PLACE
        };
        self.journal_decision(op, id, tenant, cell_id, grant, wait_ns);
        self.schedule_phase(slot, restart_cost)
    }

    // ----- iteration pricing and scheduling --------------------------------

    /// `(span, work)` of the job's next iteration on its current
    /// allocation; boxed workloads are profiled through the cache behind a
    /// panic shield so one tenant's broken workload cannot take the
    /// service down. Panics are reported apart from typed errors because
    /// they are retryable (see [`Engine::retry_or_fail`]).
    fn payload_point(
        &mut self,
        slot: u32,
        phase: u32,
        n: u32,
    ) -> Result<(SimDuration, SimDuration), PointError> {
        match &self.slab[slot as usize].payload {
            JobPayload::Analytic(a) => {
                let (span, work, _) = a.point(phase, n);
                Ok((span, work))
            }
            JobPayload::Boxed(w) => {
                let w = w.clone();
                let cache = &mut self.cache;
                match catch_unwind(AssertUnwindSafe(|| cache.point(&*w, n, phase as usize))) {
                    Ok(Ok(p)) => Ok((p.span, p.cpu_work)),
                    Ok(Err(e)) => Err(PointError::Failed(e)),
                    Err(payload) => Err(PointError::Panicked(panic_message(&payload))),
                }
            }
        }
    }

    /// Allocation the next iteration should run on (the malleable target),
    /// capped at `cap`.
    fn target_nodes(&mut self, slot: u32, phase: u32, cap: u32) -> SimResult<u32> {
        let Some(min_eff) = self.min_eff else {
            return Ok(cap);
        };
        match &self.slab[slot as usize].payload {
            JobPayload::Analytic(a) => Ok(a.target_nodes(phase, min_eff, cap)),
            JobPayload::Boxed(w) => {
                let w = w.clone();
                let cache = &mut self.cache;
                let scan = catch_unwind(AssertUnwindSafe(|| -> SimResult<u32> {
                    let mut best = 1;
                    for n in 1..=cap {
                        if cache.efficiency(&*w, n, phase as usize)? >= min_eff {
                            best = n;
                        }
                    }
                    Ok(best)
                }));
                match scan {
                    Ok(r) => r,
                    Err(payload) => Err(SimError::protocol(format!(
                        "workload panicked while profiling: {}",
                        panic_message(&payload)
                    ))),
                }
            }
        }
    }

    fn schedule_phase(&mut self, slot: u32, restart_cost: SimDuration) -> SimResult<()> {
        let (phase, n, cell_id) = {
            let e = &self.slab[slot as usize];
            (e.phase, e.held.len() as u32, e.cell)
        };
        let (mut span, work) = match self.payload_point(slot, phase, n) {
            Ok(p) => {
                self.slab[slot as usize].profile_attempts = 0;
                p
            }
            Err(PointError::Failed(err)) => return self.fail_running(slot, err),
            Err(PointError::Panicked(msg)) => return self.retry_or_fail(slot, restart_cost, msg),
        };
        if !self.cpu_tl.is_empty() || !self.link_tl.is_empty() {
            let e = &self.slab[slot as usize];
            let cpu_f = e
                .held
                .iter()
                .map(|&node| self.cpu_tl.factor_at(node, self.now))
                .fold(1.0f64, f64::min);
            let link_f = e
                .held
                .iter()
                .map(|&node| self.link_tl.factor_at(node, self.now))
                .fold(1.0f64, f64::min);
            if cpu_f != 1.0 || link_f != 1.0 {
                // Split into an ideal compute share and a communication /
                // imbalance remainder, stretch each by its factor (the
                // batch server's pricing, verbatim).
                let compute = work.mul_f64(1.0 / f64::from(n.max(1))).min(span);
                let comm = span - compute;
                let slowed = compute.mul_f64(1.0 / cpu_f) + comm.mul_f64(1.0 / link_f);
                let extra = slowed.saturating_sub(span);
                self.cell_mut(cell_id).report.degraded_ns += u128::from(extra.as_nanos());
                span = slowed;
            }
        }
        if self.ckpt.checkpoints_after(phase as usize) {
            span += self.ckpt.checkpoint_cost;
        }
        {
            // A what-if CheckpointNow commit charges one extra checkpoint
            // to the iteration that follows the decision boundary.
            let ckpt_cost = self.ckpt.checkpoint_cost;
            let e = &mut self.slab[slot as usize];
            if e.extra_ckpt {
                e.extra_ckpt = false;
                span += ckpt_cost;
            }
        }
        span += restart_cost;
        // Zero-length iterations would stall the clock; floor at 1 ns.
        if span.is_zero() {
            span = SimDuration(1);
        }
        let now = self.now;
        let e = &mut self.slab[slot as usize];
        e.gen += 1;
        e.iter_start = now;
        e.iter_span = span;
        e.iter_work = work;
        let gen = e.gen;
        let cell = self.cell_mut(cell_id);
        cell.report.allocated_node_ns += u128::from(n) * u128::from(span.as_nanos());
        cell.queue.schedule(now + span, PhaseEnd { slot, gen });
        Ok(())
    }

    /// A profiling call panicked under `schedule_phase`: retry after a
    /// capped exponential backoff with deterministic jitter, up to
    /// [`RETRY_MAX`] attempts, then fail the job. The job keeps its nodes
    /// while backing off; the idle window is charged as allocated time.
    fn retry_or_fail(
        &mut self,
        slot: u32,
        restart_cost: SimDuration,
        msg: String,
    ) -> SimResult<()> {
        let attempt = self.slab[slot as usize].profile_attempts;
        if attempt >= RETRY_MAX {
            return self.fail_running(
                slot,
                SimError::protocol(format!(
                    "workload panicked while profiling ({RETRY_MAX} retries exhausted): {msg}"
                )),
            );
        }
        let (id, n, cell_id, epoch, gen) = {
            let e = &mut self.slab[slot as usize];
            e.profile_attempts += 1;
            (e.id, e.held.len() as u32, e.cell, e.epoch, e.gen)
        };
        self.profile_retries += 1;
        let backoff = SimDuration(
            RETRY_BASE
                .as_nanos()
                .saturating_mul(1u64 << attempt.min(20))
                .min(RETRY_CAP.as_nanos())
                + retry_jitter(id, attempt),
        );
        self.cell_mut(cell_id).report.allocated_node_ns +=
            u128::from(n) * u128::from(backoff.as_nanos());
        self.global.schedule(
            self.now + backoff,
            GlobalEv::RetryPhase {
                slot,
                epoch,
                gen,
                restart: restart_cost,
            },
        );
        Ok(())
    }

    /// A profiling retry came due. Stale retries — the job was meanwhile
    /// interrupted, cancelled, or its slot reused — are dropped by the
    /// epoch/gen guard.
    fn handle_retry(
        &mut self,
        slot: u32,
        epoch: u32,
        gen: u32,
        restart: SimDuration,
    ) -> SimResult<()> {
        let e = &self.slab[slot as usize];
        if e.epoch != epoch || e.gen != gen || e.state != JobState::Running {
            return Ok(());
        }
        self.schedule_phase(slot, restart)
    }

    fn handle_phase_end(&mut self, cell_id: u32, pe: PhaseEnd) -> SimResult<()> {
        {
            let e = &self.slab[pe.slot as usize];
            if e.state != JobState::Running || e.gen != pe.gen {
                return Ok(()); // stale (interrupted or cancelled meanwhile)
            }
        }
        let (iterations, iter_work) = {
            let e = &mut self.slab[pe.slot as usize];
            let completed = e.phase as usize;
            e.phase += 1;
            e.done_work += e.iter_work;
            e.since_ckpt += e.iter_work;
            if self.ckpt.checkpoints_after(completed) {
                e.since_ckpt = SimDuration::ZERO;
            }
            (e.payload.iterations(), e.iter_work)
        };
        {
            let cell = self.cell_mut(cell_id);
            cell.report.iterations += 1;
            cell.report.committed_work_ns += u128::from(iter_work.as_nanos());
        }
        let e = &self.slab[pe.slot as usize];
        if e.phase >= iterations {
            return self.complete_job(pe.slot);
        }
        // Resize at the boundary: shrink to the efficiency target, or grow
        // back into the cell's free nodes when capacity allows.
        let (phase, n, req, max_nodes) = (
            e.phase,
            e.held.len() as u32,
            e.requested,
            e.payload.max_nodes(),
        );
        let cell_free = self.cell_mut(cell_id).free.len() as u32;
        let cap = req.min(n + cell_free).min(max_nodes).max(1);
        let action = if self.whatif {
            match self.whatif_boundary(pe.slot, cell_id, phase, n, cap) {
                Ok(a) => a,
                Err(err) => return self.fail_running(pe.slot, err),
            }
        } else {
            match self.target_nodes(pe.slot, phase, cap) {
                Ok(t) => WhatIfAction::Resize(t),
                Err(err) => return self.fail_running(pe.slot, err),
            }
        };
        let target = match action {
            WhatIfAction::Migrate { cell, nodes } => {
                return self.migrate_job(pe.slot, cell, nodes, phase);
            }
            WhatIfAction::Resize(t) => t,
        };
        if target != n {
            let (s, l) = self.cell_loc[cell_id as usize];
            let cell = &mut self.shards[s as usize].cells[l as usize];
            let e = &mut self.slab[pe.slot as usize];
            if target < n {
                e.held.sort_unstable();
                for node in e.held.split_off(target as usize) {
                    self.holder[node as usize] = NO_HOLDER;
                    cell.release_node(node);
                }
            } else {
                let take = (target - n) as usize;
                let start = e.held.len();
                e.held.extend(cell.free.drain(..take));
                for i in start..e.held.len() {
                    self.holder[e.held[i] as usize] = pe.slot;
                }
            }
        }
        if target < n {
            let (id, tenant) = {
                let e = &self.slab[pe.slot as usize];
                (e.id, e.tenant)
            };
            self.journal_decision(
                decision::SHRINK,
                id,
                tenant,
                cell_id,
                target,
                u64::from(n - target),
            );
        }
        self.schedule_phase(pe.slot, SimDuration::ZERO)?;
        if target < n {
            // Shrinking freed capacity other tenants may be waiting for.
            self.place_pending()?;
        }
        Ok(())
    }

    // ----- what-if scheduling ----------------------------------------------

    /// What-if placement sizing: score granting the full free allocation
    /// against the efficiency target and a half grant, and start the job on
    /// the winner. Falls back to the full grant if any candidate fails to
    /// score — the job then fails at start with the same error,
    /// deterministically, on its own slot.
    fn whatif_grant(&mut self, slot: u32, full: u32, cell_id: u32) -> u32 {
        let started = self.measure.then(Instant::now);
        let min_eff = self.min_eff.unwrap_or(0.0);
        let phase = self.slab[slot as usize].phase;
        let Ok(target) = self.target_nodes(slot, phase, full) else {
            return full;
        };
        let mut cands: Vec<(CandidateKind, u32)> = vec![(CandidateKind::Keep, full)];
        for (kind, m) in [
            (CandidateKind::ShrinkTarget, target.min(full).max(1)),
            (CandidateKind::ShrinkHalf, (full / 2).max(1)),
        ] {
            if !cands.iter().any(|&(_, em)| em == m) {
                cands.push((kind, m));
            }
        }
        let mut scored: Vec<(CandidateKind, u32, CandidateScore)> = Vec::with_capacity(cands.len());
        for &(kind, m) in &cands {
            // `fork_ok` is still false before the first start, so this
            // scores analytically or from the profile cache — no forking
            // on the placement path.
            let Ok(s) = self.score_resize_candidate(slot, phase, m, full) else {
                return full;
            };
            scored.push((kind, m, s));
        }
        let (id, tenant) = {
            let e = &self.slab[slot as usize];
            (e.id, e.tenant)
        };
        let mut win = 0;
        for (i, &(_, m, s)) in scored.iter().enumerate() {
            self.journal_decision(decision::CANDIDATE, id, tenant, cell_id, m, s.span_ns);
            if i > 0 && s.beats(&scored[win].2, min_eff) {
                win = i;
            }
        }
        let (kind, m, _) = scored[win];
        self.journal_decision(decision::WHATIF, id, tenant, cell_id, m, kind as u32 as u64);
        self.wi.decisions += 1;
        self.wi.candidates += scored.len() as u64;
        if let Some(t0) = started {
            self.decision_hist.record(t0.elapsed().as_nanos() as u64);
        }
        m
    }

    /// One what-if boundary decision for the job at `slot` (currently `n`
    /// nodes in `cell_id`, in-place cap `cap`, next iteration `phase`):
    /// enumerate candidate futures, score each by predicted dynamic
    /// efficiency, journal the slate, and commit the winner.
    fn whatif_boundary(
        &mut self,
        slot: u32,
        cell_id: u32,
        phase: u32,
        n: u32,
        cap: u32,
    ) -> SimResult<WhatIfAction> {
        let started = self.measure.then(Instant::now);
        let min_eff = self.min_eff.unwrap_or(0.0);
        let target = self.target_nodes(slot, phase, cap)?;
        // The candidate slate; enumeration order breaks exact score ties.
        fn push(
            cands: &mut Vec<(CandidateKind, u32, u32)>,
            kind: CandidateKind,
            m: u32,
            cell: u32,
        ) {
            if !cands.iter().any(|&(_, em, ec)| em == m && ec == cell) {
                cands.push((kind, m, cell));
            }
        }
        let mut cands: Vec<(CandidateKind, u32, u32)> = Vec::with_capacity(6);
        push(&mut cands, CandidateKind::Keep, n, cell_id);
        push(
            &mut cands,
            CandidateKind::ShrinkTarget,
            target.min(n).max(1),
            cell_id,
        );
        push(
            &mut cands,
            CandidateKind::ShrinkHalf,
            (n / 2).max(1),
            cell_id,
        );
        if cap > n {
            push(&mut cands, CandidateKind::Grow, cap, cell_id);
            if target > n {
                push(&mut cands, CandidateKind::Grow, target, cell_id);
            }
        }
        let (req, max_nodes) = {
            let e = &self.slab[slot as usize];
            (e.requested, e.payload.max_nodes())
        };
        // Migration: the roomiest *other* cell (ties to the lowest id, the
        // placement order), considered only when it offers more than any
        // in-place allocation can (`m > cap`, so migration always grows).
        let mut mig: Option<(u32, u32)> = None;
        let mut scan = 0u32;
        for s in &self.shards {
            for c in &s.cells {
                if scan != cell_id && mig.is_none_or(|(_, f)| c.free.len() as u32 > f) {
                    mig = Some((scan, c.free.len() as u32));
                }
                scan += 1;
            }
        }
        if let Some((to, free)) = mig {
            let m = req.min(free).min(max_nodes);
            if m > cap {
                push(&mut cands, CandidateKind::Migrate, m, to);
            }
        }
        // Score the slate; migration pays its checkpoint + restart up front.
        let mig_cost = (self.ckpt.checkpoint_cost + self.ckpt.restart_cost).as_nanos();
        let mut scored: Vec<(CandidateKind, u32, u32, CandidateScore)> =
            Vec::with_capacity(cands.len() + 1);
        for &(kind, m, cell) in &cands {
            let mut s = self.score_resize_candidate(slot, phase, m, n)?;
            if kind == CandidateKind::Migrate {
                s.span_ns = s.span_ns.saturating_add(mig_cost);
                s.alloc_node_ns += u128::from(m) * u128::from(mig_cost);
            }
            scored.push((kind, m, cell, s));
        }
        // Checkpoint-now: keep the allocation, pay one checkpoint next
        // iteration, credit the replay a future fault would no longer cost.
        // Only worth considering while faults can still strike and the
        // uncheckpointed work exceeds the checkpoint's own cost.
        let since_ckpt = self.slab[slot as usize].since_ckpt;
        if self.has_faults
            && !self.ckpt.checkpoint_cost.is_zero()
            && since_ckpt > self.ckpt.checkpoint_cost
        {
            let keep = scored[0].3;
            let cost = self.ckpt.checkpoint_cost.as_nanos();
            let s = CandidateScore {
                span_ns: keep
                    .span_ns
                    .saturating_add(cost)
                    .saturating_sub(since_ckpt.as_nanos()),
                work_ns: keep.work_ns,
                alloc_node_ns: keep.alloc_node_ns + u128::from(n) * u128::from(cost),
            };
            scored.push((CandidateKind::CheckpointNow, n, cell_id, s));
        }
        // Journal the slate and pick the winner (first wins exact ties).
        let (id, tenant) = {
            let e = &self.slab[slot as usize];
            (e.id, e.tenant)
        };
        let mut win = 0;
        for (i, &(_, m, cell, s)) in scored.iter().enumerate() {
            self.journal_decision(decision::CANDIDATE, id, tenant, cell, m, s.span_ns);
            if i > 0 && s.beats(&scored[win].3, min_eff) {
                win = i;
            }
        }
        let (kind, m, cell, _) = scored[win];
        self.journal_decision(decision::WHATIF, id, tenant, cell, m, kind as u32 as u64);
        self.wi.decisions += 1;
        self.wi.candidates += scored.len() as u64;
        let action = match kind {
            CandidateKind::Keep => WhatIfAction::Resize(n),
            CandidateKind::ShrinkTarget | CandidateKind::ShrinkHalf => {
                self.commit_shrink(slot, phase, n - m);
                WhatIfAction::Resize(m)
            }
            CandidateKind::Grow => {
                // The removal-plan language cannot express growth; from
                // here this job scores via profile suffixes.
                self.drop_session(slot);
                self.slab[slot as usize].fork_ok = false;
                WhatIfAction::Resize(m)
            }
            CandidateKind::Migrate => {
                self.drop_session(slot);
                self.slab[slot as usize].fork_ok = false;
                WhatIfAction::Migrate { cell, nodes: m }
            }
            CandidateKind::CheckpointNow => {
                let e = &mut self.slab[slot as usize];
                e.extra_ckpt = true;
                e.extra_ckpt_phase = phase;
                e.since_ckpt = SimDuration::ZERO;
                self.wi.extra_checkpoints += 1;
                WhatIfAction::Resize(n)
            }
        };
        if let Some(t0) = started {
            self.decision_hist.record(t0.elapsed().as_nanos() as u64);
        }
        Ok(action)
    }

    /// Commits a what-if migration: checkpoint here, restart on `nodes` in
    /// cell `to` (always a growth move — the scorer only proposes migration
    /// when the destination beats every in-place candidate).
    fn migrate_job(&mut self, slot: u32, to: u32, nodes: u32, phase: u32) -> SimResult<()> {
        self.return_held_nodes(slot, None);
        {
            let (s, l) = self.cell_loc[to as usize];
            let cell = &mut self.shards[s as usize].cells[l as usize];
            let e = &mut self.slab[slot as usize];
            e.cell = to;
            e.held.extend(cell.free.drain(..nodes as usize));
        }
        for i in 0..nodes as usize {
            let node = self.slab[slot as usize].held[i];
            self.holder[node as usize] = slot;
        }
        {
            // The move checkpoints first: replay drops to zero and a
            // post-move fault resumes at this phase.
            let e = &mut self.slab[slot as usize];
            e.since_ckpt = SimDuration::ZERO;
            e.extra_ckpt_phase = phase;
        }
        self.wi.migrations += 1;
        self.schedule_phase(slot, self.ckpt.checkpoint_cost + self.ckpt.restart_cost)?;
        // The vacated cell's nodes may unblock queued tenants.
        self.place_pending()
    }

    /// Scores "run the remaining iterations from `phase` on `m` nodes" for
    /// the job at `slot` (currently on `n`): the analytic closed form, the
    /// fork-realized future when the live session can model it (`m <= n`
    /// and the job never grew/migrated/restarted), or the memoized profile
    /// suffix otherwise.
    fn score_resize_candidate(
        &mut self,
        slot: u32,
        phase: u32,
        m: u32,
        n: u32,
    ) -> SimResult<CandidateScore> {
        match &self.slab[slot as usize].payload {
            JobPayload::Analytic(a) => {
                let a = *a;
                self.wi.analytic_scored += 1;
                Ok(a.suffix_score(phase, m))
            }
            JobPayload::Boxed(_) => {
                if m <= n && self.slab[slot as usize].fork_ok && self.breaker_admits_fork(slot) {
                    let before = self.session_steps(slot);
                    match self.fork_score(slot, phase, m, n)? {
                        Some(s) => {
                            let used = self.session_steps(slot).saturating_sub(before);
                            self.breaker_fork_outcome(slot, used);
                            return Ok(s);
                        }
                        None => self.breaker_fork_refused(slot),
                    }
                }
                self.profile_score(slot, phase, m)
            }
        }
    }

    // ----- circuit breaker -------------------------------------------------

    /// Committed simulator steps the job's warm session has consumed so
    /// far — the deterministic cost metric breaker budgets are charged in.
    fn session_steps(&self, slot: u32) -> u64 {
        self.sessions.get(&slot).map_or(0, |s| s.steps_used())
    }

    /// Journals a breaker state transition against the job whose decision
    /// triggered it (`start` = the new state's code, `work` = the
    /// decision's step cost when one caused the transition).
    fn journal_breaker(&mut self, slot: u32, st: BreakerState, steps: u64) {
        let (id, tenant, cell) = {
            let e = &self.slab[slot as usize];
            (e.id, e.tenant, e.cell)
        };
        self.journal_decision(decision::BREAKER, id, tenant, cell, st.code(), steps);
    }

    /// Consults the breaker before a fork-scored decision. `true` means
    /// the fork may proceed (closed, or a half-open probe was granted);
    /// `false` sends the decision to profile-priced fallback scoring.
    fn breaker_admits_fork(&mut self, slot: u32) -> bool {
        let Some(b) = &mut self.breaker else {
            return true;
        };
        let (ok, trans) = b.allow_fork(self.now);
        if let Some(st) = trans {
            self.journal_breaker(slot, st, 0);
        }
        ok
    }

    /// Settles a completed fork-scored decision with the breaker: a step
    /// cost over the budget is a breach, anything else a success.
    fn breaker_fork_outcome(&mut self, slot: u32, steps: u64) {
        let Some(b) = &mut self.breaker else { return };
        let trans = if steps > b.spec().max_steps_per_decision {
            b.record_breach(self.now)
        } else {
            b.record_ok()
        };
        if let Some(st) = trans {
            self.journal_breaker(slot, st, steps);
        }
    }

    /// A refused or unavailable fork while the breaker is armed counts as
    /// a breach: the service wanted exact scoring and could not get it.
    fn breaker_fork_refused(&mut self, slot: u32) {
        let Some(b) = &mut self.breaker else { return };
        let trans = b.record_breach(self.now);
        if let Some(st) = trans {
            self.journal_breaker(slot, st, 0);
        }
    }

    /// Scores a candidate by forking the job's live what-if session at the
    /// current barrier and executing its removal plan for real. `Ok(None)`
    /// means forking is unavailable (the backend refused, the run already
    /// finished, or no session could be opened) — the caller falls back to
    /// profile scoring.
    fn fork_score(
        &mut self,
        slot: u32,
        phase: u32,
        m: u32,
        n: u32,
    ) -> SimResult<Option<CandidateScore>> {
        let (key, start_nodes, mut plan) = {
            let e = &self.slab[slot as usize];
            let JobPayload::Boxed(w) = &e.payload else {
                return Ok(None);
            };
            (w.key(), e.start_nodes, e.plan.clone())
        };
        if m < n {
            plan.push((phase as usize, n - m));
        }
        let barrier = phase as usize;
        let fp = score_fingerprint(&key, start_nodes, &plan, barrier, m, FORK_TAG);
        if let Some(s) = self.cache.score(fp) {
            self.wi.memo_scored += 1;
            return Ok(Some(s));
        }
        if !self.ensure_session(slot) {
            return Ok(None);
        }
        let mut sess = self.sessions.remove(&slot).expect("session just ensured");
        let scored = catch_unwind(AssertUnwindSafe(
            || -> SimResult<Option<cluster::EfficiencyProfile>> {
                if !sess.advance_to_barrier(barrier)? {
                    return Ok(None);
                }
                Ok(Some(sess.score_plan(&plan)?))
            },
        ));
        match scored {
            Ok(Ok(Some(profile))) => {
                self.sessions.insert(slot, sess);
                let score = realized_suffix(&profile, start_nodes, &plan, barrier);
                self.cache.insert_score(fp, score);
                self.wi.fork_scored += 1;
                Ok(Some(score))
            }
            Ok(Ok(None)) => {
                // The warm base finished the whole run first: nothing left
                // to fork for this job, ever.
                self.session_order.retain(|&s| s != slot);
                self.slab[slot as usize].fork_ok = false;
                Ok(None)
            }
            Ok(Err(e)) if e.is_fork_refused() => {
                self.session_order.retain(|&s| s != slot);
                self.slab[slot as usize].fork_ok = false;
                Ok(None)
            }
            Ok(Err(e)) => {
                self.session_order.retain(|&s| s != slot);
                Err(e)
            }
            Err(payload) => {
                self.session_order.retain(|&s| s != slot);
                Err(SimError::protocol(format!(
                    "what-if session panicked: {}",
                    panic_message(&payload)
                )))
            }
        }
    }

    /// Scores a candidate from the memoized fixed-allocation profile at `m`
    /// nodes — the fallback predictor when forking is unavailable. Shares
    /// fingerprints with the batch server's `best_allocation`.
    fn profile_score(&mut self, slot: u32, phase: u32, m: u32) -> SimResult<CandidateScore> {
        let JobPayload::Boxed(w) = &self.slab[slot as usize].payload else {
            return Err(SimError::protocol("profile scoring needs a boxed workload"));
        };
        let w = w.clone();
        let fp = score_fingerprint(
            &w.key(),
            m,
            &[],
            phase as usize,
            m,
            CandidateKind::Keep as u32,
        );
        if let Some(s) = self.cache.score(fp) {
            self.wi.memo_scored += 1;
            return Ok(s);
        }
        let cache = &mut self.cache;
        let scored = catch_unwind(AssertUnwindSafe(|| -> SimResult<CandidateScore> {
            Ok(profile_suffix(cache.profile(&*w, m)?, phase as usize, m))
        }));
        match scored {
            Ok(Ok(s)) => {
                self.cache.insert_score(fp, s);
                self.wi.profile_scored += 1;
                Ok(s)
            }
            Ok(Err(e)) => Err(e),
            Err(payload) => Err(SimError::protocol(format!(
                "workload panicked while profiling: {}",
                panic_message(&payload)
            ))),
        }
    }

    /// Records a committed shrink in the job's removal plan and re-commits
    /// the full plan into its live session so future forks inherit it. A
    /// session that errors here degrades the job to profile scoring — a
    /// bookkeeping fork must never fail the job.
    fn commit_shrink(&mut self, slot: u32, phase: u32, count: u32) {
        let e = &mut self.slab[slot as usize];
        if !e.fork_ok {
            return;
        }
        e.plan.push((phase as usize, count));
        let plan = e.plan.clone();
        let Some(mut sess) = self.sessions.remove(&slot) else {
            return; // reopened lazily with the full plan on the next fork
        };
        match catch_unwind(AssertUnwindSafe(|| sess.commit_plan(&plan))) {
            Ok(Ok(())) => {
                self.sessions.insert(slot, sess);
            }
            _ => {
                self.session_order.retain(|&s| s != slot);
                self.slab[slot as usize].fork_ok = false;
            }
        }
    }

    /// Opens (or confirms) the warm what-if session for `slot`, committing
    /// the job's removal plan so far. FIFO-evicts the oldest session at
    /// [`MAX_SESSIONS`]. Returns `false` — and clears `fork_ok` — when the
    /// backend cannot provide one.
    fn ensure_session(&mut self, slot: u32) -> bool {
        if self.sessions.contains_key(&slot) {
            return true;
        }
        let (start_nodes, plan, w) = {
            let e = &self.slab[slot as usize];
            let JobPayload::Boxed(w) = &e.payload else {
                return false;
            };
            if !e.fork_ok {
                return false;
            }
            (e.start_nodes, e.plan.clone(), w.clone())
        };
        let opened = catch_unwind(AssertUnwindSafe(
            || -> SimResult<Option<Box<dyn WhatIfSession>>> {
                let Some(mut s) = w.whatif_session(start_nodes)? else {
                    return Ok(None);
                };
                if !plan.is_empty() {
                    s.commit_plan(&plan)?;
                }
                Ok(Some(s))
            },
        ));
        match opened {
            Ok(Ok(Some(s))) => {
                while self.sessions.len() >= MAX_SESSIONS {
                    match self.session_order.pop_front() {
                        Some(old) => {
                            self.sessions.remove(&old);
                        }
                        None => break,
                    }
                }
                self.sessions.insert(slot, s);
                self.session_order.push_back(slot);
                self.wi.sessions_opened += 1;
                true
            }
            _ => {
                self.slab[slot as usize].fork_ok = false;
                false
            }
        }
    }

    /// Forgets the warm session for `slot` (if any), keeping the FIFO
    /// order stale-free so a reused slot cannot be evicted by its previous
    /// occupant's entry.
    fn drop_session(&mut self, slot: u32) {
        if self.sessions.remove(&slot).is_some() {
            self.session_order.retain(|&s| s != slot);
        }
    }

    // ----- terminal transitions --------------------------------------------

    fn return_held_nodes(&mut self, slot: u32, skip: Option<u32>) {
        let cell_id = self.slab[slot as usize].cell;
        let (s, l) = self.cell_loc[cell_id as usize];
        let cell = &mut self.shards[s as usize].cells[l as usize];
        let e = &mut self.slab[slot as usize];
        for node in e.held.drain(..) {
            self.holder[node as usize] = NO_HOLDER;
            if Some(node) != skip {
                cell.release_node(node);
            }
        }
    }

    fn complete_job(&mut self, slot: u32) -> SimResult<()> {
        let (id, tenant, cell_id, n, turnaround) = {
            let e = &self.slab[slot as usize];
            (
                e.id,
                e.tenant,
                e.cell,
                e.held.len() as u32,
                (self.now - e.arrival).as_nanos(),
            )
        };
        self.return_held_nodes(slot, None);
        self.cell_mut(cell_id).report.completed += 1;
        self.tenants[tenant as usize].completed += 1;
        self.queues.tenants[tenant as usize].inflight -= 1;
        self.makespan = self.makespan.max(self.now);
        self.journal_decision(decision::COMPLETE, id, tenant, cell_id, n, turnaround);
        self.release_slot(slot);
        self.place_pending()
    }

    /// Terminal failure of a *running* job (workload error or panic): its
    /// nodes return to the cell, the tenant's quota frees, the service
    /// keeps serving everyone else.
    fn fail_running(&mut self, slot: u32, _err: SimError) -> SimResult<()> {
        let (id, tenant, cell_id, n) = {
            let e = &self.slab[slot as usize];
            (e.id, e.tenant, e.cell, e.held.len() as u32)
        };
        self.return_held_nodes(slot, None);
        if self.placing {
            // Failed at start, under the placement loop: its nodes are
            // free again, so capacity-blocked tenants deserve a retry.
            self.freed_while_placing = true;
        }
        self.cell_mut(cell_id).report.failed += 1;
        self.tenants[tenant as usize].failed += 1;
        self.queues.tenants[tenant as usize].inflight -= 1;
        self.makespan = self.makespan.max(self.now);
        self.journal_decision(decision::FAIL, id, tenant, cell_id, n, 0);
        self.release_slot(slot);
        self.place_pending()
    }

    /// Terminal failure of a job still in the queue (no surviving cell can
    /// ever host it).
    fn fail_pending(&mut self, slot: u32) {
        let (id, tenant, req) = {
            let e = &self.slab[slot as usize];
            (e.id, e.tenant, e.requested)
        };
        self.tenants[tenant as usize].failed += 1;
        self.makespan = self.makespan.max(self.now);
        self.journal_decision(decision::FAIL, id, tenant, NO_CELL, req, 0);
        self.release_slot(slot);
    }

    // ----- faults, returns, requeues, cancellations ------------------------

    fn handle_fault(&mut self, o: &Outage) -> SimResult<()> {
        let node = o.node;
        if node as usize >= self.holder.len() || self.dead[node as usize] {
            return Ok(());
        }
        let crash = o.returns.is_none();
        let cell_id = node / self.cfg.nodes_per_cell;
        if self.away[node as usize] {
            // Already out of service; a crash while away is permanent.
            if crash {
                self.dead[node as usize] = true;
                self.cell_mut(cell_id).alive -= 1;
            }
            return Ok(());
        }
        let holder = self.holder[node as usize];
        if holder == NO_HOLDER {
            self.cell_mut(cell_id).take_node(node);
        } else {
            self.interrupt(holder, node)?;
        }
        if crash {
            self.dead[node as usize] = true;
            self.cell_mut(cell_id).alive -= 1;
        } else {
            self.away[node as usize] = true;
            self.global.schedule(
                o.returns.expect("preemption returns"),
                GlobalEv::Return(node),
            );
        }
        self.place_pending()
    }

    /// A fault struck a held node: refund the unfinished remainder of the
    /// iteration (same cell), charge the replay + in-flight fraction as
    /// lost work, and re-queue the job — immediately (head of its tenant's
    /// queue) under rigid/malleable, after a capped exponential backoff
    /// under elastic recovery. The re-placed job may land in *any* cell:
    /// recovery is cross-shard by construction.
    fn interrupt(&mut self, slot: u32, node: u32) -> SimResult<()> {
        let now = self.now;
        let (id, tenant, cell_id, grant, lost_ns, epoch) = {
            let e = &mut self.slab[slot as usize];
            debug_assert_eq!(e.state, JobState::Running);
            let elapsed = now - e.iter_start;
            let remaining = e.iter_span.saturating_sub(elapsed);
            let partial = if e.iter_span.is_zero() {
                SimDuration::ZERO
            } else {
                SimDuration(
                    (u128::from(e.iter_work.as_nanos()) * u128::from(elapsed.as_nanos())
                        / u128::from(e.iter_span.as_nanos())) as u64,
                )
            };
            let replay = if self.elastic {
                e.since_ckpt
            } else {
                e.done_work
            };
            e.restarts += 1;
            e.done_work -= replay;
            e.since_ckpt = SimDuration::ZERO;
            e.resume_phase = if self.elastic {
                (self.ckpt.resume_point(e.phase as usize) as u32).max(e.extra_ckpt_phase)
            } else {
                0
            };
            // A restart invalidates the forked future (the live session
            // does not model replay); fall back to profile scoring.
            e.fork_ok = false;
            e.extra_ckpt = false;
            e.phase = e.resume_phase;
            e.pending_restart = self.elastic && e.resume_phase > 0;
            e.gen += 1;
            let grant = e.held.len() as u32;
            let refund = u128::from(grant) * u128::from(remaining.as_nanos());
            let lost = replay + partial;
            let (cell_id, id, tenant, epoch) = (e.cell, e.id, e.tenant, e.epoch);
            let cell = {
                let (s, l) = self.cell_loc[cell_id as usize];
                &mut self.shards[s as usize].cells[l as usize]
            };
            cell.report.allocated_node_ns -= refund;
            cell.report.lost_work_ns += u128::from(lost.as_nanos());
            cell.report.replayed_work_ns += u128::from(replay.as_nanos());
            cell.report.restarts += 1;
            (id, tenant, cell_id, grant, lost.as_nanos(), epoch)
        };
        self.return_held_nodes(slot, Some(node));
        self.drop_session(slot);
        self.queues.tenants[tenant as usize].inflight -= 1;
        self.journal_decision(decision::REQUEUE, id, tenant, cell_id, grant, lost_ns);
        if let Some((base, max)) = self.backoff {
            let shift = (self.slab[slot as usize].restarts - 1).min(20);
            let backoff = SimDuration(
                base.as_nanos()
                    .saturating_mul(1u64 << shift)
                    .min(max.as_nanos()),
            );
            self.slab[slot as usize].state = JobState::Limbo;
            self.global
                .schedule(now + backoff, GlobalEv::Requeue { slot, epoch });
        } else {
            self.slab[slot as usize].state = JobState::Pending;
            self.queues.push_front(tenant, slot);
        }
        Ok(())
    }

    fn handle_return(&mut self, node: u32) -> SimResult<()> {
        self.away[node as usize] = false;
        if self.dead[node as usize] {
            return Ok(()); // crashed while away: never rejoins
        }
        let cell_id = node / self.cfg.nodes_per_cell;
        self.cell_mut(cell_id).release_node(node);
        self.place_pending()
    }

    fn handle_requeue(&mut self, slot: u32, epoch: u32) -> SimResult<()> {
        let e = &mut self.slab[slot as usize];
        if e.epoch != epoch || e.state != JobState::Limbo {
            return Ok(()); // cancelled while in limbo
        }
        e.state = JobState::Pending;
        let tenant = e.tenant;
        self.queues.push_front(tenant, slot);
        self.place_pending()
    }

    fn handle_cancel(&mut self, slot: u32, epoch: u32) -> SimResult<()> {
        if self.slab[slot as usize].epoch != epoch {
            return Ok(()); // job already finished
        }
        let (id, tenant, state, cell_id) = {
            let e = &self.slab[slot as usize];
            (e.id, e.tenant, e.state, e.cell)
        };
        match state {
            JobState::Pending => {
                let removed = self.queues.remove(tenant, slot);
                debug_assert!(removed, "pending job must be queued");
                self.journal_decision(decision::CANCEL, id, tenant, NO_CELL, 0, 0);
            }
            JobState::Limbo => {
                self.journal_decision(decision::CANCEL, id, tenant, NO_CELL, 0, 0);
            }
            JobState::Running => {
                let (grant, refund) = {
                    let e = &self.slab[slot as usize];
                    let elapsed = self.now - e.iter_start;
                    let remaining = e.iter_span.saturating_sub(elapsed);
                    (
                        e.held.len() as u32,
                        u128::from(e.held.len() as u64) * u128::from(remaining.as_nanos()),
                    )
                };
                self.slab[slot as usize].gen += 1; // stale out the PhaseEnd
                self.return_held_nodes(slot, None);
                let cell = self.cell_mut(cell_id);
                cell.report.allocated_node_ns -= refund;
                cell.report.cancelled += 1;
                self.queues.tenants[tenant as usize].inflight -= 1;
                self.journal_decision(decision::CANCEL, id, tenant, cell_id, grant, 0);
            }
        }
        self.tenants[tenant as usize].cancelled += 1;
        self.makespan = self.makespan.max(self.now);
        self.release_slot(slot);
        if state == JobState::Running {
            self.place_pending()?;
        }
        Ok(())
    }
}

/// Why a profile-point lookup failed: a typed workload error is terminal;
/// a panic is retryable.
enum PointError {
    Failed(SimError),
    Panicked(String),
}

/// Deterministic sub-millisecond retry jitter: a mix of the job id and the
/// attempt number, so backoff instants never depend on host state yet
/// de-synchronize jobs that panicked at the same instant.
fn retry_jitter(id: u64, attempt: u32) -> u64 {
    let mut x = id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ u64::from(attempt).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 29;
    x % RETRY_JITTER_NS
}

/// Best-effort panic payload rendering (mirrors the bench harness).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TenantSpec;
    use crate::job::SyntheticLoad;

    fn small_cfg(shards: u32) -> ServiceConfig {
        ServiceConfig::new(
            4,
            4,
            shards,
            SchedulePolicy::Malleable {
                min_efficiency: 0.5,
            },
        )
        .with_tenant(TenantSpec::new("a", 2))
        .with_tenant(TenantSpec::new("b", 1))
    }

    fn small_load(jobs: u64) -> SyntheticLoad {
        SyntheticLoad::new(
            jobs,
            2,
            4,
            SimDuration::from_millis(50),
            SimDuration::from_millis(400),
            11,
        )
    }

    #[test]
    fn quiet_run_completes_every_admitted_job() {
        let svc = ClusterService::new(small_cfg(2)).unwrap();
        let out = svc
            .serve(
                small_load(300),
                &FaultPlan::none(),
                &ServeOptions::default(),
            )
            .unwrap();
        let r = &out.report;
        assert_eq!(r.submitted, 300);
        assert_eq!(r.rejected_jobs(), 0);
        assert_eq!(r.completed_jobs(), 300);
        assert_eq!(r.failed_jobs(), 0);
        assert!(r.makespan > SimTime::ZERO);
        assert!(r.events > 300);
        assert!(r.allocation_efficiency() > 0.0);
    }

    #[test]
    fn event_budget_fires_a_typed_error() {
        let svc = ClusterService::new(small_cfg(1)).unwrap();
        let opts = ServeOptions {
            budget: ServiceBudget {
                max_events: 10,
                max_virtual_time: SimDuration::ZERO,
            },
            ..ServeOptions::default()
        };
        let err = svc
            .serve(small_load(300), &FaultPlan::none(), &opts)
            .unwrap_err();
        assert!(matches!(
            err.kind,
            SimErrorKind::BudgetExceeded {
                kind: BudgetKind::Steps,
                ..
            }
        ));
    }

    #[test]
    fn virtual_time_budget_fires_a_typed_error() {
        let svc = ClusterService::new(small_cfg(1)).unwrap();
        let opts = ServeOptions {
            budget: ServiceBudget {
                max_events: 0,
                max_virtual_time: SimDuration::from_millis(1),
            },
            ..ServeOptions::default()
        };
        let err = svc
            .serve(small_load(300), &FaultPlan::none(), &opts)
            .unwrap_err();
        assert!(matches!(
            err.kind,
            SimErrorKind::BudgetExceeded {
                kind: BudgetKind::VirtualTime,
                ..
            }
        ));
    }

    #[test]
    fn cancel_token_aborts_between_events() {
        let svc = ClusterService::new(small_cfg(1)).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let opts = ServeOptions {
            cancel: Some(token),
            ..ServeOptions::default()
        };
        let err = svc
            .serve(small_load(300_000), &FaultPlan::none(), &opts)
            .unwrap_err();
        assert!(matches!(err.kind, SimErrorKind::Cancelled { .. }));
    }

    #[test]
    fn decision_journal_names_every_kind() {
        let svc = ClusterService::new(small_cfg(2)).unwrap();
        let opts = ServeOptions {
            journal: true,
            ..ServeOptions::default()
        };
        let out = svc
            .serve(small_load(200), &FaultPlan::none(), &opts)
            .unwrap();
        let j = out.journal.expect("journal requested");
        assert_eq!(&j.labels[..], &DECISION_LABELS[..]);
        assert!(j.len() > 400, "admit + place + complete per job");
        let mut ops = vec![0u64; DECISION_LABELS.len()];
        for entry in &j.entries {
            if let JournalEvent::Step { op, .. } = entry.event {
                ops[op as usize] += 1;
            }
        }
        assert_eq!(ops[decision::ADMIT as usize], 200);
        assert_eq!(ops[decision::PLACE as usize], 200);
        assert_eq!(ops[decision::COMPLETE as usize], 200);
        // Round-trips through the binary format.
        let decoded = Journal::decode(&j.encode()).unwrap();
        assert!(decoded.same_stream(&j));
    }

    #[test]
    fn stream_with_decreasing_arrivals_is_a_protocol_error() {
        let svc = ClusterService::new(small_cfg(1)).unwrap();
        let job = |at: u64| {
            JobSpec::analytic(
                0,
                SimTime(at),
                2,
                AnalyticJob {
                    work: SimDuration::from_millis(10),
                    parallel_first: 0.8,
                    parallel_last: 0.8,
                    iterations: 1,
                },
            )
        };
        let err = svc
            .serve(
                vec![job(100), job(50)],
                &FaultPlan::none(),
                &ServeOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(err.kind, SimErrorKind::Protocol { .. }));
    }
}
