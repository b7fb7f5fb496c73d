//! The job-service workloads: `server-scale`, `server-whatif` and
//! `server-recover`.
//!
//! All three are open loop in virtual time: the arrivals are fixed by the
//! seed and the queue may grow, which `p99_wait_sim_s` shows. On the host
//! each serve runs as one batch at the stated input size. Set-up builds the
//! job stream in memory; every measured serve consumes a copy of it, so the
//! stream's generation cost is set-up time, not serve time.
//!
//! The traced serves hand the service a [`TimedStream`] and, for boxed LU
//! jobs, [`TimedWorkload`]s; `server-recover` additionally calls the two
//! halves of `serve_durable` and of `recover` itself so that the WAL's
//! framing and scanning are timed apart from the serve.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cluster::Workload;
use cluster_svc::{
    ClusterService, CrashPlan, DurabilitySpec, JobPayload, JobSpec, ResumePrefix, ServeOptions,
    ServiceConfig, ServiceOutcome, ServiceReport, WriteAheadLog,
};
use desim::{Journal, SimTime};
use dps_sim::SimResult;
use faults::FaultPlan;
use workload::{
    server_scale_config, server_scale_load, server_whatif_config, LuWorkload, SimEnv,
    CHAOS_GROUP_EVENTS,
};

use crate::heap;
use crate::layers::{Clocks, Span, TimedStream, TimedWorkload};
use crate::refclock::RefClock;
use crate::report::{median, metric, quantile, ratio, Metric, Outcome, SplitMix, Tally};
use crate::split::Split;

/// Shard count of every service (an execution grouping: reports are
/// byte-identical at any count, and all shards run on one thread).
const SHARDS: u32 = 4;

/// Set-up repetitions per run (the median is reported).
const SETUP_REPS: usize = 5;

/// Crash points recovered from per durable serve.
const CRASH_POINTS: usize = 3;

/// Input sizes of the three workloads.
#[derive(Clone, Copy)]
pub struct Sizes {
    /// Synthetic jobs of `server-scale`.
    pub scale_jobs: u64,
    /// Synthetic jobs of `server-whatif`.
    pub whatif_jobs: u64,
    /// `(n, r)` of the distinct LU shapes mixed into `server-whatif`.
    pub whatif_shapes: &'static [(usize, usize)],
    /// Boxed LU jobs of `server-whatif` (each shape repeats).
    pub whatif_boxed: usize,
    /// Synthetic jobs of `server-recover`.
    pub recover_jobs: u64,
}

/// The benchmark's sizes.
pub const FULL: Sizes = Sizes {
    scale_jobs: 1_050_000,
    whatif_jobs: 60_000,
    // Eight distinct shapes (four orders × 8 or 12 column blocks), each
    // submitted three times: the first profile of a shape misses the
    // ProfileCache and the repeats hit.
    whatif_shapes: &[
        (648, 81),
        (648, 54),
        (864, 108),
        (864, 72),
        (1080, 135),
        (1080, 90),
        (1296, 162),
        (1296, 108),
    ],
    whatif_boxed: 24,
    recover_jobs: 350_000,
};

/// Sizes small enough for a debug-build test.
pub const SMALL: Sizes = Sizes {
    scale_jobs: 3_000,
    whatif_jobs: 800,
    whatif_shapes: &[(144, 18), (144, 12), (192, 24)],
    whatif_boxed: 6,
    recover_jobs: 3_000,
};

/// Largest node request in the stream (one cell).
const MAX_REQUEST: u32 = 8;

/// Builds `server-whatif`'s stream: the seeded synthetic stream plus
/// boxed LU jobs spread evenly over its span, the shapes assigned to the
/// slots in a seeded order.
pub fn whatif_specs(seed: u64, sizes: &Sizes) -> Vec<JobSpec> {
    let env = SimEnv::paper_seeded(seed).with_engine_threads(1);
    let shapes: Vec<Arc<dyn Workload>> = sizes
        .whatif_shapes
        .iter()
        .map(|&(n, r)| {
            let mut cfg = env.lu_sized(n, r, MAX_REQUEST);
            cfg.workers = MAX_REQUEST;
            Arc::new(LuWorkload::new(cfg, env.net, env.simcfg.clone())) as Arc<dyn Workload>
        })
        .collect();
    let mut slots: Vec<usize> = (0..sizes.whatif_boxed).map(|i| i % shapes.len()).collect();
    let mut rng = SplitMix::new(seed, 2);
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.range(0, i as u64) as usize);
    }
    let mut specs: Vec<JobSpec> = server_scale_load(sizes.whatif_jobs, seed).collect();
    let horizon = specs.last().map_or(0, |s| s.arrival.as_nanos());
    let boxed = slots.len() as u64;
    for (i, &shape) in slots.iter().enumerate() {
        let arrival = SimTime(horizon.saturating_mul(i as u64 + 1) / (boxed + 1));
        specs.push(JobSpec::boxed(
            0,
            arrival,
            MAX_REQUEST,
            Arc::clone(&shapes[shape]),
        ));
    }
    // Stable: equal arrivals keep synthetic-before-boxed order.
    specs.sort_by_key(|s| s.arrival);
    specs
}

/// The same stream with every boxed job wrapped in a [`TimedWorkload`].
pub fn timed_specs(specs: &[JobSpec], clocks: &Arc<Clocks>) -> Vec<JobSpec> {
    specs
        .iter()
        .map(|s| match &s.payload {
            JobPayload::Boxed(w) => JobSpec {
                payload: JobPayload::Boxed(Arc::new(TimedWorkload::new(
                    Arc::clone(w),
                    Arc::clone(clocks),
                ))),
                ..s.clone()
            },
            JobPayload::Analytic(_) => s.clone(),
        })
        .collect()
}

/// Builds the stream `SETUP_REPS` times; returns the set-up times in
/// reference seconds and the last stream.
fn set_up(build: impl Fn() -> Vec<JobSpec>, rc: &mut RefClock) -> (Vec<f64>, Vec<JobSpec>) {
    let mut times = Vec::new();
    let mut specs = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        specs = build();
        times.push(start.elapsed().as_secs_f64() * rc.factor());
    }
    (times, specs)
}

/// One serve's time and report.
struct Served {
    /// Reference seconds.
    wall: f64,
    /// Host seconds.
    host: f64,
    report: ServiceReport,
}

/// Checks a quiet serve's report: every submitted job accounted for, none
/// failed or cancelled, and the canonical report equal to the first one.
fn check_report(reference: &mut Option<String>, report: &ServiceReport) -> Vec<String> {
    let mut problems = Vec::new();
    let r = report;
    let settled = r.completed_jobs() + r.failed_jobs() + r.rejected_jobs();
    if settled != r.submitted || r.cancelled_jobs() != 0 {
        problems.push(format!(
            "{} submitted but {} completed + {} failed + {} rejected ({} cancelled)",
            r.submitted,
            r.completed_jobs(),
            r.failed_jobs(),
            r.rejected_jobs(),
            r.cancelled_jobs()
        ));
    }
    if r.failed_jobs() != 0 {
        problems.push(format!("{} jobs failed in a quiet run", r.failed_jobs()));
    }
    let canonical = r.canonical_string();
    match reference {
        Some(first) if *first != canonical => {
            problems.push("canonical report differs from the first serve".into());
        }
        Some(_) => {}
        None => *reference = Some(canonical),
    }
    problems
}

/// Serves copies of `specs` until `budget` has passed (at least once).
fn serve_loop(
    svc: &ClusterService,
    specs: &[JobSpec],
    budget: Duration,
    rc: &mut RefClock,
    reference: &mut Option<String>,
    tally: &mut Tally,
) -> Vec<Served> {
    let mut served = Vec::new();
    let start = Instant::now();
    loop {
        let stream = specs.to_vec();
        let t = Instant::now();
        let out = svc.serve(stream, &FaultPlan::none(), &ServeOptions::default());
        let host = t.elapsed().as_secs_f64();
        let wall = host * rc.factor();
        match out {
            Ok(out) => {
                tally.op(check_report(reference, &out.report));
                served.push(Served {
                    wall,
                    host,
                    report: out.report,
                });
            }
            Err(e) => tally.fail(format!("serve: {e}")),
        }
        if start.elapsed() >= budget {
            return served;
        }
    }
}

/// One traced serve: the service pulls from a [`TimedStream`].
fn serve_traced(
    svc: &ClusterService,
    stream: Vec<JobSpec>,
    opts: &ServeOptions,
    clocks: &Arc<Clocks>,
) -> (f64, SimResult<ServiceOutcome>) {
    let start = Instant::now();
    let out = clocks.serve.time(|| {
        svc.serve(
            TimedStream::new(stream.into_iter(), Arc::clone(clocks)),
            &FaultPlan::none(),
            opts,
        )
    });
    (start.elapsed().as_secs_f64(), out)
}

/// Work per reference second over all of `served`: total over total,
/// which averages the host's slow and fast spells instead of picking one.
fn rate(served: &[Served], work: impl Fn(&ServiceReport) -> u64) -> f64 {
    let done: u64 = served.iter().map(|s| work(&s.report)).sum();
    ratio(done as f64, served.iter().map(|s| s.wall).sum())
}

/// Completed jobs per host second over all of `served`.
fn host_rate(served: &[Served]) -> f64 {
    let done: u64 = served.iter().map(|s| s.report.completed_jobs()).sum();
    ratio(done as f64, served.iter().map(|s| s.host).sum())
}

/// The end-to-end metrics shared by the service workloads.
fn service_metrics(
    setup: &[f64],
    peak_heap_mb: f64,
    throughput: &[Served],
    op_walls: &[f64],
) -> Vec<Metric> {
    let eff = throughput
        .first()
        .map_or(0.0, |s| s.report.allocation_efficiency());
    vec![
        metric("setup_s", median(setup), "s"),
        metric("peak_heap_mb", peak_heap_mb, "MB"),
        metric("sim_events_per_s", rate(throughput, |r| r.events), "1/s"),
        metric(
            "jobs_per_s",
            rate(throughput, ServiceReport::completed_jobs),
            "1/s",
        ),
        metric("op_p50_ms", median(op_walls) * 1e3, "ms"),
        metric("op_p90_ms", quantile(op_walls, 0.9) * 1e3, "ms"),
        metric("alloc_eff_pct", 100.0 * eff, "%"),
    ]
}

/// The virtual-time guards of a service report.
fn guard_table(report: Option<&ServiceReport>) -> Vec<Metric> {
    let Some(r) = report else {
        return Vec::new();
    };
    vec![
        metric("submitted", r.submitted as f64, "count"),
        metric("p99_wait_sim_s", r.p99_wait().as_secs_f64(), "s"),
        metric("alloc_eff_pct", 100.0 * r.allocation_efficiency(), "%"),
    ]
}

/// Counters of the `cluster` layer, from a serve's report.
fn cluster_counters(split: &mut Split, r: &ServiceReport) {
    split.cache_hits = r.cache_hits;
    split.cache_misses = r.cache_misses;
    split.cache_evictions = r.cache_evictions;
    split.fork_scored = r.whatif.fork_scored;
    split.memo_scored = r.whatif.memo_scored;
    split.profile_scored = r.whatif.profile_scored;
    split.analytic_scored = r.whatif.analytic_scored;
    split.sessions_opened = r.whatif.sessions_opened;
    split.candidates = r.whatif.candidates;
    split.events = r.events;
}

/// `server-scale` and `server-whatif`: repeated serves of one stream.
fn run_serving(
    cfg: ServiceConfig,
    build: impl Fn() -> Vec<JobSpec>,
    whatif: bool,
    seconds: f64,
    trace: bool,
) -> Outcome {
    let mut tally = Tally::default();
    let mut rc = RefClock::start();
    let (setup, specs) = set_up(build, &mut rc);
    let svc = match ClusterService::new(cfg) {
        Ok(svc) => svc,
        Err(e) => {
            tally.fail(format!("service config: {e}"));
            return Outcome {
                tally,
                metrics: Vec::new(),
                table: Vec::new(),
            };
        }
    };
    let budget = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });
    let mut reference = None;
    heap::reset_peak();
    let served = serve_loop(&svc, &specs, budget, &mut rc, &mut reference, &mut tally);
    let peak_heap_mb = heap::peak_mb();
    let walls: Vec<f64> = served.iter().map(|s| s.wall).collect();
    let mut table = vec![
        metric("serves", served.len() as f64, "count"),
        metric(
            "jobs_per_s",
            rate(&served, ServiceReport::completed_jobs),
            "1/s",
        ),
        metric("serve_p50_ms", median(&walls) * 1e3, "ms"),
        metric("setup_s", median(&setup), "s"),
        metric("peak_heap_mb", peak_heap_mb, "MB"),
        metric("host_jobs_per_s", host_rate(&served), "1/s"),
    ];
    table.extend(guard_table(served.first().map(|s| &s.report)));

    if !trace {
        if whatif {
            table.extend(decision_latency(
                &svc,
                &specs,
                &served,
                &mut reference,
                &mut tally,
            ));
        }
        table.push(metric("ref_kernel_ms", median(rc.readings()) * 1e3, "ms"));
        let metrics = service_metrics(&setup, peak_heap_mb, &served, &walls);
        return Outcome {
            tally,
            metrics,
            table,
        };
    }

    let clocks = Arc::new(Clocks::default());
    let (mut traced_wall, mut traced_ref) = (0.0, 0.0);
    for _ in 0..served.len() {
        let stream = timed_specs(&specs, &clocks);
        let (wall, out) = serve_traced(&svc, stream, &ServeOptions::default(), &clocks);
        traced_wall += wall;
        traced_ref += wall * rc.factor();
        match out {
            Ok(out) => tally.op(check_report(&mut reference, &out.report)),
            Err(e) => tally.fail(format!("traced serve: {e}")),
        }
    }
    let n = (served.len() as u64).max(1);
    let mut split = Split {
        ops: n,
        traced_wall_s: traced_wall,
        traced_ref_s: traced_ref,
        untraced_ref_s: walls.iter().sum(),
        stream_s: clocks.stream.secs(),
        svc_self_s: clocks.serve.secs() - clocks.stream.secs() - clocks.workload_secs(),
        profile_s: clocks.profile.secs(),
        profile_calls: clocks.profile.calls() / n,
        realize_s: clocks.realize.secs(),
        realize_calls: clocks.realize.calls() / n,
        session_open_s: clocks.session_open.secs(),
        session_open_calls: clocks.session_open.calls() / n,
        advance_s: clocks.advance.secs(),
        advance_calls: clocks.advance.calls() / n,
        score_s: clocks.score.secs(),
        score_calls: clocks.score.calls() / n,
        commit_s: clocks.commit.secs(),
        steps_used: clocks.steps_used.load(std::sync::atomic::Ordering::Relaxed) / n,
        ..Split::default()
    };
    if let Some(s) = served.first() {
        cluster_counters(&mut split, &s.report);
    }
    split.check(&mut tally);
    table.push(metric("ref_kernel_ms", median(rc.readings()) * 1e3, "ms"));
    table.extend(split.table());
    Outcome {
        tally,
        metrics: split.metrics(),
        table,
    }
}

/// `server-whatif`'s decision figures: decisions per host second from the
/// throughput serves, and per-decision latency from one serve apart with
/// `ServeOptions::measure_decisions` on.
fn decision_latency(
    svc: &ClusterService,
    specs: &[JobSpec],
    served: &[Served],
    reference: &mut Option<String>,
    tally: &mut Tally,
) -> Vec<Metric> {
    let mut out = vec![metric(
        "decisions_per_s",
        rate(served, |r| r.whatif.decisions),
        "1/s",
    )];
    let opts = ServeOptions {
        measure_decisions: true,
        ..ServeOptions::default()
    };
    match svc.serve(specs.to_vec(), &FaultPlan::none(), &opts) {
        Ok(o) => {
            tally.op(check_report(reference, &o.report));
            let h = &o.report.decision_hist;
            let us = |d: desim::SimDuration| d.as_secs_f64() * 1e6;
            out.extend([
                metric("decisions", h.count() as f64, "count"),
                metric("decision_p50_us", us(h.quantile(0.5)), "us"),
                metric("decision_p99_us", us(h.quantile(0.99)), "us"),
                metric("decision_mean_us", us(h.mean()), "us"),
            ]);
        }
        Err(e) => tally.fail(format!("decision-latency serve: {e}")),
    }
    out
}

/// Runs `server-scale`.
pub(crate) fn run_scale(seed: u64, seconds: f64, trace: bool, sizes: &Sizes) -> Outcome {
    let jobs = sizes.scale_jobs;
    run_serving(
        server_scale_config(SHARDS),
        || server_scale_load(jobs, seed).collect(),
        false,
        seconds,
        trace,
    )
}

/// Runs `server-whatif`.
pub(crate) fn run_whatif(seed: u64, seconds: f64, trace: bool, sizes: &Sizes) -> Outcome {
    run_serving(
        server_whatif_config(SHARDS),
        || whatif_specs(seed, sizes),
        true,
        seconds,
        trace,
    )
}

/// The crash points of `server-recover`: for each of `CRASH_POINTS`
/// evenly spaced shares of the log (1/4, 1/2, 3/4), the first seeded
/// `CrashPlan` that keeps that share of `wal`'s frames, give or take 2.5%.
/// Fixed shares keep the recovery work comparable across seeds; the seed
/// moves the exact frame and the torn bit.
fn crash_plans(seed: u64, wal: &WriteAheadLog) -> Vec<CrashPlan> {
    let mut rng = SplitMix::new(seed, 3);
    let frames = wal.frames() as f64;
    (1..=CRASH_POINTS)
        .map(|i| {
            let target = frames * i as f64 / (CRASH_POINTS + 1) as f64;
            let slack = (frames * 0.025).max(1.0);
            (0..10_000)
                .map(|_| CrashPlan::new(rng.next_u64()))
                .find(|p| (p.keep_frames(wal) as f64 - target).abs() <= slack)
                .unwrap_or_else(|| CrashPlan::new(i as u64))
        })
        .collect()
}

/// What every durable serve and recovery must reproduce.
struct Durable {
    report: String,
    journal: Vec<u8>,
    wal: WriteAheadLog,
}

/// Checks a durable serve against the first one (if there is one yet).
fn check_durable(base: Option<&Durable>, out: &ServiceOutcome, wal: &WriteAheadLog) -> Vec<String> {
    let mut reference = base.map(|d| d.report.clone());
    let mut problems = check_report(&mut reference, &out.report);
    if out.journal.is_none() {
        problems.push("durable serve recorded no journal".into());
    }
    if base.is_some_and(|d| d.wal.bytes() != wal.bytes()) {
        problems.push("WAL bytes differ from the first durable serve".into());
    }
    problems
}

/// Checks a recovered run: byte-identical report and journal, and the
/// whole recovered prefix matched by re-execution.
fn check_recovered(first: &Durable, out: &ServiceOutcome) -> Vec<String> {
    let mut problems = Vec::new();
    if out.report.canonical_string() != first.report {
        problems.push("recovered report differs from the uninterrupted run".into());
    }
    match &out.journal {
        Some(j) if j.encode() == first.journal => {}
        _ => problems.push("recovered journal differs from the uninterrupted run".into()),
    }
    match out.replay {
        Some(r) if r.matched == r.prefix_entries => {}
        _ => problems.push("recovery did not re-execute its whole prefix".into()),
    }
    problems
}

/// Runs `server-recover`: rounds of one durable serve and one recovery
/// per crash point, until the budget has passed.
pub(crate) fn run_recover(seed: u64, seconds: f64, trace: bool, sizes: &Sizes) -> Outcome {
    let mut tally = Tally::default();
    let jobs = sizes.recover_jobs;
    let mut rc = RefClock::start();
    let (setup, specs) = set_up(|| server_scale_load(jobs, seed).collect(), &mut rc);
    let svc = ClusterService::new(server_scale_config(SHARDS)).expect("valid scale config");
    let spec = DurabilitySpec::group_commit(CHAOS_GROUP_EVENTS);
    let opts = ServeOptions::default();
    let budget = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });

    let mut first: Option<Durable> = None;
    let mut durable = Vec::new();
    let (mut recover_walls, mut catch_ups, mut recovered) = (Vec::new(), Vec::new(), 0u64);
    heap::reset_peak();
    let start = Instant::now();
    loop {
        let stream = specs.to_vec();
        let t = Instant::now();
        let out = svc.serve_durable(stream, &FaultPlan::none(), &opts, &spec);
        let host = t.elapsed().as_secs_f64();
        let wall = host * rc.factor();
        match out {
            Ok((out, wal)) => {
                tally.op(check_durable(first.as_ref(), &out, &wal));
                if let (None, Some(j)) = (&first, &out.journal) {
                    first = Some(Durable {
                        report: out.report.canonical_string(),
                        journal: j.encode(),
                        wal,
                    });
                }
                durable.push(Served {
                    wall,
                    host,
                    report: out.report,
                });
            }
            Err(e) => {
                tally.fail(format!("durable serve: {e}"));
                break;
            }
        }
        let Some(base) = first.as_ref() else { break };
        for plan in crash_plans(seed, &base.wal) {
            let crashed = plan.crashed_bytes(&base.wal);
            let stream = specs.to_vec();
            let t = Instant::now();
            let out = svc.recover(stream, &FaultPlan::none(), &opts, &crashed);
            let host = t.elapsed().as_secs_f64();
            let factor = rc.factor();
            match out {
                Ok((out, crash)) => {
                    tally.op(check_recovered(base, &out));
                    recover_walls.push(host * factor);
                    catch_ups.push(out.replay.map_or(0.0, |r| r.catch_up_secs) * factor);
                    if durable.len() == 1 {
                        recovered += crash.recovered_entries;
                    }
                }
                Err(e) => tally.fail(format!("recover (crash seed {}): {e}", plan.seed)),
            }
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    let peak_heap_mb = heap::peak_mb();
    let durable_walls: Vec<f64> = durable.iter().map(|s| s.wall).collect();
    let mut table = vec![
        metric("durable_serves", durable.len() as f64, "count"),
        metric("recoveries", recover_walls.len() as f64, "count"),
        metric(
            "jobs_per_s",
            rate(&durable, ServiceReport::completed_jobs),
            "1/s",
        ),
        metric("durable_serve_p50_ms", median(&durable_walls) * 1e3, "ms"),
        metric("recover_s", median(&recover_walls), "s"),
        metric("catch_up_s", median(&catch_ups), "s"),
        metric("setup_s", median(&setup), "s"),
        metric("peak_heap_mb", peak_heap_mb, "MB"),
        metric("host_jobs_per_s", host_rate(&durable), "1/s"),
    ];
    table.extend(guard_table(durable.first().map(|s| &s.report)));
    let Some(base) = first else {
        return Outcome {
            tally,
            metrics: Vec::new(),
            table,
        };
    };
    table.push(metric("wal_mb", base.wal.bytes().len() as f64 / 1e6, "MB"));
    table.push(metric("ref_kernel_ms", median(rc.readings()) * 1e3, "ms"));

    if !trace {
        let metrics = service_metrics(&setup, peak_heap_mb, &durable, &recover_walls);
        return Outcome {
            tally,
            metrics,
            table,
        };
    }

    // Traced rounds: the halves of `serve_durable` and `recover`, timed.
    let clocks = Arc::new(Clocks::default());
    let recover_serve = Span::default();
    let (mut traced_wall, mut traced_ref, mut replay_s) = (0.0, 0.0, 0.0);
    let rounds = durable.len();
    for _ in 0..rounds {
        let journal_opts = ServeOptions {
            journal: true,
            ..ServeOptions::default()
        };
        let t = Instant::now();
        let (_, out) = serve_traced(&svc, specs.to_vec(), &journal_opts, &clocks);
        let out = out.map(|out| {
            let journal = out.journal.as_ref().expect("journal requested");
            let wal = clocks
                .wal_build
                .time(|| WriteAheadLog::build(journal, &spec));
            (out, wal)
        });
        let host = t.elapsed().as_secs_f64();
        traced_wall += host;
        traced_ref += host * rc.factor();
        match out {
            Ok((out, wal)) => tally.op(check_durable(Some(&base), &out, &wal)),
            Err(e) => tally.fail(format!("traced durable serve: {e}")),
        }
        for plan in crash_plans(seed, &base.wal) {
            let crashed = plan.crashed_bytes(&base.wal);
            let stream = specs.to_vec();
            let t = Instant::now();
            let out = clocks
                .wal_scan
                .time(|| WriteAheadLog::scan(&crashed))
                .map_err(|e| e.to_string())
                .and_then(|rec| {
                    let o = ServeOptions {
                        journal: true,
                        resume: Some(ResumePrefix {
                            entries: Arc::new(rec.journal.entries),
                        }),
                        ..ServeOptions::default()
                    };
                    recover_serve
                        .time(|| svc.serve(stream, &FaultPlan::none(), &o))
                        .map_err(|e| e.to_string())
                });
            let host = t.elapsed().as_secs_f64();
            traced_wall += host;
            traced_ref += host * rc.factor();
            match out {
                Ok(out) => {
                    replay_s += out.replay.map_or(0.0, |r| r.catch_up_secs);
                    tally.op(check_recovered(&base, &out));
                }
                Err(e) => tally.fail(format!("traced recover (crash seed {}): {e}", plan.seed)),
            }
        }
    }
    let (crc32_ns_per_kb, decode_ns_per_kb) = codec_costs(&base, &mut tally);
    let entries = base.wal.entries();
    let mut split = Split {
        ops: rounds as u64,
        traced_wall_s: traced_wall,
        traced_ref_s: traced_ref,
        untraced_ref_s: durable_walls.iter().sum::<f64>() + recover_walls.iter().sum::<f64>(),
        stream_s: clocks.stream.secs(),
        svc_self_s: clocks.serve.secs() - clocks.stream.secs(),
        wal_build_s: clocks.wal_build.secs(),
        wal_bytes: base.wal.bytes().len() as u64,
        wal_frames: base.wal.frames() as u64,
        wal_entries: entries,
        wal_scan_s: clocks.wal_scan.secs(),
        recovered_entries: recovered,
        replay_s,
        suffix_s: recover_serve.secs() - replay_s,
        crc32_ns_per_kb,
        decode_ns_per_kb,
        ..Split::default()
    };
    if let Some(s) = durable.first() {
        cluster_counters(&mut split, &s.report);
    }
    split.check(&mut tally);
    table.extend(split.table());
    Outcome {
        tally,
        metrics: split.metrics(),
        table,
    }
}

/// Direct calls into `desim`'s codec on the run's own bytes: `crc32` over
/// the WAL and `Journal::decode` of the journal, in ns per KB (best of
/// three, each checked).
fn codec_costs(base: &Durable, tally: &mut Tally) -> (f64, f64) {
    let wal = base.wal.bytes();
    let expected = desim::journal::crc32(wal);
    let (mut crc, mut decode) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let t = Instant::now();
        let sum = desim::journal::crc32(std::hint::black_box(wal));
        crc = crc.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let decoded = Journal::decode(std::hint::black_box(&base.journal));
        decode = decode.min(t.elapsed().as_secs_f64());
        let mut problems = Vec::new();
        if sum != expected {
            problems.push("crc32 of the WAL changed between calls".into());
        }
        match decoded {
            Ok(j) if j.encode() == base.journal => {}
            _ => problems.push("journal does not decode to itself".into()),
        }
        tally.op(problems);
    }
    let per_kb = |secs: f64, bytes: usize| ratio(secs * 1e9, bytes as f64 / 1e3);
    (per_kb(crc, wal.len()), per_kb(decode, base.journal.len()))
}
