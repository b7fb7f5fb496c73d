//! `lu-predict`: the paper's use case. A fixed list of PDEXEC NOALLOC LU
//! predictions (ghost payloads, charged kernels) on one engine thread, each
//! checked against a seeded `testbed` measurement of the same
//! configuration.
//!
//! The list holds the Table 1 instance on 8 and on 4 nodes, the Basic, P,
//! P+FC, PM and P+PM+FC flow graphs, Figure 11/12-style removal plans
//! (dynamic allocation), a 3n² instance on 8 nodes and a 2n² instance on 16
//! nodes. The seed picks the removal plans and the testbed seeds.
//!
//! The untraced prediction is `lu_app::predict_lu_with_fabric` over a
//! `SimFabric`. The traced one makes the same calls one layer down —
//! `lu_app::build_lu_app`, then `dps_sim::simulate_with_fabric` over a
//! [`TimedFabric`] — and must produce the same canonical report.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dps_sim::{RunReport, SimFabric};
use lu_app::{build_lu_app, measure_lu, predict_lu_with_fabric, LuConfig};
use workload::SimEnv;

use crate::heap;
use crate::layers::{Clocks, TimedFabric};
use crate::refclock::RefClock;
use crate::report::{median, metric, quantile, ratio, Outcome, SplitMix, Tally};
use crate::split::Split;

/// Largest relative error a prediction may show against the testbed: the
/// paper's validation band, inside which more than 95% of its 168
/// measurements fell (±12%).
const VALIDATION_BOUND: f64 = 0.12;

/// Set-up repetitions per run (the median is reported).
const SETUP_REPS: usize = 3;

/// One prediction of the list.
pub struct Case {
    /// Short description.
    pub label: String,
    /// The configuration.
    pub cfg: LuConfig,
    /// Seed of the testbed measurement it is checked against.
    pub tb_seed: u64,
}

/// The engine environment (engine pinned to one thread) and the list the
/// seed selects. `small` shrinks every matrix six-fold for tests.
pub fn cases(seed: u64, small: bool) -> (SimEnv, Vec<Case>) {
    let env = SimEnv::paper_seeded(seed).with_engine_threads(1);
    let (n, r, r2) = if small {
        (432, 36, 54)
    } else {
        (2592, 216, 324)
    };
    let lu = |n: usize, r: usize, nodes: u32, workers: u32| {
        let mut c = env.lu_sized(n, r, nodes);
        c.workers = workers;
        c
    };
    let mut rng = SplitMix::new(seed, 1);
    let mut out: Vec<(String, LuConfig)> = Vec::new();
    out.push(("table1 8 nodes".into(), lu(n, r, 8, 8)));
    out.push(("table1 8 workers on 4 nodes".into(), lu(n, r, 4, 8)));
    for (label, pipelined, pm, fc) in [
        ("P", true, false, false),
        ("P+FC", true, false, true),
        ("PM", false, true, false),
        ("P+PM+FC", true, true, true),
    ] {
        let mut c = lu(n, r, 8, 8);
        c.pipelined = pipelined;
        c.parallel_mul = pm.then_some(r / 2);
        c.flow_control = fc.then_some(8);
        out.push((label.into(), c));
    }
    {
        // Figure 11: kill k of 8 workers after iteration a (K = 8 blocks).
        let (a, k) = (rng.range(1, 5) as usize, rng.range(2, 4) as u32);
        let mut c = lu(n, r2, 8, 8);
        c.removal = vec![(a, k)];
        out.push((format!("fig11 kill {k} after it. {a}"), c));
    }
    {
        // Figure 12: kill 2 + 2 after consecutive iterations.
        let a = rng.range(1, 5) as usize;
        let mut c = lu(n, r2, 8, 8);
        c.removal = vec![(a, 2), (a + 1, 2)];
        out.push((format!("fig12 kill 2+2 after it. {a}"), c));
    }
    {
        let (a, k) = (rng.range(1, 9) as usize, rng.range(1, 4) as u32);
        let mut c = lu(n, r, 8, 8);
        c.removal = vec![(a, k)];
        out.push((format!("table1 kill {k} after it. {a}"), c));
    }
    out.push(("3n 8 nodes".into(), lu(3 * n, r, 8, 8)));
    out.push(("2n 16 nodes".into(), lu(2 * n, r, 16, 16)));
    {
        let a = rng.range(2, 16) as usize;
        let mut c = lu(2 * n, r, 16, 16);
        c.removal = vec![(a, 8)];
        out.push((format!("2n 16 nodes kill 8 after it. {a}"), c));
    }
    let cases = out
        .into_iter()
        .map(|(label, cfg)| Case {
            label,
            cfg,
            tb_seed: rng.next_u64(),
        })
        .collect();
    (env, cases)
}

/// One prediction's outputs.
pub struct Pred {
    /// Host seconds of the call.
    pub wall: f64,
    /// Canonical rendering of the report and factorization time.
    pub canonical: String,
    /// Predicted factorization time, virtual seconds.
    pub predicted_s: f64,
    /// The engine's report.
    pub report: RunReport,
}

fn canonical(report: &RunReport, factorization_s: f64) -> String {
    format!(
        "{} factorization={:016x}",
        report.canonical_string(),
        factorization_s.to_bits()
    )
}

/// The untraced prediction: `predict_lu_with_fabric` over a `SimFabric`.
pub fn predict(env: &SimEnv, case: &Case) -> Result<Pred, String> {
    let start = Instant::now();
    let run = predict_lu_with_fabric(&case.cfg, &mut SimFabric::new(env.net), &env.simcfg)
        .map_err(|e| format!("{}: {e}", case.label))?;
    let wall = start.elapsed().as_secs_f64();
    let predicted_s = run.factorization_time.as_secs_f64();
    Ok(Pred {
        wall,
        canonical: canonical(&run.report, predicted_s),
        predicted_s,
        report: run.report,
    })
}

/// The traced prediction: the same calls one layer down, each timed.
pub fn predict_traced(env: &SimEnv, case: &Case, clocks: &Arc<Clocks>) -> Result<Pred, String> {
    let start = Instant::now();
    let (app, _shared) = clocks.build.time(|| build_lu_app(case.cfg.clone()));
    let mut fabric = TimedFabric::new(Box::new(SimFabric::new(env.net)), Arc::clone(clocks));
    let report = clocks
        .simulate
        .time(|| dps_sim::simulate_with_fabric(&app, &mut fabric, &env.simcfg))
        .map_err(|e| format!("{}: {e}", case.label))?;
    let predicted_s = factorization_secs(&case.cfg, &report)
        .ok_or_else(|| format!("{}: run did not terminate with its marks", case.label))?;
    let wall = start.elapsed().as_secs_f64();
    Ok(Pred {
        wall,
        canonical: canonical(&report, predicted_s),
        predicted_s,
        report,
    })
}

/// The paper's measured quantity, as `lu_app` derives it: the final
/// iteration mark minus the end of the initial distribution.
fn factorization_secs(cfg: &LuConfig, report: &RunReport) -> Option<f64> {
    if !report.terminated {
        return None;
    }
    let dist = report.mark_time("dist")?;
    let end = report.mark_time(&format!("iter:{}", cfg.k_blocks()))?;
    Some((end - dist).as_secs_f64())
}

/// Runs the workload (see the module docs).
pub(crate) fn run(seed: u64, seconds: f64, trace: bool, small: bool) -> Outcome {
    let mut tally = Tally::default();

    // Set-up: generate the list and measure each entry on the testbed.
    let mut rc = RefClock::start();
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let (env, cases) = cases(seed, small);
        let measured: Vec<Result<f64, String>> = cases
            .iter()
            .map(|c| {
                measure_lu(&c.cfg, env.tb, c.tb_seed, &env.simcfg)
                    .map(|m| m.factorization_time.as_secs_f64())
                    .map_err(|e| format!("testbed {}: {e}", c.label))
            })
            .collect();
        setup.push(start.elapsed().as_secs_f64() * rc.factor());
        match &built {
            None => {
                for m in &measured {
                    match m {
                        Ok(_) => tally.op(Vec::new()),
                        Err(e) => tally.fail(e.clone()),
                    }
                }
                built = Some((env, cases, measured));
            }
            Some((_, _, first)) if *first != measured => {
                tally.fail("testbed measurements differ between set-ups".into());
            }
            Some(_) => {}
        }
    }
    let (env, cases, measured) = built.expect("at least one set-up");

    // Untraced passes over the whole list; `walls` in reference seconds.
    let budget = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });
    let mut reference: Vec<Option<Pred>> = (0..cases.len()).map(|_| None).collect();
    let mut walls = Vec::new();
    let (mut passes, mut steps, mut host_wall) = (0usize, 0u64, 0.0);
    heap::reset_peak();
    let start = Instant::now();
    loop {
        let mut pass = Vec::with_capacity(cases.len());
        for (i, case) in cases.iter().enumerate() {
            let pred = match predict(&env, case) {
                Ok(p) => p,
                Err(e) => {
                    tally.fail(e);
                    continue;
                }
            };
            steps += pred.report.steps;
            pass.push(pred.wall);
            match &reference[i] {
                Some(r) => tally.op(same_output(&case.label, r, &pred)),
                None => {
                    tally.op(validate(case, &pred, &measured[i]));
                    reference[i] = Some(pred);
                }
            }
        }
        let factor = rc.factor();
        host_wall += pass.iter().sum::<f64>();
        walls.extend(pass.iter().map(|w| w * factor));
        passes += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    let peak_heap_mb = heap::peak_mb();
    // Throughput is total over total, which averages the host's slow and
    // fast spells instead of picking one.
    let untraced_ref: f64 = walls.iter().sum();
    let events_per_s = ratio(steps as f64, untraced_ref);
    let refs: Vec<&Pred> = reference.iter().flatten().collect();
    let errors: Vec<f64> = reference
        .iter()
        .zip(&measured)
        .filter_map(|(p, m)| Some((p.as_ref()?, m.as_ref().ok()?)))
        .map(|(p, m)| (p.predicted_s - m).abs() / m)
        .collect();
    let efficiency = refs
        .iter()
        .map(|p| p.report.overall_efficiency())
        .sum::<f64>()
        / refs.len().max(1) as f64;

    let mut table = vec![
        metric("passes", passes as f64, "count"),
        metric("predictions", walls.len() as f64, "count"),
        metric("sim_events_per_s", events_per_s, "1/s"),
        metric("predict_p50_ms", median(&walls) * 1e3, "ms"),
        metric("predict_p90_ms", quantile(&walls, 0.9) * 1e3, "ms"),
        metric(
            "pred_err_pct",
            100.0 * errors.iter().sum::<f64>() / errors.len().max(1) as f64,
            "%",
        ),
        metric(
            "pred_err_max_pct",
            100.0 * errors.iter().cloned().fold(0.0, f64::max),
            "%",
        ),
        metric("setup_s", median(&setup), "s"),
        metric("peak_heap_mb", peak_heap_mb, "MB"),
        metric("host_events_per_s", ratio(steps as f64, host_wall), "1/s"),
        metric("ref_kernel_ms", median(rc.readings()) * 1e3, "ms"),
    ];

    if !trace {
        let metrics = vec![
            metric("setup_s", median(&setup), "s"),
            metric("peak_heap_mb", peak_heap_mb, "MB"),
            metric("sim_events_per_s", events_per_s, "1/s"),
            metric("jobs_per_s", ratio(walls.len() as f64, untraced_ref), "1/s"),
            metric("op_p50_ms", median(&walls) * 1e3, "ms"),
            metric("op_p90_ms", quantile(&walls, 0.9) * 1e3, "ms"),
            metric("alloc_eff_pct", 100.0 * efficiency, "%"),
        ];
        return Outcome {
            tally,
            metrics,
            table,
        };
    }

    // Traced passes: as many as the untraced ones, every output compared.
    let clocks = Arc::new(Clocks::default());
    let (mut traced_wall, mut traced_ref) = (0.0, 0.0);
    for _ in 0..passes {
        let mut pass = 0.0;
        for (i, case) in cases.iter().enumerate() {
            match (predict_traced(&env, case, &clocks), &reference[i]) {
                (Ok(p), Some(r)) => {
                    pass += p.wall;
                    tally.op(same_output(&case.label, r, &p));
                }
                (Ok(_), None) => {}
                (Err(e), _) => tally.fail(e),
            }
        }
        traced_wall += pass;
        traced_ref += pass * rc.factor();
    }
    let per_pass = |n: u64| n / passes as u64;
    let split = Split {
        ops: passes as u64,
        traced_wall_s: traced_wall,
        traced_ref_s: traced_ref,
        untraced_ref_s: untraced_ref,
        netmodel_s: clocks.netmodel.secs(),
        netmodel_calls: per_pass(clocks.netmodel.calls()),
        flows: refs.iter().map(|p| p.report.net.flows_completed).sum(),
        wire_bytes: refs.iter().map(|p| p.report.net.wire_bytes).sum(),
        dps_self_s: clocks.simulate.secs() - clocks.netmodel.secs(),
        steps: refs.iter().map(|p| p.report.steps).sum(),
        max_queue_len: refs
            .iter()
            .map(|p| p.report.max_queue_len as u64)
            .max()
            .unwrap_or(0),
        lu_build_s: clocks.build.secs(),
        ..Split::default()
    };
    split.check(&mut tally);
    table.extend(split.table());
    Outcome {
        tally,
        metrics: split.metrics(),
        table,
    }
}

/// Checks a first prediction against its testbed measurement.
fn validate(case: &Case, pred: &Pred, measured: &Result<f64, String>) -> Vec<String> {
    let Ok(m) = measured else {
        return vec![format!("{}: no testbed measurement", case.label)];
    };
    let err = (pred.predicted_s - m).abs() / m;
    if err > VALIDATION_BOUND {
        vec![format!(
            "{}: predicted {:.3}s vs testbed {m:.3}s ({:.1}% > {:.0}%)",
            case.label,
            pred.predicted_s,
            100.0 * err,
            100.0 * VALIDATION_BOUND
        )]
    } else {
        Vec::new()
    }
}

fn same_output(label: &str, reference: &Pred, pred: &Pred) -> Vec<String> {
    if pred.canonical == reference.canonical {
        Vec::new()
    } else {
        vec![format!(
            "{label}: canonical report differs from the first run"
        )]
    }
}
