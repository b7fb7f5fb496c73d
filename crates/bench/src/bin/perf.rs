//! Engine performance benchmark: the end-to-end LU simulation throughput
//! measurement (events-processed-per-second) recorded into
//! `results/BENCH_engine.json` so that every PR leaves a perf trajectory.
//!
//! The headline workload is the paper's Table 1 PDEXEC setting: a 2592²
//! matrix in twelve 216-column blocks on 8 nodes, simulated with ghost
//! payloads (NOALLOC). `DVNS_SMOKE=1` shrinks the matrix for CI.
//!
//! `--replay [path]` instead verifies a journal recorded by
//! `scenarios --journal` (default `results/lu_reference.journal`): the run
//! is rebuilt from the journal's own metadata, resumed from an empty, a
//! midpoint and a full prefix, and every replay must re-emit the recorded
//! event stream and canonical digest byte-for-byte. A mismatch exits
//! non-zero naming the first diverging event.

use dps_bench::harness::{peak_rss_bytes, smoke, thread_count, BenchJson};
use dps_bench::{default_journal_path, replay_journal_file, Env, N};
use lu_app::LuConfig;

fn batch_samples(default_batch: u32, default_samples: u32) -> (u32, u32) {
    let batch = std::env::var("DVNS_PERF_BATCH")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_batch);
    let samples = std::env::var("DVNS_PERF_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_samples);
    (batch, samples)
}

/// Best-of-`samples` sum-of-`batch` engine-internal wall time of predicted
/// runs of `cfg` under `env`, as `(total steps, secs)` of the best batch.
fn sample_predict(env: &Env, cfg: &LuConfig, batch: u32, samples: u32) -> (u64, f64) {
    let _ = env.predict(cfg); // warmup: page in code + allocator
    let mut best_secs = f64::INFINITY;
    let mut steps = 0u64;
    for _ in 0..samples {
        let mut batch_secs = 0.0;
        let mut batch_steps = 0u64;
        for _ in 0..batch {
            let run = env
                .predict(cfg)
                .unwrap_or_else(|e| panic!("predicted run failed: {e}"));
            batch_secs += run.report.host_wall.as_secs_f64();
            batch_steps += run.report.steps;
        }
        if batch_secs < best_secs {
            best_secs = batch_secs;
            steps = batch_steps;
        }
    }
    (steps, best_secs)
}

/// The default throughput benchmarks: simulator and testbed events/s on the
/// headline instance.
fn throughput(json: &mut BenchJson) {
    let env = Env::paper();
    let n = if smoke() { 432 } else { N };
    let r = n / 12;
    // A single 2592² run lasts only tens of milliseconds of host time, so
    // a lone wall-clock sample swings wildly on a shared host. Each sample
    // therefore sums the engine-internal wall of `batch` consecutive runs,
    // and we keep the best of `samples` batches.
    let (batch, samples) = batch_samples(10, 3);

    // --- End-to-end LU simulation throughput (PDEXEC NOALLOC, 8 nodes).
    let mut cfg = env.lu(r, 8);
    cfg.n = n;
    let (steps, best_secs) = sample_predict(&env, &cfg, batch, samples);
    let eps = steps as f64 / best_secs;
    println!(
        "lu_sim_pdexec n={n} r={r} 8 nodes: {steps} steps in {best_secs:.3}s host = {eps:.0} events/sec"
    );
    json.record(
        "lu_sim_pdexec_2592_r216_8n",
        &[
            ("n", n as f64),
            ("r", r as f64),
            ("steps", steps as f64),
            ("host_wall_secs", best_secs),
            ("events_per_sec", eps),
        ],
    );

    // --- Testbed (stochastic fabric) throughput on the same workload.
    let mut best_secs = f64::INFINITY;
    let mut steps = 0u64;
    for s in 0..samples {
        let mut batch_secs = 0.0;
        let mut batch_steps = 0u64;
        for b in 0..batch {
            let run = env
                .measure(&cfg, 42 + u64::from(s * batch + b))
                .unwrap_or_else(|e| panic!("measured run failed: {e}"));
            batch_secs += run.report.host_wall.as_secs_f64();
            batch_steps += run.report.steps;
        }
        if batch_secs < best_secs {
            best_secs = batch_secs;
            steps = batch_steps;
        }
    }
    let eps_tb = steps as f64 / best_secs;
    println!("lu_sim_testbed n={n} r={r} 8 nodes: {steps} steps in {best_secs:.3}s host = {eps_tb:.0} events/sec");
    json.record(
        "lu_sim_testbed_2592_r216_8n",
        &[
            ("n", n as f64),
            ("r", r as f64),
            ("steps", steps as f64),
            ("host_wall_secs", best_secs),
            ("events_per_sec", eps_tb),
        ],
    );
}

/// The `--replay` mode: verify a recorded reference journal end to end.
/// Exits the process (0 on a faithful replay, 1 with a pinpointed
/// diagnostic otherwise).
fn replay_mode(path_arg: Option<String>) -> ! {
    let path = path_arg.map_or_else(default_journal_path, std::path::PathBuf::from);
    match replay_journal_file(&path) {
        Ok(r) => {
            println!(
                "replay: {} ({} events) byte-identical from prefixes {:?}",
                path.display(),
                r.events,
                r.prefixes
            );
            std::process::exit(0);
        }
        Err(msg) => {
            eprintln!("replay: {msg}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--replay") {
        replay_mode(args.get(i + 1).cloned());
    }
    let mut json = BenchJson::new();
    throughput(&mut json);

    if let Some(rss) = peak_rss_bytes() {
        println!(
            "peak RSS: {:.1} MB, threads: {}",
            rss as f64 / 1e6,
            thread_count()
        );
    }
    json.write();
    println!("wrote results/BENCH_engine.json");
}
