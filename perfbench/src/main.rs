//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a table of the workload's named figures, then one JSON result
//! line: the end-to-end metrics (`--trace 0`) or the per-layer split
//! (`--trace 1`). A failed output check shows as `"correct": false` in
//! the result line and on standard error; bad arguments exit with code 2
//! and print no result.

use std::process::ExitCode;

use perfbench::heap::CountingAlloc;
use perfbench::WORKLOADS;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Environment knobs that would change engine or harness threading; the
/// benchmark always runs one engine thread and no harness workers.
const THREAD_KNOBS: [&str; 2] = ["DVNS_ENGINE_THREADS", "DVNS_THREADS"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds must be in (0, 3600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // Set before any thread exists, so removing the variables is sound.
    for knob in THREAD_KNOBS {
        std::env::remove_var(knob);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload={} seed={} seconds={} trace={} host_cores={cores} engine_threads=1 harness_threads=1",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let out = perfbench::run(&args.workload, args.seed, args.seconds, args.trace, false)
        .expect("workload name validated");
    let error_rate = out.tally.failed as f64 / out.tally.attempted.max(1) as f64;
    for m in &out.table {
        println!("{:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{:<34} {:>18.6} failed/attempted", "error_rate", error_rate);
    for p in &out.tally.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{}", out.json());
    ExitCode::SUCCESS
}
