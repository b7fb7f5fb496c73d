//! Determinism fuzzing harness: randomized schedules, one invariant.
//!
//! Under a root seed, each case draws a random small workload (LU or
//! stencil, random sizes and worker→node routing) and an optional seeded
//! fault plan, then asserts the engine's core invariant two ways:
//!
//! 1. **Replay**: re-executing against the recorded journal from a random
//!    prefix reproduces the stream and the canonical report exactly;
//! 2. **Pinpointer sanity**: a run perturbed with an injected commit-order
//!    tie-break swap either leaves the stream untouched (the drawn swap
//!    index never fired) or produces a divergence diagnostic that names a
//!    ticket and a virtual time.
//!
//! Failures come back as pinpointed one-line diagnostics
//! ([`dps_sim::Divergence`]), not CSV diffs. The `fuzz` binary drives this
//! under `--seed` / `--cases` / `--budget-secs`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use desim::{Journal, JournalEvent, SimDuration, SimTime};
use dps::Application;
use dps_sim::journal::replay_with_fabric;
use dps_sim::{Fabric, FaultFabric, SimConfig, SimFabric, SimResult, TimingMode};
use faults::{FaultGenConfig, FaultPlan};
use lu_app::{build_lu_app, DataMode, LuConfig};
use netmodel::NetParams;
use perfmodel::{LuCost, PlatformProfile};
use simrng::{Rng, Xoshiro256};
use stencil_app::{build_stencil_app, StencilConfig};

/// Fuzzer parameters (see the `fuzz` binary for the CLI).
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    /// Root seed every case derives from.
    pub seed: u64,
    /// Cases to run (the binary may stop earlier on a time budget).
    pub cases: usize,
}

/// What one fuzz case exercised, for the run log.
#[derive(Debug)]
pub struct CaseReport {
    /// Case index under the root seed.
    pub index: usize,
    /// Human description of the drawn configuration.
    pub what: String,
    /// Journal length of the baseline run.
    pub journal_len: usize,
    /// Whether the injected tie-break swap actually perturbed the stream.
    pub perturbation_fired: bool,
}

/// Outcome of a fuzz run: per-case logs and pinpointed failures.
#[derive(Debug, Default)]
pub struct FuzzOutcome {
    /// Successfully checked cases.
    pub cases: Vec<CaseReport>,
    /// One message per failed case — each carries the case description and
    /// the first-diverging-event diagnostic.
    pub failures: Vec<String>,
}

/// One randomly drawn workload.
enum CaseApp {
    Lu(LuConfig),
    Stencil(StencilConfig),
}

impl CaseApp {
    fn build(&self) -> Application {
        match self {
            CaseApp::Lu(cfg) => build_lu_app(cfg.clone()).0,
            CaseApp::Stencil(cfg) => build_stencil_app(cfg.clone()).0,
        }
    }

    fn describe(&self) -> String {
        match self {
            CaseApp::Lu(c) => format!(
                "lu n={} r={} nodes={} workers={}",
                c.n, c.r, c.nodes, c.workers
            ),
            CaseApp::Stencil(c) => format!(
                "stencil n={} iters={} nodes={} workers={} sync={}",
                c.n, c.iters, c.nodes, c.workers, c.synchronized
            ),
        }
    }

    fn nodes(&self) -> u32 {
        match self {
            CaseApp::Lu(c) => c.nodes,
            CaseApp::Stencil(c) => c.nodes,
        }
    }
}

fn draw_app(rng: &mut Xoshiro256) -> CaseApp {
    if rng.gen_range_u64(0, 2) == 0 {
        let r = [48usize, 64, 96][rng.gen_range_u64(0, 3) as usize];
        let k = 3 + rng.gen_range_u64(0, 3) as usize;
        let nodes = 2 + rng.gen_range_u64(0, 3) as u32;
        let mut cfg = LuConfig::new(r * k, r, nodes);
        // Routing permutation: vary the worker→node mapping by drawing
        // more workers than nodes (threads wrap around the ring).
        cfg.workers = nodes * (1 + rng.gen_range_u64(0, 2) as u32);
        cfg.mode = DataMode::Ghost;
        cfg.cost = Some(LuCost::new(PlatformProfile::ultrasparc_ii_440()));
        cfg.validate().expect("drawn LU config is valid");
        CaseApp::Lu(cfg)
    } else {
        let n = [128usize, 192, 256][rng.gen_range_u64(0, 3) as usize];
        let iters = 3 + rng.gen_range_u64(0, 3) as usize;
        let nodes = [2u32, 4][rng.gen_range_u64(0, 2) as usize];
        let mut cfg = StencilConfig::new(n, iters, nodes);
        cfg.workers = nodes * (1 + rng.gen_range_u64(0, 2) as u32);
        cfg.synchronized = rng.gen_range_u64(0, 2) == 0;
        cfg.mode = DataMode::Ghost;
        cfg.validate().expect("drawn stencil config is valid");
        CaseApp::Stencil(cfg)
    }
}

fn draw_plan(rng: &mut Xoshiro256, nodes: u32) -> Option<FaultPlan> {
    if rng.gen_range_u64(0, 2) == 0 {
        return None;
    }
    let mut gen = FaultGenConfig::quiet(nodes, SimDuration::from_secs(300));
    gen.slowdowns = rng.gen_range_u64(0, 4) as usize;
    gen.degrades = rng.gen_range_u64(0, 3) as usize;
    Some(gen.generate(rng.next_u64()))
}

fn fabric_for(plan: &Option<FaultPlan>, net: NetParams) -> Box<dyn Fabric + Send> {
    match plan {
        Some(p) => Box::new(FaultFabric::new(net, p)),
        None => Box::new(SimFabric::new(net)),
    }
}

fn base_cfg() -> SimConfig {
    SimConfig {
        timing: TimingMode::ChargedOnly,
        step_overhead: SimDuration::from_micros(50),
        record_journal: true,
        ..SimConfig::default()
    }
}

fn run_case_app(
    app: &CaseApp,
    plan: &Option<FaultPlan>,
    net: NetParams,
    cfg: &SimConfig,
) -> SimResult<dps_sim::RunReport> {
    let built = app.build();
    let mut fabric = fabric_for(plan, net);
    dps_sim::simulate_with_fabric(&built, fabric.as_mut(), cfg)
}

/// Runs one fuzz case; `Err` carries the pinpointed diagnostic.
fn run_case(index: usize, root_seed: u64) -> Result<CaseReport, String> {
    let mut rng =
        Xoshiro256::seed_from_u64(root_seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let net = NetParams::fast_ethernet();
    let app = draw_app(&mut rng);
    let plan = draw_plan(&mut rng, app.nodes());
    let what = format!(
        "{} plan={} seed={root_seed} case={index}",
        app.describe(),
        plan.is_some()
    );
    let fail = |stage: &str, detail: String| format!("[{what}] {stage}: {detail}");

    let baseline = run_case_app(&app, &plan, net, &base_cfg())
        .map_err(|e| fail("baseline run", e.to_string()))?;
    let recorded = baseline.journal.as_ref().expect("journal recorded");

    // 1. Replay from a random prefix.
    let prefix = rng.gen_range_u64(0, recorded.len() as u64 + 1) as usize;
    let built = app.build();
    let mut fabric = fabric_for(&plan, net);
    let out = replay_with_fabric(&built, fabric.as_mut(), &base_cfg(), recorded, prefix)
        .map_err(|e| fail("replay run", e.to_string()))?;
    let stage = format!("replay at prefix={prefix}");
    if let Some(d) = out.divergence {
        return Err(fail(&stage, d.to_string()));
    }
    if out.report.canonical_string() != baseline.canonical_string() {
        return Err(fail(
            &stage,
            "canonical reports differ but journals match".to_string(),
        ));
    }

    // 2. Pinpointer sanity under an injected tie-break swap.
    let mut cfg = base_cfg();
    cfg.tie_break_swap = Some(rng.gen_range_u64(0, 4));
    let perturbed =
        run_case_app(&app, &plan, net, &cfg).map_err(|e| fail("perturbed run", e.to_string()))?;
    let pj = perturbed.journal.as_ref().expect("journal recorded");
    let perturbation_fired = match pj.first_divergence(recorded) {
        None => false,
        Some(d) => {
            if d.ticket.is_none() && d.field != "length" {
                return Err(fail(
                    "pinpointer",
                    format!("divergence without a ticket: {d}"),
                ));
            }
            if d.vtime_ours.or(d.vtime_theirs).is_none() {
                return Err(fail(
                    "pinpointer",
                    format!("divergence without a vtime: {d}"),
                ));
            }
            true
        }
    };

    Ok(CaseReport {
        index,
        what,
        journal_len: recorded.len(),
        perturbation_fired,
    })
}

/// Runs up to `cfg.cases` fuzz cases, invoking `progress` after each (the
/// binary uses it to log and to enforce a wall-clock budget — returning
/// `false` stops early).
pub fn fuzz_with(cfg: &FuzzConfig, mut progress: impl FnMut(&FuzzOutcome) -> bool) -> FuzzOutcome {
    let mut out = FuzzOutcome::default();
    for index in 0..cfg.cases {
        match run_case(index, cfg.seed) {
            Ok(report) => out.cases.push(report),
            Err(msg) => out.failures.push(msg),
        }
        if !progress(&out) {
            break;
        }
    }
    out
}

/// [`fuzz_with`] without a progress hook.
pub fn fuzz(cfg: &FuzzConfig) -> FuzzOutcome {
    fuzz_with(cfg, |_| true)
}

// ----- journal-decoder robustness fuzzing -----------------------------------

/// What [`fuzz_journal_decode`] exercised.
#[derive(Clone, Copy, Debug, Default)]
pub struct JournalFuzzReport {
    /// Bytes of the encoded reference journal.
    pub bytes: usize,
    /// Strict prefixes checked (every truncation point).
    pub truncations: usize,
    /// Seeded single-bit corruptions checked.
    pub flips: usize,
    /// Truncated entry batches checked against `append_entry_batch`.
    pub batch_truncations: usize,
}

/// Draws a seeded reference journal covering every event kind, labels and
/// metadata included.
fn draw_journal(seed: u64, entries: usize) -> Journal {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut j = Journal::new();
    j.set_meta("app", "journal-fuzz");
    j.set_meta("seed", seed.to_string());
    let labels: Vec<u32> = ["alpha", "beta", "gamma"]
        .iter()
        .map(|l| j.intern_label(l))
        .collect();
    let mut vt = 0u64;
    for i in 0..entries {
        vt += rng.gen_range_u64(0, 1 << 20);
        let ev = match rng.gen_range_u64(0, 10) {
            0 => JournalEvent::RateWindow {
                node: rng.gen_range_u64(0, 8) as u32,
                up_bits: rng.next_u64(),
                down_bits: rng.next_u64(),
                from: vt,
                to: vt + rng.gen_range_u64(1, 1 << 30),
            },
            1 => JournalEvent::Invoke {
                ticket: i as u64,
                op: rng.gen_range_u64(0, 64) as u32,
                thread: rng.gen_range_u64(0, 64) as u32,
                obj_bytes: rng.next_u64() >> 40,
            },
            2 => JournalEvent::Step {
                job: i as u64,
                op: rng.gen_range_u64(0, 64) as u32,
                thread: rng.gen_range_u64(0, 64) as u32,
                node: rng.gen_range_u64(0, 8) as u32,
                start: vt.saturating_sub(1000),
                work: rng.gen_range_u64(0, 1 << 30),
            },
            3 => JournalEvent::Post {
                op: rng.gen_range_u64(0, 64) as u32,
                thread: rng.gen_range_u64(0, 64) as u32,
                to: rng.gen_range_u64(0, 64) as u32,
                dst_thread: rng.gen_range_u64(0, 64) as u32,
                wire_bytes: rng.next_u64() >> 40,
                local: rng.gen_range_u64(0, 2) as u32,
            },
            4 => JournalEvent::Arrive {
                to: rng.gen_range_u64(0, 64) as u32,
                thread: rng.gen_range_u64(0, 64) as u32,
                src: rng.gen_range_u64(0, 8) as u32,
                dst: rng.gen_range_u64(0, 8) as u32,
                wire_bytes: rng.next_u64() >> 40,
                start: vt.saturating_sub(500),
            },
            5 => JournalEvent::Mark {
                label: labels[rng.gen_range_u64(0, labels.len() as u64) as usize],
            },
            6 => JournalEvent::Deactivate {
                thread: rng.gen_range_u64(0, 64) as u32,
            },
            7 => JournalEvent::Release {
                op: rng.gen_range_u64(0, 64) as u32,
            },
            8 => JournalEvent::Account {
                delta: rng.next_u64() as i64 >> 20,
            },
            _ => JournalEvent::Terminate,
        };
        j.push(SimTime(vt), ev);
    }
    j
}

/// A decode attempt must return, not panic.
fn decode_no_panic(bytes: &[u8], what: &str) -> Result<Result<Journal, String>, String> {
    catch_unwind(AssertUnwindSafe(|| {
        Journal::decode(bytes).map_err(|e| e.to_string())
    }))
    .map_err(|_| format!("{what}: decoder panicked"))
}

/// Robustness fuzz of the `desim` journal codec: the decoder must map
/// *every* truncated prefix of an encoded journal to a typed
/// [`desim::JournalDecodeError`], survive seeded single-bit corruptions
/// without panicking, and reject every truncated entry batch fed to
/// `append_entry_batch`. Returns pinpointed diagnostics on violation.
pub fn fuzz_journal_decode(seed: u64, flips: usize) -> Result<JournalFuzzReport, Vec<String>> {
    let journal = draw_journal(seed, 200);
    let bytes = journal.encode();
    let mut report = JournalFuzzReport {
        bytes: bytes.len(),
        ..JournalFuzzReport::default()
    };
    let mut failures = Vec::new();

    // Round trip sanity: the untouched encoding decodes back.
    match decode_no_panic(&bytes, "full encoding") {
        Ok(Ok(back)) => {
            if let Some(d) = back.first_divergence(&journal) {
                failures.push(format!("round trip diverged: {d}"));
            }
        }
        Ok(Err(e)) => failures.push(format!("full encoding rejected: {e}")),
        Err(msg) => failures.push(msg),
    }

    // 1. Every strict prefix is a truncation and must fail *typed*.
    for cut in 0..bytes.len() {
        report.truncations += 1;
        match decode_no_panic(&bytes[..cut], &format!("truncation at byte {cut}")) {
            Ok(Ok(_)) => failures.push(format!(
                "truncation at byte {cut} of {} decoded successfully",
                bytes.len()
            )),
            Ok(Err(_)) => {}
            Err(msg) => failures.push(msg),
        }
    }

    // 2. Seeded single-bit corruptions: a typed error or a (different)
    //    journal are both acceptable; a panic never is.
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xD6E8_FEB8_6659_FD93);
    for _ in 0..flips {
        report.flips += 1;
        let i = rng.gen_range_u64(0, bytes.len() as u64) as usize;
        let bit = rng.gen_range_u64(0, 8) as u8;
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 1 << bit;
        if let Err(msg) = decode_no_panic(&corrupt, &format!("bit flip at byte {i} bit {bit}")) {
            failures.push(msg);
        }
    }

    // 3. Truncated entry batches against the incremental appender.
    let header = journal.encode_header();
    let batch = journal.encode_entry_batch(0, journal.len());
    for cut in 0..batch.len() {
        report.batch_truncations += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut j = Journal::decode(&header).expect("header decodes");
            j.append_entry_batch(&batch[..cut]).map(|_| j.len())
        }));
        match outcome {
            Ok(Ok(n)) if cut < batch.len() => {
                // A truncated batch may decode only if it is itself a
                // complete shorter batch — which the varint framing
                // forbids; reaching here with entries appended is a bug.
                if n > 0 {
                    failures.push(format!(
                        "batch truncated at byte {cut} appended {n} entries"
                    ));
                }
            }
            Ok(_) => {}
            Err(_) => failures.push(format!("batch truncation at byte {cut}: appender panicked")),
        }
    }

    if failures.is_empty() {
        Ok(report)
    } else {
        Err(failures)
    }
}

/// Pinpoints the first difference between two texts as
/// `line L, column C: ours=... theirs=...` — the CSV-level analogue of the
/// journal's [`dps_sim::Divergence`], for outputs that are rendered bytes
/// rather than event streams. Returns `None` when the texts are equal.
pub fn first_text_divergence(ours: &str, theirs: &str) -> Option<String> {
    if ours == theirs {
        return None;
    }
    let at = ours
        .bytes()
        .zip(theirs.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(ours.len().min(theirs.len()));
    let line = ours.as_bytes()[..at]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1;
    let col = at
        - ours.as_bytes()[..at]
            .iter()
            .rposition(|&b| b == b'\n')
            .map(|p| p + 1)
            .unwrap_or(0);
    let excerpt = |s: &str| {
        s.lines()
            .nth(line - 1)
            .unwrap_or("<end of text>")
            .chars()
            .take(120)
            .collect::<String>()
    };
    Some(format!(
        "first differing byte at line {line}, column {col}: ours={:?} theirs={:?}",
        excerpt(ours),
        excerpt(theirs)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_divergence_pinpoints_line_and_column() {
        assert!(first_text_divergence("a,b\nc,d\n", "a,b\nc,d\n").is_none());
        let d = first_text_divergence("a,b\nc,d\n", "a,b\nc,X\n").unwrap();
        assert!(d.contains("line 2"), "{d}");
        assert!(d.contains("column 2"), "{d}");
        let d = first_text_divergence("a,b\n", "a,b\nextra\n").unwrap();
        assert!(d.contains("line 2"), "{d}");
    }

    /// The journal codec survives truncation and corruption with typed
    /// errors — the decoder-robustness satellite, seeded and quick.
    #[test]
    fn journal_codec_survives_truncation_and_bit_flips() {
        let report = fuzz_journal_decode(42, 64).unwrap_or_else(|f| panic!("{f:?}"));
        assert!(report.bytes > 500, "reference journal is non-trivial");
        assert_eq!(report.truncations, report.bytes);
        assert_eq!(report.flips, 64);
        assert!(report.batch_truncations > 0);
    }

    /// One seeded case end-to-end: the invariant holds on a real workload.
    #[test]
    fn single_fuzz_case_passes() {
        let out = fuzz(&FuzzConfig { seed: 7, cases: 1 });
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert_eq!(out.cases.len(), 1);
        assert!(out.cases[0].journal_len > 0);
    }
}
