//! Crash-recovery property at server scale: recovering from **every**
//! committed WAL prefix — clean frame boundaries and seeded torn tails —
//! reproduces the uninterrupted run byte-for-byte, quiet and under the
//! seeded cross-shard fault plan.
//!
//! This is the cross-crate, full-topology version of the unit property in
//! `cluster_svc::recovery`: the stream is the `server-scale` synthetic
//! load (20 000 jobs in release, scaled down in debug so `cargo test`
//! stays quick), the topology is the 8-cell × 8-node four-tenant config,
//! and the fault plan crashes nodes across shard boundaries.

use dvns::cluster_svc::{
    ClusterService, CrashPlan, DurabilitySpec, ServeOptions, ServiceOutcome, WriteAheadLog,
};
use dvns::faults::FaultPlan;
use dvns::workload::{server_scale_config, server_scale_load, server_scale_plan};

const SEED: u64 = 42;
const SHARDS: u32 = 2;

/// Server-scale smoke in release; small enough for debug `cargo test`.
fn jobs() -> u64 {
    if cfg!(debug_assertions) {
        2_000
    } else {
        20_000
    }
}

/// Group-commit cadence sized so the WAL has a handful of frames at
/// either job count — every-prefix recovery then re-serves the stream
/// roughly ten times, not hundreds.
fn spec() -> DurabilitySpec {
    DurabilitySpec::group_commit(jobs())
}

fn fault_plan(faulted: bool) -> FaultPlan {
    if faulted {
        server_scale_plan(jobs(), SEED)
    } else {
        FaultPlan::none()
    }
}

fn service() -> ClusterService {
    ClusterService::new(server_scale_config(SHARDS)).expect("valid scale config")
}

fn durable_baseline(faulted: bool) -> (ServiceOutcome, WriteAheadLog) {
    service()
        .serve_durable(
            server_scale_load(jobs(), SEED),
            &fault_plan(faulted),
            &ServeOptions::default(),
            &spec(),
        )
        .expect("durable scale run")
}

fn recover_and_compare(baseline: &ServiceOutcome, wal_bytes: &[u8], faulted: bool, what: &str) {
    let (out, crash) = service()
        .recover(
            server_scale_load(jobs(), SEED),
            &fault_plan(faulted),
            &ServeOptions::default(),
            wal_bytes,
        )
        .unwrap_or_else(|e| panic!("recovery failed ({what}): {e}"));
    assert_eq!(
        out.report.canonical_string(),
        baseline.report.canonical_string(),
        "canonical report diverged: {what}"
    );
    let (j, bj) = (
        out.journal.as_ref().expect("recovered journal"),
        baseline.journal.as_ref().expect("baseline journal"),
    );
    if let Some(d) = j.first_divergence(bj) {
        panic!("decision stream diverged ({what}): {d}");
    }
    assert_eq!(j.encode(), bj.encode(), "journal bytes diverged: {what}");
    let replay = out.replay.expect("resumed runs report replay stats");
    assert_eq!(replay.prefix_entries, crash.recovered_entries, "{what}");
    assert_eq!(replay.matched, replay.prefix_entries, "{what}");
}

fn every_prefix_recovers(faulted: bool) {
    let (baseline, wal) = durable_baseline(faulted);
    assert!(
        wal.frames() >= 3,
        "the property needs several frames, got {}",
        wal.frames()
    );
    // Every clean frame boundary — including "only the header survived".
    for k in 1..=wal.frames() {
        recover_and_compare(
            &baseline,
            wal.frame_prefix(k),
            faulted,
            &format!(
                "faulted={faulted}, clean prefix of {k}/{} frames",
                wal.frames()
            ),
        );
    }
    // Seeded torn tails: the in-flight frame is half-written with a bit
    // flipped; recovery must truncate it at the checksum, never replay it.
    for crash_seed in 0..3u64 {
        let plan = CrashPlan::new(crash_seed.wrapping_add(SEED));
        recover_and_compare(
            &baseline,
            &plan.crashed_bytes(&wal),
            faulted,
            &format!("faulted={faulted}, torn crash seed {}", plan.seed),
        );
    }
}

#[test]
fn quiet_server_scale_recovers_from_every_committed_prefix() {
    every_prefix_recovers(false);
}

#[test]
fn faulted_server_scale_recovers_from_every_committed_prefix() {
    every_prefix_recovers(true);
}
