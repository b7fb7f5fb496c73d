//! Cross-crate determinism of the sharded cluster service with *real*
//! simulator-backed workloads: the committed report must be byte-identical
//! across shard counts, plain and under a seeded fault plan.

use std::sync::Arc;

use dvns::cluster::SchedulePolicy;
use dvns::cluster_svc::{
    ClusterService, JobSpec, ServeOptions, ServiceConfig, SyntheticLoad, TenantSpec,
};
use dvns::desim::{SimDuration, SimTime};
use dvns::faults::{CheckpointSpec, FaultEvent, FaultKind, FaultPlan};
use dvns::workload::SimEnv;

fn cfg(shards: u32) -> ServiceConfig {
    ServiceConfig::new(
        8,
        2,
        shards,
        SchedulePolicy::Malleable {
            min_efficiency: 0.5,
        },
    )
    .with_tenant(TenantSpec::new("lu", 2))
    .with_tenant(TenantSpec::new("mix", 1))
}

/// A small stream mixing simulator-backed LU jobs (profiled through
/// dps-sim) with analytic filler from the synthetic generator.
fn stream(env: &SimEnv) -> Vec<JobSpec> {
    let lu_small = Arc::new(env.lu_workload(env.lu_sized(96, 12, 8)));
    let lu_tiny = Arc::new(env.lu_workload(env.lu_sized(64, 8, 8)));
    let mut jobs = vec![
        JobSpec::boxed(0, SimTime::ZERO, 8, lu_small.clone()),
        JobSpec::boxed(0, SimTime(50_000_000), 4, lu_tiny.clone()),
        JobSpec::boxed(0, SimTime(100_000_000), 6, lu_small),
        JobSpec::boxed(0, SimTime(150_000_000), 8, lu_tiny),
    ];
    let filler = SyntheticLoad::new(
        40,
        1,
        8,
        SimDuration::from_millis(80),
        SimDuration::from_millis(500),
        9,
    )
    .map(|mut j| {
        j.tenant = 1; // the generator draws tenant 0; move filler to "mix"
        j
    });
    jobs.extend(filler);
    jobs.sort_by_key(|j| j.arrival);
    jobs
}

fn plan() -> FaultPlan {
    FaultPlan::new(
        vec![
            FaultEvent {
                at: SimTime(200_000_000),
                node: 3,
                kind: FaultKind::NodeCrash,
            },
            FaultEvent {
                at: SimTime(350_000_000),
                node: 9,
                kind: FaultKind::NodePreempt {
                    return_after: SimDuration::from_millis(400),
                },
            },
        ],
        CheckpointSpec::every(
            2,
            SimDuration::from_millis(20),
            SimDuration::from_millis(80),
        ),
    )
}

fn canonical(shards: u32, faulted: bool) -> String {
    let env = SimEnv::paper();
    let svc = ClusterService::new(cfg(shards)).unwrap();
    let plan = if faulted { plan() } else { FaultPlan::none() };
    let report = svc
        .serve(stream(&env), &plan, &ServeOptions::default())
        .unwrap()
        .report;
    assert_eq!(
        report.completed_jobs() + report.failed_jobs() + report.rejected_jobs(),
        44
    );
    report.canonical_string()
}

#[test]
fn sim_backed_service_is_invariant_across_shard_counts() {
    let reference = canonical(1, false);
    assert_eq!(reference, canonical(2, false), "shard count leaked");
}

#[test]
fn sim_backed_service_is_invariant_under_a_fault_plan() {
    let reference = canonical(1, true);
    assert!(
        !reference.contains("faults restarts=0 "),
        "the seeded crash must interrupt a held job:\n{reference}"
    );
    assert_eq!(reference, canonical(2, true), "shard count leaked");
}
