//! Unified workload layer: real simulated applications behind the cluster
//! server's [`cluster::Workload`] trait, plus the shared experiment
//! environment and the scenario registry.
//!
//! The paper's stated future work — "a cluster server running concurrently
//! multiple, possibly different applications whose allocations of compute
//! nodes vary dynamically over time" — needs the server's scheduling
//! decisions to come from the simulator, not from an analytic stand-in.
//! This crate closes that loop:
//!
//! * [`LuWorkload`] / [`StencilWorkload`] ([`apps`]) wrap the two DPS
//!   evaluation applications as malleable workloads whose per-iteration
//!   dynamic-efficiency profiles are obtained from dps-sim runs, and whose
//!   allocation schedules can be *realized* as a single simulator run
//!   through the DPS thread-removal machinery;
//! * [`SimEnv`] ([`mod@env`]) is the one place where
//!   `NetParams`/`TestbedParams`/`SimConfig`/cost-model wiring lives — the
//!   bench figure binaries, the examples and the scenarios all share it;
//! * [`faulted`] plays a deterministic [`faults::FaultPlan`] against those
//!   applications — crashes map onto the thread-removal machinery at
//!   iteration boundaries with checkpoint/restart replay costs, slowdown
//!   and link-degrade windows inject through the fault fabric — and
//!   [`FaultedWorkload`] keys the server's profile cache by fault schedule;
//! * [`sweep`] is the shared-prefix sweep planner: a family of
//!   configurations differing only in their removal plans runs as one
//!   checkpointed prefix plus cheap per-plan forks
//!   (`lu_app::LuCheckpoint`), instead of N full simulations;
//! * [`scenarios`] is a registry of named experiment setups
//!   ([`ScenarioSpec`]) the `scenarios` runner binary lists and executes
//!   through the bench harness;
//! * [`scale`] is the `server-scale` experiment: the sharded multi-tenant
//!   [`cluster_svc::ClusterService`] driven to a million-job synthetic
//!   stream, with shard-count-invariance rows and the host-throughput
//!   measurement the `scenarios` binary records.

#![warn(missing_docs)]

pub mod apps;
pub mod env;
pub mod faulted;
pub mod scale;
pub mod scenarios;
pub mod sweep;
pub mod whatif;

pub use apps::{LuWorkload, StencilWorkload};
pub use env::{SimEnv, DEFAULT_SEED, N};
pub use faulted::{FaultAware, FaultedRun, FaultedWorkload};
pub use scale::{
    chaos_baseline, chaos_sweep, run_server_scale, run_server_whatif, server_scale_bench,
    server_scale_config, server_scale_load, server_scale_plan, server_whatif_bench,
    server_whatif_config, server_whatif_load, ChaosBaseline, ChaosRun, ChaosSummary, ScaleBenchRun,
    WhatIfBenchRun, CHAOS_GROUP_EVENTS, SCALE_JOBS, SCALE_SMOKE_JOBS, WHATIF_JOBS,
    WHATIF_SMOKE_JOBS,
};
pub use scenarios::{
    builtin_scenarios, fault_server_policies, find_scenario, server_policies, shrink_schedule,
    sim_job_set, ScenarioCtx, ScenarioPoint, ScenarioSpec,
};
pub use sweep::{sweep_lu, sweep_lu_labelled, SweepStats};
pub use whatif::{fork_vs_fresh_bench, ForkVsFresh, WhatIfEvaluator};
