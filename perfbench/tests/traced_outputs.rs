//! The traced run must not change what the program computes, and every
//! workload's result line must carry exactly the metrics `BENCHMARK.json`
//! lists. Runs on test-sized inputs.

use std::sync::Arc;

use cluster_svc::{ClusterService, ServeOptions};
use faults::FaultPlan;
use perfbench::layers::{Clocks, TimedStream};
use perfbench::{lu_predict, server, WORKLOADS};

const SEED: u64 = 5;

#[test]
fn traced_lu_predictions_are_byte_identical() {
    let (env, cases) = lu_predict::cases(SEED, true);
    let clocks = Arc::new(Clocks::default());
    for case in &cases {
        let plain = lu_predict::predict(&env, case).expect("untraced prediction");
        let traced = lu_predict::predict_traced(&env, case, &clocks).expect("traced prediction");
        assert_eq!(plain.canonical, traced.canonical, "{}", case.label);
    }
    assert!(clocks.netmodel.calls() > 0, "the fabric wrapper saw calls");
    assert_eq!(clocks.build.calls(), cases.len() as u64);
}

#[test]
fn traced_whatif_serve_is_byte_identical() {
    let specs = server::whatif_specs(SEED, &server::SMALL);
    let svc = ClusterService::new(workload::server_whatif_config(2)).expect("config");
    let plain = svc
        .serve(specs.clone(), &FaultPlan::none(), &ServeOptions::default())
        .expect("untraced serve");
    let clocks = Arc::new(Clocks::default());
    let stream = TimedStream::new(
        server::timed_specs(&specs, &clocks).into_iter(),
        Arc::clone(&clocks),
    );
    let traced = svc
        .serve(stream, &FaultPlan::none(), &ServeOptions::default())
        .expect("traced serve");
    assert_eq!(
        plain.report.canonical_string(),
        traced.report.canonical_string()
    );
    assert!(clocks.stream.calls() > specs.len() as u64);
    assert!(clocks.profile.calls() + clocks.session_open.calls() > 0);
}

/// Metric names listed under `key` in `BENCHMARK.json`, in order.
fn listed(key: &str) -> Vec<String> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text.find(&format!("\"{key}\"")).expect("section present");
    let section = &text[start..];
    let end = section.find(']').expect("section closes");
    section[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

#[test]
fn every_workload_passes_its_checks_and_reports_the_listed_metrics() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    assert!(!end_to_end.is_empty() && !per_layer.is_empty());
    for name in WORKLOADS {
        for trace in [false, true] {
            let out = perfbench::run(name, SEED, 0.01, trace, true).expect("known workload");
            assert!(
                out.correct(),
                "{name} trace={trace}: {:?}",
                out.tally.problems
            );
            let names: Vec<String> = out.metrics.iter().map(|m| m.name.to_string()).collect();
            let want = if trace { &per_layer } else { &end_to_end };
            assert_eq!(&names, want, "{name} trace={trace}");
            let line = out.json();
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
        }
    }
    assert!(perfbench::run("no-such-workload", SEED, 0.01, false, true).is_none());
}
