//! Golden-output guard for the simulator core and the durable journal:
//! bit-exact digests of small LU predictions, one seeded testbed
//! measurement, and one durable service run's WAL and journal bytes.
//!
//! Each digest is `byte length:crc32` of the run's canonical report (for
//! the predictions, with the factorization time's bit pattern appended),
//! or of the encoded bytes. Any rework of `ProgressSet`,
//! `netmodel::Network`, the engine's CPU model or the journal/WAL codec
//! must reproduce them byte for byte; a digest may only change together
//! with a deliberate, documented change of the model or the format.

use dvns::desim::{crc32, SimDuration};
use dvns::faults::FaultGenConfig;
use dvns::lu_app::{build_lu_app, predict_lu_with_fabric, DataMode, LuConfig, LuRun};
use dvns::netmodel::{NetParams, Sharing};
use dvns::perfmodel::{LuCost, PlatformProfile};
use dvns::sim::{Fabric, FaultFabric, SimConfig, SimFabric, TimingMode};
use dvns::testbed::TestbedParams;

fn simcfg() -> SimConfig {
    SimConfig {
        timing: TimingMode::ChargedOnly,
        step_overhead: SimDuration::from_micros(50),
        ..SimConfig::default()
    }
}

/// 432² in 36² blocks on 8 nodes: twelve iterations with plenty of
/// concurrent flows per port.
fn lu_cfg() -> LuConfig {
    let mut cfg = LuConfig::new(432, 36, 8);
    cfg.mode = DataMode::Ghost;
    cfg.cost = Some(LuCost::new(PlatformProfile::ultrasparc_ii_440()));
    cfg
}

fn digest(text: &str) -> String {
    format!("{}:{:08x}", text.len(), crc32(text.as_bytes()))
}

fn run_digest(run: &LuRun) -> String {
    digest(&format!(
        "{} factorization={:016x}",
        run.report.canonical_string(),
        run.factorization_time.as_secs_f64().to_bits()
    ))
}

fn predict(cfg: &LuConfig, fabric: &mut dyn Fabric) -> String {
    run_digest(&predict_lu_with_fabric(cfg, fabric, &simcfg()).unwrap())
}

#[test]
fn equal_split_prediction_is_pinned() {
    let net = NetParams::fast_ethernet();
    assert_eq!(
        predict(&lu_cfg(), &mut SimFabric::new(net)),
        "1527:6b1b646b"
    );
}

#[test]
fn max_min_prediction_is_pinned() {
    let net = NetParams::fast_ethernet();
    let mut fabric = SimFabric::with_sharing(net, Sharing::MaxMin);
    assert_eq!(predict(&lu_cfg(), &mut fabric), "1527:d9c3a5ab");
}

#[test]
fn removal_plan_prediction_is_pinned() {
    let mut cfg = lu_cfg();
    cfg.removal = vec![(3, 2), (6, 2)];
    let net = NetParams::fast_ethernet();
    assert_eq!(predict(&cfg, &mut SimFabric::new(net)), "1593:307233a9");
}

#[test]
fn capacity_window_fault_plan_prediction_is_pinned() {
    let net = NetParams::fast_ethernet();
    let mut gen = FaultGenConfig::quiet(8, SimDuration::from_secs(2));
    gen.degrades = 4;
    let plan = gen.generate(0xD1CE);
    let mut fabric = FaultFabric::new(net, &plan);
    assert!(
        !fabric.scheduled_windows().is_empty(),
        "the plan must degrade some links"
    );
    assert_eq!(predict(&lu_cfg(), &mut fabric), "1527:eb79ac4e");
}

#[test]
fn seeded_testbed_measurement_is_pinned() {
    let (app, _shared) = build_lu_app(lu_cfg());
    let report = dvns::testbed::measure(&app, TestbedParams::sun_cluster(), 11, &simcfg()).unwrap();
    assert_eq!(digest(&report.canonical_string()), "1487:a0b918d1");
}

/// 2,000 seeded `server-scale` jobs served durably under the chaos
/// harness's group-commit cadence: the WAL bytes and the monolithic
/// journal encoding are pinned, so any rework of the journal codec or the
/// WAL framing must write the same bytes.
#[test]
fn durable_serve_wal_and_journal_bytes_are_pinned() {
    use dvns::cluster_svc::{ClusterService, DurabilitySpec, ServeOptions};
    use dvns::faults::FaultPlan;
    use dvns::workload::{server_scale_config, server_scale_load, CHAOS_GROUP_EVENTS};

    let svc = ClusterService::new(server_scale_config(2)).unwrap();
    let (out, wal) = svc
        .serve_durable(
            server_scale_load(2_000, 7),
            &FaultPlan::none(),
            &ServeOptions::default(),
            &DurabilitySpec::group_commit(CHAOS_GROUP_EVENTS),
        )
        .unwrap();
    let journal = out.journal.expect("durable serves record the journal");
    assert!(
        wal.frames() > 2,
        "want several frames, got {}",
        wal.frames()
    );
    let bytes_digest = |b: &[u8]| format!("{}:{:08x}", b.len(), crc32(b));
    assert_eq!(bytes_digest(wal.bytes()), "98744:921322f7");
    assert_eq!(bytes_digest(&journal.encode()), "98708:6176b01f");
}
