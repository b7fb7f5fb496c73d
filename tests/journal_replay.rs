//! The journal's two headline properties (ISSUE 7 acceptance criteria):
//!
//! 1. **Replay**: re-executing a run against a recorded journal, pausing at
//!    *any* prefix (the reconstructed intermediate state) and resuming,
//!    produces a byte-identical canonical report and an event stream with
//!    no divergence from the recording — plain and under a seeded fault
//!    plan.
//! 2. **Pinpointing**: an intentionally perturbed run (one injected
//!    tie-break swap) yields a first-diverging-event diagnostic naming the
//!    ticket, virtual time and op — not a whole-report diff.

use dvns::desim::{SimDuration, SimTime};
use dvns::faults::FaultGenConfig;
use dvns::lu_app::{build_lu_app, predict_lu_with_fabric, DataMode, LuConfig};
use dvns::netmodel::NetParams;
use dvns::perfmodel::{LuCost, PlatformProfile};
use dvns::sim::journal::{replay, replay_with_fabric, Journal};
use dvns::sim::{FaultFabric, SimConfig, TimingMode};

fn simcfg() -> SimConfig {
    SimConfig {
        timing: TimingMode::ChargedOnly,
        step_overhead: SimDuration::from_micros(50),
        record_journal: true,
        ..SimConfig::default()
    }
}

fn lu_cfg() -> LuConfig {
    let mut cfg = LuConfig::new(288, 36, 4);
    cfg.mode = DataMode::Ghost;
    cfg.cost = Some(LuCost::new(PlatformProfile::ultrasparc_ii_440()));
    cfg
}

/// Prefix lengths spanning the whole journal: empty, interior points, full.
fn prefixes(len: usize) -> [usize; 5] {
    [0, len / 4, len / 2, 3 * len / 4, len]
}

#[test]
fn replay_from_any_prefix_is_byte_identical() {
    let net = NetParams::fast_ethernet();
    let cfg = lu_cfg();
    let (app, _) = build_lu_app(cfg.clone());
    let baseline = dvns::sim::simulate(&app, net, &simcfg()).unwrap();
    let canonical = baseline.canonical_string();
    let recorded = baseline.journal.as_ref().expect("journal recorded");
    assert!(!recorded.is_empty());

    let mut last_time = SimTime::ZERO;
    let mut last_steps = 0u64;
    for prefix in prefixes(recorded.len()) {
        let (app, _) = build_lu_app(cfg.clone());
        let out = replay(&app, net, &simcfg(), recorded, prefix).unwrap();
        assert!(
            out.divergence.is_none(),
            "replay diverged (prefix={prefix}): {}",
            out.divergence.unwrap()
        );
        assert_eq!(
            out.report.canonical_string(),
            canonical,
            "replayed report not byte-identical (prefix={prefix})"
        );
        // The reconstructed state advances monotonically with the prefix
        // and never past the recorded completion.
        assert!(out.prefix_time >= last_time && out.prefix_time <= baseline.completion);
        assert!(out.prefix_steps >= last_steps && out.prefix_steps <= baseline.steps);
        last_time = out.prefix_time;
        last_steps = out.prefix_steps;
    }
    assert_eq!(last_steps, baseline.steps, "full prefix reaches the end");
}

#[test]
fn replay_under_a_seeded_fault_plan_is_byte_identical() {
    let net = NetParams::fast_ethernet();
    let mut gen = FaultGenConfig::quiet(4, SimDuration::from_secs(400));
    gen.slowdowns = 3;
    gen.degrades = 2;
    let plan = gen.generate(0xFA_17);
    let cfg = lu_cfg();

    let mut fabric = FaultFabric::new(net, &plan);
    let baseline = predict_lu_with_fabric(&cfg, &mut fabric, &simcfg()).unwrap();
    let canonical = baseline.report.canonical_string();
    let recorded = baseline.report.journal.as_ref().expect("journal recorded");
    // The plan's rate windows open the stream (RateWindow entries at t=0).
    assert!(recorded
        .entries
        .iter()
        .take_while(|e| e.vtime == SimTime::ZERO)
        .any(|e| e.event.kind_name() == "RateWindow"));

    for prefix in prefixes(recorded.len()) {
        let (app, _) = build_lu_app(cfg.clone());
        let mut fabric = FaultFabric::new(net, &plan);
        let out = replay_with_fabric(&app, &mut fabric, &simcfg(), recorded, prefix).unwrap();
        assert!(
            out.divergence.is_none(),
            "faulted replay diverged (prefix={prefix}): {}",
            out.divergence.unwrap()
        );
        assert_eq!(
            out.report.canonical_string(),
            canonical,
            "faulted replay not byte-identical (prefix={prefix})"
        );
    }
}

/// Runs with `tie_break_swap = Some(n)` for growing n until the stream
/// actually diverges from `baseline` (the n-th same-instant batch exists
/// and its swap is observable). Returns the pinpointed divergence.
fn first_perturbed_divergence(
    cfg: &LuConfig,
    net: NetParams,
    baseline: &Journal,
) -> dvns::sim::Divergence {
    for n in 0..32u64 {
        let mut sc = simcfg();
        sc.tie_break_swap = Some(n);
        let (app, _) = build_lu_app(cfg.clone());
        let report = dvns::sim::simulate(&app, net, &sc).unwrap();
        let j = report.journal.expect("journal recorded");
        if let Some(d) = j.first_divergence(baseline) {
            return d;
        }
    }
    panic!("no same-instant completion batch found to perturb");
}

#[test]
fn injected_tie_break_swap_is_pinpointed() {
    let net = NetParams::fast_ethernet();
    let cfg = lu_cfg();
    let (app, _) = build_lu_app(cfg.clone());
    let baseline = dvns::sim::simulate(&app, net, &simcfg()).unwrap();
    let recorded = baseline.journal.as_ref().unwrap();

    let d = first_perturbed_divergence(&cfg, net, recorded);
    // The diagnostic names the event id, the commit ticket, the virtual
    // time and the op — the acceptance criterion.
    assert!(d.ticket.is_some(), "divergence carries a ticket: {d}");
    assert!(d.op.is_some(), "divergence carries an op: {d}");
    assert!(d.vtime_ours.is_some(), "divergence carries a vtime: {d}");
    // Visible under `--nocapture`; the README quotes this output.
    println!("pinpointed: {d}");
    let msg = d.to_string();
    assert!(msg.contains("first diverging event #"), "{msg}");
    assert!(msg.contains("ticket"), "{msg}");
    assert!(msg.contains("op"), "{msg}");
    assert!(msg.contains("vtime"), "{msg}");
}
