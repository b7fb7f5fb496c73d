//! Hardened-execution tests: mis-wired flow graphs must come back as
//! typed `DeadlockDetected` errors naming the blocked operations (never
//! a hang or a panic), budgets and cancellation must fail runs cleanly,
//! and a killed run must leave the application reusable.

use desim::{SimDuration, SimTime};
use dps::prelude::*;
use dps::wire_size_fixed;
use dps_sim::{simulate, BudgetKind, CancelToken, SimConfig, SimErrorKind, TimingMode};
use netmodel::NetParams;

struct Token(#[allow(dead_code)] u64);
wire_size_fixed!(Token, 8);

const US: SimDuration = SimDuration(1_000);
const MS: SimDuration = SimDuration(1_000_000);

fn cfg() -> SimConfig {
    SimConfig {
        timing: TimingMode::ChargedOnly,
        step_overhead: SimDuration::ZERO,
        ..SimConfig::default()
    }
}

/// A split that posts `n` tokens to a leaf which never releases credits.
fn non_draining_app(n: u64, window: usize) -> Application {
    let mut b = AppBuilder::new("nondraining");
    b.thread_group("workers", 1);
    let main = b.thread_on_node("main", 1);
    let split = b.declare("split", OpKind::Split);
    let leaf = b.declare("leaf", OpKind::Leaf);
    b.body(split, move |_, _| {
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            for i in 0..n {
                ctx.charge(US);
                ctx.post(leaf, Box::new(Token(i)));
            }
        })
    });
    b.body(leaf, |_, _| op_fn(|_obj, _ctx| {}));
    b.edge(split, leaf, round_robin("workers"));
    b.flow_control(split, window);
    b.start(split, main, || Box::new(Token(0)));
    b.build().unwrap()
}

#[test]
fn window_of_zero_deadlocks_with_named_blocked_op() {
    // A zero-size window can never admit a post: the very first one parks
    // the split forever. The engine must return a diagnostic naming the
    // split and its target, not hang.
    let err = simulate(&non_draining_app(1, 0), NetParams::ideal(), &cfg())
        .expect_err("a zero window must deadlock");
    let diag = err.deadlock_diag().expect("deadlock diagnostic");
    let b = diag
        .blocked
        .iter()
        .find(|b| b.op == "split")
        .expect("split must be reported blocked");
    assert_eq!(b.window, 0);
    assert_eq!(b.in_flight, 0);
    assert_eq!(b.waiting_on, "leaf");
}

#[test]
fn window_of_one_with_non_draining_consumer_deadlocks() {
    // Window 1, two posts, no releases: the second post parks the split
    // with one credit in flight and one object stranded at the leaf.
    let err = simulate(&non_draining_app(2, 1), NetParams::ideal(), &cfg())
        .expect_err("a non-draining window must deadlock");
    let diag = err.deadlock_diag().expect("deadlock diagnostic");
    let b = diag
        .blocked
        .iter()
        .find(|b| b.op == "split")
        .expect("split must be reported blocked");
    assert_eq!((b.window, b.in_flight), (1, 1));
    assert_eq!(b.waiting_on, "leaf");
    assert!(diag.busy_servers >= 1, "{diag:?}");
    // The rendered error names both ends of the stuck edge.
    let msg = err.to_string();
    assert!(msg.contains("split") && msg.contains("leaf"), "{msg}");
}

#[test]
fn cyclic_credit_wait_names_the_cycle() {
    // Two windowed ops posting to each other: each one's second post parks
    // behind its own window while the peer — the only op that could drain
    // it — is parked the same way. The wait-for graph has the cycle
    // ping -> pong -> ping and the diagnostic must name it.
    let mut b = AppBuilder::new("cycle");
    let t0 = b.thread_on_node("a", 0);
    let t1 = b.thread_on_node("b", 1);
    let main = b.thread_on_node("main", 2);
    let ping = b.declare("ping", OpKind::Split);
    let pong = b.declare("pong", OpKind::Split);
    for (me, peer) in [(ping, pong), (pong, ping)] {
        b.body(me, move |_, _| {
            let mut fired = false;
            op_fn(move |_obj, ctx: &mut dyn OpCtx| {
                if !fired {
                    fired = true;
                    ctx.charge(US);
                    ctx.post(peer, Box::new(Token(0)));
                    ctx.post(peer, Box::new(Token(1)));
                }
            })
        });
    }
    b.edge(ping, pong, to_thread(t1));
    b.edge(pong, ping, to_thread(t0));
    b.flow_control(ping, 1);
    b.flow_control(pong, 1);
    b.start(ping, main, || Box::new(Token(0)));
    b.start(pong, main, || Box::new(Token(0)));
    let app = b.build().unwrap();

    let err = simulate(&app, NetParams::ideal(), &cfg()).expect_err("a credit cycle must deadlock");
    let diag = err.deadlock_diag().expect("deadlock diagnostic");
    assert!(
        diag.cycle.contains(&"ping".to_string()) && diag.cycle.contains(&"pong".to_string()),
        "cycle must name both ops: {:?}",
        diag.cycle
    );
    let msg = err.to_string();
    assert!(msg.contains("cycle"), "{msg}");
}

/// A well-formed two-stage pipeline that terminates after `n` results.
fn good_app(n: u64) -> Application {
    let mut b = AppBuilder::new("good");
    b.thread_group("workers", 2);
    let main = b.thread_on_node("main", 2);
    let split = b.declare("split", OpKind::Split);
    let leaf = b.declare("leaf", OpKind::Leaf);
    let merge = b.declare("merge", OpKind::Merge);
    b.body(split, move |_, _| {
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            for i in 0..n {
                ctx.charge(US);
                ctx.post(leaf, Box::new(Token(i)));
            }
        })
    });
    b.body(leaf, move |_, _| {
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            ctx.charge(MS);
            ctx.post(merge, Box::new(Token(0)));
        })
    });
    b.body(merge, move |_, _| {
        let mut seen = 0;
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            seen += 1;
            if seen == n {
                ctx.terminate();
            }
        })
    });
    b.edge(split, leaf, round_robin("workers"));
    b.edge(leaf, merge, to_thread(main));
    b.start(split, main, || Box::new(Token(0)));
    b.build().unwrap()
}

#[test]
fn step_budget_fails_runs_instead_of_looping() {
    let mut c = cfg();
    c.max_steps = 5;
    let err = simulate(&good_app(64), NetParams::ideal(), &c)
        .expect_err("5 steps cannot finish 64 pieces");
    match err.kind {
        SimErrorKind::BudgetExceeded { kind, steps, .. } => {
            assert_eq!(kind, BudgetKind::Steps);
            assert!(steps > 5, "budget fired after {steps} steps");
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
}

#[test]
fn virtual_time_budget_fails_runs_before_advancing_past_it() {
    let mut c = cfg();
    c.max_virtual_time = Some(SimTime(2_000_000)); // 2ms << the ~1s run
    let err =
        simulate(&good_app(64), NetParams::ideal(), &c).expect_err("the run lasts far beyond 2ms");
    match err.kind {
        SimErrorKind::BudgetExceeded { kind, at, .. } => {
            assert_eq!(kind, BudgetKind::VirtualTime);
            assert!(at <= SimTime(2_000_000), "stopped at {at}");
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
}

#[test]
fn cancellation_token_aborts_between_events() {
    let token = CancelToken::new();
    token.cancel(); // cancelled before the run even starts
    let mut c = cfg();
    c.cancel = Some(token);
    let err = simulate(&good_app(64), NetParams::ideal(), &c)
        .expect_err("a cancelled token must abort the run");
    assert!(
        matches!(err.kind, SimErrorKind::Cancelled { .. }),
        "expected Cancelled, got {err}"
    );
}

#[test]
fn budget_killed_run_leaves_the_application_reusable() {
    // Killing a run (budget or deadlock) must not poison the application
    // value: a fresh simulation of the same app completes and matches a
    // run that was never interrupted.
    let app = good_app(8);
    let clean = simulate(&app, NetParams::ideal(), &cfg()).unwrap();
    assert!(clean.terminated);

    let mut tight = cfg();
    tight.max_steps = 3;
    let err = simulate(&app, NetParams::ideal(), &tight).expect_err("budget kill");
    assert!(matches!(err.kind, SimErrorKind::BudgetExceeded { .. }));

    let again = simulate(&app, NetParams::ideal(), &cfg()).unwrap();
    assert!(again.terminated);
    assert_eq!(
        again.canonical_string(),
        clean.canonical_string(),
        "a killed run must not perturb later runs"
    );

    // Same property across a deadlock: the failing app fails, the good one
    // still runs byte-identically.
    let bad = non_draining_app(2, 1);
    assert!(simulate(&bad, NetParams::ideal(), &cfg()).is_err());
    let after = simulate(&app, NetParams::ideal(), &cfg()).unwrap();
    assert_eq!(after.canonical_string(), clean.canonical_string());
}

#[test]
fn deadlock_detection_is_deterministic() {
    // The same mis-wired graph yields the same diagnostic every time —
    // error paths obey the same determinism contract as successful runs.
    let a = simulate(&non_draining_app(2, 1), NetParams::ideal(), &cfg()).unwrap_err();
    let b = simulate(&non_draining_app(2, 1), NetParams::ideal(), &cfg()).unwrap_err();
    assert_eq!(a, b);
}

/// A pipeline whose every post funnels through the split's one
/// flow-control `window`: each leaf invocation releases a credit into it
/// and posts to the single merge server.
fn shared_window_app(n: u64, window: usize) -> Application {
    let mut b = AppBuilder::new("shared-window");
    b.thread_group("workers", 4);
    let main = b.thread_on_node("main", 4);
    let split = b.declare("split", OpKind::Split);
    let leaf = b.declare("leaf", OpKind::Leaf);
    let merge = b.declare("merge", OpKind::Merge);
    b.body(split, move |_, _| {
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            for i in 0..n {
                ctx.charge(US);
                ctx.post(leaf, Box::new(Token(i)));
            }
        })
    });
    b.body(leaf, move |_, _| {
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            ctx.charge(US * 3);
            ctx.fc_release(split);
            ctx.post(merge, Box::new(Token(0)));
        })
    });
    b.body(merge, move |_, _| {
        let mut seen = 0;
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            seen += 1;
            if seen == n {
                ctx.terminate();
            }
        })
    });
    b.edge(split, leaf, round_robin("workers"));
    b.edge(leaf, merge, to_thread(main));
    b.flow_control(split, window);
    b.start(split, main, || Box::new(Token(0)));
    b.build().unwrap()
}

#[test]
fn shared_window_app_terminates_at_windows_1_2_and_7() {
    // Tight windows park the split behind in-flight credits over and over;
    // every leaf step reopens the window. A lost or reordered credit would
    // deadlock the run.
    for window in [1, 2, 7] {
        let report = simulate(&shared_window_app(48, window), NetParams::ideal(), &cfg())
            .unwrap_or_else(|e| panic!("window {window} deadlocked: {e}"));
        assert!(report.terminated, "window {window}");
        // One split step per post, one leaf step per piece and one merge
        // step per arrival.
        assert_eq!(report.steps, 3 * 48, "window {window}");
    }
}

#[test]
fn panic_in_an_operation_body_reaches_the_caller() {
    let mut b = AppBuilder::new("poisoned");
    b.thread_group("workers", 4);
    let main = b.thread_on_node("main", 4);
    let split = b.declare("split", OpKind::Split);
    let leaf = b.declare("leaf", OpKind::Leaf);
    b.body(split, move |_, _| {
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            for i in 0..16 {
                ctx.charge(US);
                ctx.post(leaf, Box::new(Token(i)));
            }
        })
    });
    b.body(leaf, move |_, _| {
        let mut calls = 0u64;
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            assert!(calls != 2, "poisoned invocation {calls}");
            calls += 1;
            ctx.charge(US);
        })
    });
    b.edge(split, leaf, round_robin("workers"));
    b.start(split, main, || Box::new(Token(0)));
    let app = b.build().unwrap();

    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        simulate(&app, NetParams::ideal(), &cfg())
    }))
    .expect_err("the poisoned invocation must panic");
    let message = payload
        .downcast_ref::<String>()
        .expect("panic carries its message");
    assert!(message.contains("poisoned invocation 2"), "{message}");
}
