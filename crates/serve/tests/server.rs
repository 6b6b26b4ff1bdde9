//! Server-level robustness contracts: typed admission verdicts, deadline
//! shedding and downgrade, quarantine circuit breaking, graceful drain —
//! and the headline property test, exactly one reply per submitted
//! request across thread counts under injected worker panics.

use cpo_engine::EngineConfig;
use cpo_model::generator::section2_example;
use cpo_model::prelude::*;
use cpo_model::spec::Strategy;
use cpo_serve::chaos::ChaosConfig;
use cpo_serve::{
    DeadlineStage, RejectReason, ReplySink, ServeConfig, ServeOutcome, ServeReply, Server,
    ServerHooks,
};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

/// A sink collecting every reply.
fn collecting_sink() -> (ReplySink, Arc<Mutex<Vec<ServeReply>>>) {
    let replies: Arc<Mutex<Vec<ServeReply>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_replies = Arc::clone(&replies);
    let sink: ReplySink = Arc::new(move |r: &ServeReply| sink_replies.lock().push(r.clone()));
    (sink, replies)
}

/// Apps from the paper's running example over a fully homogeneous
/// platform (the polynomial interval DPs apply there).
fn instance() -> (AppSet, Platform) {
    let (apps, _) = section2_example();
    (apps, Platform::fully_homogeneous(3, vec![1.0, 3.0, 6.0, 8.0], 1.0).unwrap())
}

fn request(desc: &str) -> SolveRequest {
    let (apps, pf) = instance();
    SolveRequest::new(
        desc,
        apps,
        pf,
        ProblemSpec::new(Objective::Period, Strategy::Interval, CommModel::Overlap),
    )
}

/// A structurally distinct request per `i` (distinct period bounds →
/// distinct spec digests).
fn distinct_request(i: u32) -> SolveRequest {
    let (apps, pf) = instance();
    let tb = 0.25 * f64::from(i + 1);
    SolveRequest::new(
        format!("req-{i}"),
        apps,
        pf,
        ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
            .with_period_bounds(vec![tb, tb]),
    )
    .with_id(format!("id-{i}"))
}

fn serve_cfg(threads: usize) -> ServeConfig {
    ServeConfig {
        threads,
        engine: EngineConfig { threads: 1, ..EngineConfig::default() },
        ..ServeConfig::default()
    }
}

/// Block until `n` replies have landed (strike/quarantine tests need
/// admission verdicts ordered after earlier workers finished).
fn wait_for_replies(replies: &Arc<Mutex<Vec<ServeReply>>>, n: usize) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while replies.lock().len() < n {
        assert!(std::time::Instant::now() < deadline, "timed out waiting for {n} replies");
        std::thread::yield_now();
    }
}

#[test]
fn solves_and_echoes_the_envelope() {
    let (sink, replies) = collecting_sink();
    let server = Server::start(serve_cfg(2), sink, ServerHooks::default());
    server.submit(request("r").with_id("alpha").with_tenant("t1"));
    let stats = server.drain();
    let replies = replies.lock();
    assert_eq!(replies.len(), 1);
    assert_eq!(replies[0].id.as_deref(), Some("alpha"));
    assert_eq!(replies[0].tenant.as_deref(), Some("t1"));
    assert!(matches!(
        &replies[0].outcome,
        ServeOutcome::Done { result: SolveOutcome::Solution(_) }
    ));
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.done, 1);
    assert_eq!(stats.replies(), 1);
}

#[test]
fn garbage_lines_get_typed_invalid_replies() {
    let (sink, replies) = collecting_sink();
    let server = Server::start(serve_cfg(1), sink, ServerHooks::default());
    server.submit_line("this is not json");
    server.submit_line(request("ok").with_id("good").to_json_compact().unwrap());
    server.submit_line("{\"version\":99}");
    let stats = server.drain();
    let replies = replies.lock();
    assert_eq!(replies.len(), 3);
    let invalid: Vec<_> = replies
        .iter()
        .filter(|r| {
            matches!(
                &r.outcome,
                ServeOutcome::Rejected { reason: RejectReason::Invalid, detail }
                    if detail.starts_with("unparseable request:")
            )
        })
        .collect();
    assert_eq!(invalid.len(), 2);
    assert!(invalid.iter().all(|r| r.id.is_none()));
    assert_eq!(stats.rejected_invalid, 2);
    assert_eq!(stats.done, 1);
}

#[test]
fn full_queue_rejects_with_queue_full() {
    let (sink, replies) = collecting_sink();
    // No workers draining: 0-thread servers are not allowed, so use a
    // poison-free stall to keep the single worker busy while we flood.
    let cfg = ServeConfig {
        queue_capacity: 2,
        chaos: Some(ChaosConfig::parse("stall=1.0:300", 0).unwrap()),
        ..serve_cfg(1)
    };
    let server = Server::start(cfg, sink, ServerHooks::default());
    // 1 in flight (stalling) + 2 queued; the rest must bounce.
    for i in 0..8 {
        server.submit(request(&format!("flood-{i}")));
    }
    let stats = server.drain();
    let replies = replies.lock();
    assert_eq!(replies.len(), 8, "every submission is answered");
    let bounced = replies
        .iter()
        .filter(|r| {
            matches!(
                &r.outcome,
                ServeOutcome::Rejected { reason: RejectReason::QueueFull, .. }
            )
        })
        .count();
    assert!(bounced >= 5, "capacity 2 + 1 in flight can absorb at most 3, got {bounced} bounces");
    assert_eq!(stats.rejected_queue_full as usize, bounced);
    assert_eq!(stats.replies(), 8);
}

#[test]
fn flooding_tenant_is_rate_limited_without_starving_others() {
    let (sink, replies) = collecting_sink();
    let cfg = ServeConfig { rate_per_sec: 0.001, burst: 2.0, ..serve_cfg(1) };
    let server = Server::start(cfg, sink, ServerHooks::default());
    for i in 0..10 {
        server.submit(request(&format!("f{i}")).with_tenant("flooder").with_id(format!("f{i}")));
    }
    server.submit(request("q").with_tenant("quiet").with_id("quiet-1"));
    let stats = server.drain();
    let replies = replies.lock();
    assert_eq!(replies.len(), 11);
    let limited = replies
        .iter()
        .filter(|r| {
            matches!(
                &r.outcome,
                ServeOutcome::Rejected { reason: RejectReason::RateLimited, .. }
            )
        })
        .count();
    assert_eq!(limited, 8, "burst 2 admits 2 flooder requests");
    let quiet = replies.iter().find(|r| r.id.as_deref() == Some("quiet-1")).unwrap();
    assert!(
        matches!(&quiet.outcome, ServeOutcome::Done { .. }),
        "the quiet tenant is admitted: {:?}",
        quiet.outcome
    );
    assert_eq!(stats.rejected_rate_limited, 8);
}

#[test]
fn deadline_zero_is_shed_at_dequeue() {
    let (sink, replies) = collecting_sink();
    // The stall burns the whole 0ms budget before the dequeue check.
    let cfg = ServeConfig {
        chaos: Some(ChaosConfig::parse("stall=1.0:5", 0).unwrap()),
        ..serve_cfg(1)
    };
    let server = Server::start(cfg, sink, ServerHooks::default());
    server.submit(request("doa").with_id("doa").with_deadline_ms(0));
    let stats = server.drain();
    let replies = replies.lock();
    assert_eq!(replies.len(), 1);
    match &replies[0].outcome {
        ServeOutcome::Deadline {
            exceeded_at: DeadlineStage::Dequeue,
            budget_ms: 0,
            elapsed_ms,
            ..
        } => {
            assert!(*elapsed_ms >= 5, "the stall burned the budget, elapsed {elapsed_ms}ms");
        }
        other => panic!("expected dequeue-shed, got {other:?}"),
    }
    assert_eq!(stats.deadline_dequeue, 1);
    assert_eq!(stats.replies(), 1);
}

#[test]
fn provably_over_budget_work_is_shed_at_plan_time() {
    let (sink, replies) = collecting_sink();
    let server = Server::start(serve_cfg(1), sink, ServerHooks::default());
    // Exact general-mapping enumeration saturates the cost estimate
    // (u64::MAX/4 units ≫ any budget), so the plan gate must shed it.
    let (apps, pf) = instance();
    let mut spec = ProblemSpec::new(Objective::Period, Strategy::General, CommModel::Overlap);
    spec.hints.exact_fallback = true;
    server.submit(SolveRequest::new("exact", apps, pf, spec).with_id("x").with_deadline_ms(60_000));
    let stats = server.drain();
    let replies = replies.lock();
    assert_eq!(replies.len(), 1);
    match &replies[0].outcome {
        ServeOutcome::Deadline {
            exceeded_at: DeadlineStage::Plan,
            budget_ms: 60_000,
            estimated_ms,
            ..
        } => {
            assert!(*estimated_ms > 60_000, "estimate must dwarf the budget, got {estimated_ms}");
        }
        other => panic!("expected plan-shed, got {other:?}"),
    }
    assert_eq!(stats.deadline_plan, 1);
}

#[test]
fn downgrade_rescues_over_budget_work_when_enabled() {
    let (sink, replies) = collecting_sink();
    let cfg = ServeConfig { deadline_downgrade: true, ..serve_cfg(1) };
    let server = Server::start(cfg, sink, ServerHooks::default());
    let (apps, pf) = instance();
    let mut spec = ProblemSpec::new(Objective::Period, Strategy::General, CommModel::Overlap);
    spec.hints.exact_fallback = true;
    server.submit(SolveRequest::new("exact", apps, pf, spec).with_id("x").with_deadline_ms(60_000));
    let stats = server.drain();
    let replies = replies.lock();
    assert_eq!(replies.len(), 1);
    assert!(replies[0].downgraded, "LPT heuristic fits the budget: {:?}", replies[0].outcome);
    assert!(
        matches!(&replies[0].outcome, ServeOutcome::Done { result: SolveOutcome::Solution(_) }),
        "downgraded solve still answers: {:?}",
        replies[0].outcome
    );
    assert_eq!(stats.downgraded, 1);
}

#[test]
fn poison_digest_is_quarantined_after_k_strikes_and_reset_reopens() {
    let (sink, replies) = collecting_sink();
    let exported: Arc<Mutex<Vec<(FailureKind, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let hook_exported = Arc::clone(&exported);
    let hooks = ServerHooks {
        failure: Some(Arc::new(move |_seq, _req, raw, kind, msg| {
            assert!(raw.is_none(), "a typed submission carries no raw line");
            hook_exported.lock().push((kind, msg.to_string()));
            true
        })),
        check: None,
    };
    let cfg = ServeConfig {
        strikes: 2,
        chaos: Some(ChaosConfig::parse("poison=POISON", 7).unwrap()),
        ..serve_cfg(1)
    };
    let server = Server::start(cfg, sink, hooks);
    // Same structural digest each time (description is not hashed).
    // Serialize submissions so each strike lands before the next
    // admission verdict.
    for i in 0..5 {
        server.submit(request("a POISON pill").with_id(format!("p{i}")));
        wait_for_replies(&replies, i as usize + 1);
    }
    server.reset_quarantine();
    server.submit(request("a POISON pill").with_id("after-reset"));
    let stats = server.drain();
    let replies = replies.lock();
    assert_eq!(replies.len(), 6);
    let failed = replies
        .iter()
        .filter(|r| matches!(&r.outcome, ServeOutcome::Failed { reason } if reason.contains("chaos")))
        .count();
    let quarantined = replies
        .iter()
        .filter(|r| {
            matches!(
                &r.outcome,
                ServeOutcome::Rejected { reason: RejectReason::Quarantined, .. }
            )
        })
        .count();
    assert_eq!(failed, 3, "2 strikes before the breaker opens + 1 after reset");
    assert_eq!(quarantined, 3, "submissions 3..5 are rejected at admission");
    assert_eq!(stats.strikes, 3);
    // First strike exports; the operator reset re-arms capture, so the
    // post-reset strike exports again.
    assert_eq!(stats.bundles_exported, 2);
    let exported = exported.lock();
    assert_eq!(exported.len(), 2);
    assert!(matches!(exported[0].0, FailureKind::EnginePanic));
    assert!(exported[0].1.contains("worker panicked"));
}

#[test]
fn check_mismatch_degrades_to_failed_and_strikes() {
    let (sink, replies) = collecting_sink();
    let hooks = ServerHooks {
        failure: None,
        check: Some(Arc::new(|_req, _out| Err("objective drifted".to_string()))),
    };
    let cfg = ServeConfig { strikes: 1, ..serve_cfg(1) };
    let server = Server::start(cfg, sink, hooks);
    server.submit(request("r").with_id("a"));
    wait_for_replies(&replies, 1);
    server.submit(request("r").with_id("b"));
    let stats = server.drain();
    let replies = replies.lock();
    assert_eq!(replies.len(), 2);
    assert!(replies.iter().any(|r| matches!(
        &r.outcome,
        ServeOutcome::Failed { reason } if reason.contains("check mismatch: objective drifted")
    )));
    assert!(replies.iter().any(|r| matches!(
        &r.outcome,
        ServeOutcome::Rejected { reason: RejectReason::Quarantined, .. }
    )));
    assert_eq!(stats.failed, 1);
    assert!(stats.strikes >= 1);
}

#[test]
fn draining_server_rejects_new_work_but_answers_accepted_work() {
    let (sink, replies) = collecting_sink();
    let cfg = ServeConfig {
        queue_capacity: 64,
        chaos: Some(ChaosConfig::parse("stall=1.0:20", 0).unwrap()),
        ..serve_cfg(2)
    };
    let server = Server::start(cfg, sink, ServerHooks::default());
    for i in 0..10 {
        server.submit(distinct_request(i));
    }
    let stats = server.drain();
    assert_eq!(stats.accepted, 10);
    assert_eq!(stats.done, 10, "drain answers every accepted request");
    assert_eq!(replies.lock().len(), 10);
}

#[test]
fn reply_roundtrips_through_json() {
    let reply = ServeReply {
        seq: 42,
        id: Some("abc".into()),
        tenant: None,
        downgraded: true,
        elapsed_ms: 1.5,
        outcome: ServeOutcome::Deadline {
            exceeded_at: DeadlineStage::Plan,
            budget_ms: 10,
            elapsed_ms: 2,
            estimated_ms: 500,
        },
    };
    let json = reply.to_json_compact().unwrap();
    assert_eq!(ServeReply::from_json(&json).unwrap(), reply);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The drain contract under fire: for every thread count and chaos
    /// seed, every submitted request — typed, or a raw line that is
    /// valid, garbage or not UTF-8 — receives exactly one reply: a solver
    /// verdict, a typed rejection, or a typed failure. Every request that
    /// passed the worker-side gates is answered by a worker.
    #[test]
    fn every_request_is_answered_exactly_once_under_panics(
        threads_idx in 0usize..4,
        seed in 0u64..10_000,
        n in 16u32..48,
        mix in 0u64..u64::MAX,
    ) {
        let threads = [1usize, 2, 4, 8][threads_idx];
        let (sink, replies) = collecting_sink();
        let cfg = ServeConfig {
            queue_capacity: 8, // small: force some QueueFull verdicts too
            strikes: 3,
            chaos: Some(ChaosConfig::parse("panic=0.25", seed).unwrap()),
            ..serve_cfg(threads)
        };
        let server = Server::start(cfg, sink, ServerHooks::default());
        // Two bits of `mix` per submission pick its kind: typed, a valid
        // line, a garbage line or an undecodable one.
        let kinds: Vec<u64> = (0..n).map(|i| mix.rotate_right(2 * i) & 3).collect();
        let mut want = std::collections::HashMap::new();
        for (i, &kind) in kinds.iter().enumerate() {
            let req = distinct_request(i as u32 % 24);
            let id = match kind {
                0 => {
                    server.submit(req.clone());
                    req.id
                }
                1 => {
                    server.submit_line(req.to_json_compact().unwrap());
                    req.id
                }
                2 => {
                    server.submit_line(format!("{{\"garbage\": {i}"));
                    None
                }
                _ => {
                    server.submit_line(b"{\"id\":\"\xc3\x28\"}");
                    None
                }
            };
            *want.entry(id).or_insert(0u32) += 1;
        }
        let stats = server.drain();
        let replies = replies.lock();

        // Exactly one reply per submission…
        prop_assert_eq!(replies.len() as u32, n);
        prop_assert_eq!(stats.replies() as u32, n);
        // …and per-id reply counts exactly match per-id submission
        // counts (no id dropped, none answered twice; the id-less ones
        // are the garbage and undecodable lines).
        let mut got = std::collections::HashMap::new();
        for r in replies.iter() {
            *got.entry(r.id.clone()).or_insert(0u32) += 1;
        }
        prop_assert_eq!(got, want);
        // Garbage is rejected as invalid whichever thread answers it.
        let garbage = kinds.iter().filter(|&&k| k >= 2).count() as u64;
        prop_assert_eq!(stats.rejected_invalid, garbage);
        // Every accepted request got a worker verdict (Done / Deadline /
        // Failed — never silently dropped).
        let worker_replies = stats.done + stats.deadline_dequeue + stats.deadline_plan + stats.failed;
        prop_assert_eq!(worker_replies, stats.accepted);
        // Chaos panics surfaced as typed failures, not lost replies.
        prop_assert_eq!(stats.failed, stats.chaos_panics);
    }
}

#[test]
fn undecodable_lines_get_the_same_typed_invalid_reply() {
    let (sink, replies) = collecting_sink();
    let server = Server::start(serve_cfg(1), sink, ServerHooks::default());
    let good = request("ok").with_id("good").to_json_compact().unwrap();
    server.submit_line(b"\xff\xfe bad");
    server.submit_line(good.as_bytes());
    server.submit_line(b"{\"id\":\"x\xc3\"}");
    let stats = server.drain();
    let mut replies = replies.lock().clone();
    replies.sort_by_key(|r| r.seq);
    let details: Vec<_> = replies
        .iter()
        .map(|r| match &r.outcome {
            ServeOutcome::Rejected { reason: RejectReason::Invalid, detail } => detail.as_str(),
            ServeOutcome::Done { .. } => "done",
            other => panic!("unexpected outcome {other:?}"),
        })
        .collect();
    assert_eq!(
        details,
        [
            "unparseable request: invalid UTF-8 at byte 0",
            "done",
            "unparseable request: invalid UTF-8 at byte 8",
        ]
    );
    assert_eq!(stats.rejected_invalid, 2);
}
