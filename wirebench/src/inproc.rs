//! The traced run: the same corpus replayed in-process, timing the public
//! entry point of each module from outside the library.
//!
//! * **Layer pass** — every line through the serve request path on one
//!   thread, in corpus order: `SolveRequest::from_json`, then
//!   `hash_instance` and `hash_spec`, `router::plan`, `Engine::solve_with`
//!   (cache on), `trust::check_outcome` (a no-op stage off `checked`) and
//!   `ServeReply::to_json_compact`. Run once untraced and once traced
//!   (the layer self times).
//! * **Route pass** — `router::route_with` with one reused scratch, cache
//!   bypassed.
//! * **Engine batch** — `Engine::solve_batch` over pre-parsed items at 1
//!   and 2 threads, then `SolveOutcome::to_json_compact` per outcome.
//! * **Server drains** — an in-process `Server` in the workload's serve
//!   configuration, fed through `ServerHandle::submit_line` with a sink
//!   that serializes: a replay drain (drain rate, submit time, admission
//!   counts) and an open-loop drain at the workload rate (reply lag,
//!   queue wait).

use crate::corpus::{Corpus, CHECK_DATASETS};
use crate::oracle::serve_outcome;
use crate::stats::{mean, percentile};
use crate::trace::Trace;
use cpo_core::router::{plan, route_with, RouterScratch};
use cpo_engine::{BatchItem, Engine, EngineConfig};
use cpo_experiments::trust::check_outcome;
use cpo_model::hash::{hash_instance, hash_spec};
use cpo_model::prelude::*;
use cpo_serve::{
    CheckHook, RejectReason, ReplySink, ServeConfig, ServeOutcome, ServeReply, Server, ServerHooks,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stages of the layer pass, in request order.
pub const STAGES: [&str; 6] = [
    "cpo_model.parse",
    "cpo_model.digest",
    "cpo_core.plan",
    "cpo_engine.solve",
    "cpo_simulator.check",
    "cpo_model.serialize",
];

/// Stages a serve worker runs for a request (its busy time).
const WORKER_STAGES: [&str; 3] = [
    "cpo_engine.solve",
    "cpo_simulator.check",
    "cpo_model.serialize",
];

/// Everything the traced run measured.
pub struct LayerFigures {
    /// Mean self time per corpus line of each of [`STAGES`], µs.
    pub stage_us: Vec<(&'static str, f64)>,
    /// Mean traced request span (the whole layer-pass request path), µs.
    pub request_us: f64,
    /// Traced ÷ untraced layer pass wall time, minus one.
    pub trace_overhead_share: f64,
    pub reply_bytes: f64,
    pub route_us: f64,
    pub cache_hit_ratio: f64,
    pub cache_entries: u64,
    pub cache_evictions: u64,
    pub batch_t1_rps: f64,
    pub batch_t2_rps: f64,
    /// `SolveOutcome::to_json_compact` per batch line, µs.
    pub batch_serialize_us: f64,
    pub inproc_rps: f64,
    pub submit_us: f64,
    pub reply_lag_p50_us: f64,
    pub reply_lag_p99_us: f64,
    pub queue_wait_us: f64,
    pub accepted: u64,
    pub rejected_queue_full: u64,
}

impl LayerFigures {
    pub fn stage(&self, name: &str) -> f64 {
        self.stage_us
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// In-process per-request time: the traced request path plus the
    /// open-loop queue wait.
    pub fn per_request_us(&self) -> f64 {
        self.request_us + self.queue_wait_us
    }

    /// The share of the per-request time no traced layer accounts for.
    pub fn unaccounted_share(&self) -> f64 {
        let traced: f64 = self.stage_us.iter().map(|(_, v)| v).sum::<f64>() + self.queue_wait_us;
        1.0 - traced / self.per_request_us()
    }

    /// The layer table: rows plus the unaccounted remainder add up to the
    /// in-process per-request time.
    pub fn table(&self) -> String {
        let total = self.per_request_us();
        let mut out = format!("{:<24} {:>12} {:>8}\n", "layer", "us/request", "share");
        let mut row = |name: &str, us: f64| {
            out.push_str(&format!(
                "{name:<24} {us:>12.3} {:>7.1}%\n",
                100.0 * us / total
            ));
        };
        for (name, us) in &self.stage_us {
            row(name, *us);
        }
        row("cpo_serve.queue_wait", self.queue_wait_us);
        row("(unaccounted)", total * self.unaccounted_share());
        row("= in-process request", total);
        out
    }
}

fn us(ns: u64, count: usize) -> f64 {
    ns as f64 / 1e3 / count.max(1) as f64
}

fn engine_config() -> EngineConfig {
    // The serve binary's engine: workers own the parallelism.
    EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    }
}

/// Time `f` as a child span when tracing.
fn stage<T>(
    trace: &mut Option<&mut Trace>,
    name: &'static str,
    request: usize,
    parent: Option<usize>,
    f: impl FnOnce() -> T,
) -> T {
    match trace {
        Some(t) => {
            let span = t.start("layers", name, request, parent);
            let out = f();
            t.end(span);
            out
        }
        None => f(),
    }
}

/// One pass of the serve request path over `lines`; returns the wall
/// time, the reply bytes and the engine it used.
fn layer_pass(
    lines: &[String],
    check: bool,
    mut trace: Option<&mut Trace>,
) -> (Duration, usize, Engine) {
    let engine = Engine::new(engine_config());
    let mut scratch = RouterScratch::new();
    let mut reply_bytes = 0usize;
    let start = Instant::now();
    for (i, line) in lines.iter().enumerate() {
        let root = trace
            .as_mut()
            .map(|t| t.start("layers", "request", i, None));
        let parsed = stage(&mut trace, STAGES[0], i, root, || {
            SolveRequest::from_json(line)
        });
        let reply = match parsed {
            Err(e) => ServeReply {
                seq: i as u64,
                id: None,
                tenant: None,
                downgraded: false,
                elapsed_ms: 0.0,
                outcome: ServeOutcome::Rejected {
                    reason: RejectReason::Invalid,
                    detail: format!("parse error: {e}"),
                },
            },
            Ok(req) => {
                let key = stage(&mut trace, STAGES[1], i, root, || {
                    (
                        hash_instance(&req.apps, &req.platform),
                        hash_spec(&req.problem),
                    )
                });
                black_box(key);
                let planned = stage(&mut trace, STAGES[2], i, root, || {
                    plan(&req.apps, &req.platform, &req.problem)
                });
                black_box(&planned);
                let out = stage(&mut trace, STAGES[3], i, root, || {
                    engine.solve_with(&req.apps, &req.platform, &req.problem, &mut scratch)
                });
                let outcome = stage(&mut trace, STAGES[4], i, root, || {
                    serve_outcome(&req, out, check)
                });
                ServeReply {
                    seq: i as u64,
                    id: req.id.clone(),
                    tenant: req.tenant.clone(),
                    downgraded: false,
                    elapsed_ms: 0.0,
                    outcome,
                }
            }
        };
        let text = stage(&mut trace, STAGES[5], i, root, || reply.to_json_compact());
        reply_bytes += text.map_or(0, |t| t.len());
        if let (Some(t), Some(r)) = (trace.as_mut(), root) {
            t.end(r);
        }
    }
    (start.elapsed(), reply_bytes, engine)
}

/// What an in-process server drain observed.
struct Drain {
    rps: f64,
    /// Per fed line: `submit_line` start and end, and the sink call
    /// (nanoseconds since the trace epoch).
    submit: Vec<(u64, u64)>,
    sink: Vec<u64>,
    accepted: u64,
    rejected_queue_full: u64,
}

/// Feed the first `count` corpus lines into an in-process server, all at
/// once (`rate = None`) or on the open-loop schedule.
fn drain(
    corpus: &Corpus,
    count: usize,
    rate: Option<f64>,
    trace: &mut Trace,
    pass: &'static str,
) -> Result<Drain, String> {
    let epoch = trace.epoch();
    let sink_ns: Arc<Vec<AtomicU64>> = Arc::new((0..count).map(|_| AtomicU64::new(0)).collect());
    let replies = Arc::new(AtomicUsize::new(0));
    let sink: ReplySink = {
        let (sink_ns, replies) = (Arc::clone(&sink_ns), Arc::clone(&replies));
        Arc::new(move |reply: &ServeReply| {
            black_box(reply.to_json_compact().map(|t| t.len()).unwrap_or(0));
            if let Some(slot) = sink_ns.get(reply.seq as usize) {
                slot.store(epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
            replies.fetch_add(1, Ordering::Relaxed);
        })
    };
    let check: Option<CheckHook> = corpus.workload.check().then(|| {
        let hook: CheckHook = Arc::new(|req, out| check_outcome(req, out, CHECK_DATASETS));
        hook
    });
    let cfg = ServeConfig {
        threads: 2,
        queue_capacity: count + 16,
        engine: engine_config(),
        ..ServeConfig::default()
    };
    let server = Server::start(
        cfg,
        sink,
        ServerHooks {
            failure: None,
            check,
        },
    );
    let handle = server.handle();
    let mut submit = Vec::with_capacity(count);
    let start = Instant::now();
    for (i, line) in corpus.lines[..count].iter().enumerate() {
        if let Some(rate) = rate {
            let when = start + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if now < when {
                std::thread::sleep(when - now);
            }
        }
        let s = trace.now();
        handle.submit_line(line);
        let e = trace.now();
        trace.record(pass, "cpo_serve.submit", i, None, s, e);
        submit.push((s, e));
    }
    // Drain answers every accepted request and joins the workers, whose
    // sink stores are then visible here.
    let snap = server.drain();
    let sink: Vec<u64> = sink_ns.iter().map(|a| a.load(Ordering::Relaxed)).collect();
    let answered = replies.load(Ordering::Relaxed);
    if answered != count {
        return Err(format!(
            "in-process {pass} drain: {answered} replies for {count} lines"
        ));
    }
    for (i, (&(_, e), &r)) in submit.iter().zip(&sink).enumerate() {
        if corpus.template_of[i].is_some() {
            trace.record(pass, "cpo_serve.reply", i, None, e, r);
        }
    }
    let first = submit.first().map_or(0, |s| s.0);
    let last = sink.iter().copied().max().unwrap_or(first);
    Ok(Drain {
        rps: count as f64 / ((last - first) as f64 / 1e9),
        submit,
        sink,
        accepted: snap.accepted,
        rejected_queue_full: snap.rejected_queue_full,
    })
}

/// Seconds of in-process open-loop drain at the workload rate.
const OPEN_LOOP_SECONDS: f64 = 1.0;

/// Run every pass over the first `n` corpus lines; spans land in `trace`.
pub fn traced_run(corpus: &Corpus, n: usize, trace: &mut Trace) -> Result<LayerFigures, String> {
    let n = n.min(corpus.lines.len());
    let lines = &corpus.lines[..n];
    let check = corpus.workload.check();
    // Warm the allocator and caches on a tenth of the lines first, so the
    // untraced and traced passes start from the same state.
    layer_pass(&lines[..n / 10], check, None);
    let (untraced, _, _) = layer_pass(lines, check, None);
    let (traced, reply_bytes, engine) = layer_pass(lines, check, Some(trace));
    let by_name = trace.self_time_by_name("layers");
    let stage_us: Vec<(&'static str, f64)> = STAGES
        .iter()
        .map(|&s| (s, us(by_name.get(s).copied().unwrap_or(0), n)))
        .collect();
    let request_ns: u64 = trace
        .spans
        .iter()
        .filter(|s| s.pass == "layers" && s.name == "request")
        .map(|s| s.duration_ns())
        .sum();
    let cache = engine.cache_stats();
    // Worker busy time per line, for the queue-wait estimate.
    let mut busy_ns = vec![0u64; n];
    for (s, own) in trace.spans.iter().zip(trace.self_times()) {
        if s.pass == "layers" && WORKER_STAGES.contains(&s.name) {
            busy_ns[s.request] += own;
        }
    }

    let items: Vec<BatchItem<'_>> = corpus.template_of[..n]
        .iter()
        .flatten()
        .map(|&t| {
            let r = &corpus.templates[t];
            BatchItem::new(&r.apps, &r.platform, &r.problem)
        })
        .collect();

    let mut scratch = RouterScratch::new();
    let start = Instant::now();
    for item in &items {
        black_box(route_with(
            item.apps,
            item.platform,
            item.spec,
            &mut scratch,
        ));
    }
    let route_us = start.elapsed().as_secs_f64() * 1e6 / items.len().max(1) as f64;

    let batch_rps = |threads: usize| {
        let engine = Engine::new(EngineConfig::with_threads(threads));
        let start = Instant::now();
        let outcomes = engine.solve_batch(&items);
        (items.len() as f64 / start.elapsed().as_secs_f64(), outcomes)
    };
    let (batch_t1_rps, _) = batch_rps(1);
    let (batch_t2_rps, outcomes) = batch_rps(2);
    let start = Instant::now();
    for out in &outcomes {
        black_box(out.to_json_compact().map(|t| t.len()).unwrap_or(0));
    }
    let batch_serialize_us = start.elapsed().as_secs_f64() * 1e6 / n as f64;

    let replay = drain(corpus, n, None, trace, "replay")?;
    let submit_us = mean(
        &replay
            .submit
            .iter()
            .map(|&(s, e)| (e - s) as f64 / 1e3)
            .collect::<Vec<_>>(),
    );

    let rate = corpus.workload.open_loop_rate();
    let count = n.min((rate * OPEN_LOOP_SECONDS).ceil() as usize);
    let open = drain(corpus, count, Some(rate), trace, "open_loop")?;
    let mut lags = Vec::with_capacity(count);
    let mut waits = Vec::with_capacity(count);
    for (i, busy) in busy_ns.iter().enumerate().take(count) {
        if corpus.template_of[i].is_none() {
            continue;
        }
        let lag = open.sink[i].saturating_sub(open.submit[i].1);
        lags.push(lag as f64 / 1e3);
        waits.push(lag.saturating_sub(*busy) as f64 / 1e3);
    }

    Ok(LayerFigures {
        stage_us,
        request_us: us(request_ns, n),
        trace_overhead_share: traced.as_secs_f64() / untraced.as_secs_f64() - 1.0,
        reply_bytes: reply_bytes as f64 / n as f64,
        route_us,
        cache_hit_ratio: cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        cache_entries: cache.entries,
        cache_evictions: cache.evictions,
        batch_t1_rps,
        batch_t2_rps,
        batch_serialize_us,
        inproc_rps: replay.rps,
        submit_us,
        reply_lag_p50_us: percentile(&lags, 0.5),
        reply_lag_p99_us: percentile(&lags, 0.99),
        queue_wait_us: mean(&waits),
        accepted: replay.accepted,
        rejected_queue_full: replay.rejected_queue_full,
    })
}
