//! `cpo_serve`: the long-lived solve service over the batch engine.
//!
//! A [`Server`] owns a worker pool, a bounded ingress queue, and the
//! robustness layers the ROADMAP's serving story needs — each one a
//! *typed* degraded mode, never a silent drop:
//!
//! * **Framing on the feeder, gates on the workers.** A feeding thread
//!   (stdin, a socket connection, `batch`) only frames: `submit_line`
//!   assigns the seq and the arrival time and queues the raw bytes. A
//!   worker then runs the gates in order — UTF-8 decode and parse, the
//!   structural digest, quarantine, the tenant bucket charged at the
//!   arrival time — before it solves. The feeder parses only when it must
//!   answer a line itself: on a full queue or while draining; those
//!   replies still echo the request's `id` and `tenant`. Stats'
//!   `accepted` counts the requests that passed the gates.
//! * **Admission control** ([`queue`], [`tenant`]): a gate that refuses
//!   a request answers it with a `Rejected{..}` reply and
//!   `elapsed_ms: 0.0`. A full queue is answered at once on
//!   [`Server::submit_line`] (socket clients back off on
//!   `queue_full`), while [`Server::submit_line_wait`] blocks until a
//!   worker frees a slot (stdin and `batch` shed nothing).
//! * **Deadlines**: `deadline_ms` budgets count from arrival and are
//!   enforced at dequeue and again at plan time via
//!   [`Plan::cost_estimate`] — provably over-budget work is shed
//!   *before* it burns a worker, optionally downgrading to a heuristic
//!   plan that fits the budget.
//! * **Quarantine** ([`quarantine`]): engine panics (already degraded to
//!   typed outcomes by the engine backstop), worker panics and `--check`
//!   mismatches charge strikes against the request's structural digest;
//!   repeat offenders are rejected at admission until operator reset,
//!   and the first strike per digest exports a repro bundle through the
//!   [`FailureHook`]. The admission digest is also the cache key of the
//!   solve ([`Engine::solve_keyed`]), so each request is hashed once.
//! * **Graceful drain**: [`Server::drain`] closes the queue, lets the
//!   workers finish every queued request, and joins them. The
//!   invariant — proven by the exactly-once property test — is one reply
//!   per submitted request, always.
//! * **Chaos** ([`chaos`]): deterministic fault injection (worker
//!   panics, stalls, poison markers) so the drill in CI exercises the
//!   degraded modes on every run.
//!
//! The crate is transport-free: callers push [`SolveRequest`]s (or raw
//! JSONL lines) in and receive [`ServeReply`]s through a [`ReplySink`]
//! closure. stdin/Unix-socket framing, the ordered `batch` drain, reply
//! buffering, stats printing and bundle export live in the
//! `cpo-experiments` binary, wired in through hooks so this crate never
//! depends on the trust subsystem above it.

pub mod chaos;
pub mod quarantine;
pub mod queue;
pub mod stats;
pub mod tenant;

use chaos::{ChaosAction, ChaosConfig};
use cpo_core::router::{plan, RouterScratch};
use cpo_engine::{CacheKey, Engine, EngineConfig};
use cpo_model::bundle::FailureKind;
use cpo_model::hash::{hash_instance, hash_spec};
use cpo_model::io::serde_json_error;
use cpo_model::prelude::*;
use quarantine::Quarantine;
use queue::BoundedQueue;
use serde::{Deserialize, Serialize};
use stats::{CacheSnapshot, ServeStats};
pub use stats::StatsSnapshot;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use tenant::TenantGovernor;

/// Default ingress queue capacity.
pub const DEFAULT_QUEUE_CAPACITY: usize = 256;
/// Default quarantine strike threshold.
pub const DEFAULT_STRIKES: u32 = 3;
/// Default deadline calibration: abstract [`Plan::cost_estimate`] units
/// per millisecond (the estimates are "roughly nanoseconds", so 1e6
/// units/ms, derated 2× for safety margin).
pub const DEFAULT_COST_UNITS_PER_MS: u64 = 2_000_000;

/// Prefix of the `Failed` reason a `--check` mismatch produces.
pub const CHECK_MISMATCH: &str = "check mismatch: ";

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (`0` = one per available core).
    pub threads: usize,
    /// Ingress queue capacity: beyond it [`Server::submit_line`] answers
    /// `queue_full` and [`Server::submit_line_wait`] waits.
    pub queue_capacity: usize,
    /// Per-tenant token refill rate, requests/second (`0` = unlimited).
    pub rate_per_sec: f64,
    /// Per-tenant burst capacity, tokens.
    pub burst: f64,
    /// Strikes before a digest is quarantined.
    pub strikes: u32,
    /// When a deadline cannot be met by the planned solver, retry the
    /// plan with `heuristic_fallback` before shedding.
    pub deadline_downgrade: bool,
    /// Deadline calibration, [`Plan::cost_estimate`] units per
    /// millisecond.
    pub cost_units_per_ms: u64,
    /// Engine configuration (the memo cache lives here).
    pub engine: EngineConfig,
    /// Fault injection (`None` = no chaos).
    pub chaos: Option<ChaosConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 0,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            rate_per_sec: 0.0,
            burst: 64.0,
            strikes: DEFAULT_STRIKES,
            deadline_downgrade: false,
            cost_units_per_ms: DEFAULT_COST_UNITS_PER_MS,
            engine: EngineConfig::default(),
            chaos: None,
        }
    }
}

/// Why admission rejected a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The bounded ingress queue is full — back off and retry.
    QueueFull,
    /// The tenant's token bucket is empty.
    RateLimited,
    /// The structural digest is quarantined (too many strikes).
    Quarantined,
    /// The server is draining.
    ShuttingDown,
    /// The request line did not parse.
    Invalid,
}

/// Where a deadline was found unmeetable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeadlineStage {
    /// The budget had already elapsed when a worker dequeued the
    /// request.
    Dequeue,
    /// The planned solver's cost estimate provably overruns the budget.
    Plan,
}

/// The typed verdict carried by every reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServeOutcome {
    /// The solver answered (solution, front, infeasible or unsupported —
    /// all typed solver verdicts, including the engine's panic
    /// backstop).
    Done {
        /// The solver's verdict.
        result: SolveOutcome,
    },
    /// Admission refused the request.
    Rejected {
        /// Why.
        reason: RejectReason,
        /// Human-readable detail (tenant, queue depth, `unparseable
        /// request: …`).
        detail: String,
    },
    /// The deadline budget was provably unmeetable; the request was
    /// shed without burning a worker on it.
    Deadline {
        /// Where the overrun was detected.
        exceeded_at: DeadlineStage,
        /// The request's budget, milliseconds from arrival.
        budget_ms: u64,
        /// Time already spent when the verdict was reached.
        elapsed_ms: u64,
        /// Estimated solve cost in milliseconds (0 at dequeue stage).
        estimated_ms: u64,
    },
    /// The worker failed while holding the request (injected panic,
    /// check mismatch). The request is answered — exactly once — all
    /// the same.
    Failed {
        /// What happened.
        reason: String,
    },
}

/// One reply line: every submitted request produces exactly one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReply {
    /// Admission sequence number (server-assigned, monotonic).
    pub seq: u64,
    /// The request's correlation id, echoed verbatim.
    #[serde(default)]
    pub id: Option<String>,
    /// The request's tenant, echoed verbatim.
    #[serde(default)]
    pub tenant: Option<String>,
    /// True when the solve ran under a deadline-driven heuristic
    /// downgrade (feasible but not certified optimal).
    pub downgraded: bool,
    /// Arrival→reply latency, milliseconds (0 for admission
    /// rejections).
    pub elapsed_ms: f64,
    /// The verdict.
    pub outcome: ServeOutcome,
}

impl ServeReply {
    /// Compact single-line JSON (the serve wire format).
    pub fn to_json_compact(&self) -> Result<String, serde_json_error::Error> {
        serde_json_error::to_string(self)
    }

    /// Parse a reply line.
    pub fn from_json(json: &str) -> Result<Self, serde_json_error::Error> {
        serde_json_error::from_str(json)
    }
}

/// Where replies go. Called exactly once per submitted request, from the
/// feeding thread (a full queue, a draining server) or a worker
/// (everything else) — the sink must be thread-safe and is expected to be
/// cheap (serialize + write).
pub type ReplySink = Arc<dyn Fn(&ServeReply) + Send + Sync>;

/// Failure capture: called on the *first* strike of a digest with the
/// offending request's admission sequence number, the request, the raw
/// line it was parsed from (`None` when it was submitted typed), the
/// failure kind and a message. Returns `true` when a repro bundle was
/// exported (counted in stats). The binary wires this to the trust
/// subsystem's bundle export.
pub type FailureHook =
    Arc<dyn Fn(u64, &SolveRequest, Option<&str>, FailureKind, &str) -> bool + Send + Sync>;

/// Result cross-validation (`--check`): `Err(message)` marks the outcome
/// untrusted — the reply degrades to `Failed` and the digest is struck.
pub type CheckHook = Arc<dyn Fn(&SolveRequest, &SolveOutcome) -> Result<(), String> + Send + Sync>;

/// Optional capture hooks (both default to "off").
#[derive(Default, Clone)]
pub struct ServerHooks {
    /// See [`FailureHook`].
    pub failure: Option<FailureHook>,
    /// See [`CheckHook`].
    pub check: Option<CheckHook>,
}

/// What a feeder queued: a raw line, or a request submitted typed.
enum Work {
    Line(Vec<u8>),
    Typed(Box<SolveRequest>),
}

/// One queued unit of work, as the feeder framed it.
struct Entry {
    seq: u64,
    work: Work,
    /// Arrival on the server clock: deadlines, `elapsed_ms` and the
    /// tenant bucket all count from here.
    arrived_nanos: u64,
}

/// An entry that passed the worker-side gates.
struct Admitted {
    seq: u64,
    req: SolveRequest,
    /// The line `req` was parsed from, kept for bundle export: a poisoned
    /// request parses but cannot re-serialize.
    raw: Option<String>,
    key: CacheKey,
    arrived_nanos: u64,
}

struct Inner {
    cfg: ServeConfig,
    engine: Engine,
    queue: BoundedQueue<Entry>,
    governor: TenantGovernor,
    quarantine: Quarantine,
    stats: ServeStats,
    sink: ReplySink,
    hooks: ServerHooks,
    draining: AtomicBool,
    seq: AtomicU64,
    clock: Instant,
}

/// The long-lived solve service. See the crate docs for the layer map.
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Start the worker pool. Replies flow to `sink` from this moment
    /// on; the server runs until [`Server::drain`].
    pub fn start(cfg: ServeConfig, sink: ReplySink, hooks: ServerHooks) -> Server {
        let threads = if cfg.threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            cfg.threads
        };
        let inner = Arc::new(Inner {
            engine: Engine::new(cfg.engine.clone()),
            queue: BoundedQueue::new(cfg.queue_capacity),
            governor: TenantGovernor::new(cfg.rate_per_sec, cfg.burst),
            quarantine: Quarantine::new(cfg.strikes),
            stats: ServeStats::new(),
            sink,
            hooks,
            draining: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            clock: Instant::now(),
            cfg,
        });
        let workers = (0..threads)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Server { inner, workers }
    }

    /// Submit one raw JSONL line. The caller only frames it: the line is
    /// queued as bytes and a worker decodes, parses and admits it, so a
    /// line that is not UTF-8 or does not parse gets a typed
    /// `Rejected{Invalid}` reply instead of tearing the stream down. A
    /// full queue is answered `Rejected{QueueFull}` at once. Returns the
    /// sequence number of the line's one reply.
    pub fn submit_line(&self, line: impl AsRef<[u8]>) -> u64 {
        self.inner.enqueue(Work::Line(line.as_ref().to_vec()), false)
    }

    /// [`Server::submit_line`] that waits while the queue is full instead
    /// of shedding: the ingress for pipes and files, which are read no
    /// faster than the workers answer them.
    pub fn submit_line_wait(&self, line: impl AsRef<[u8]>) -> u64 {
        self.inner.enqueue(Work::Line(line.as_ref().to_vec()), true)
    }

    /// Submit one request. It is queued as is and admitted by a worker;
    /// a full queue or a draining server is answered before this returns.
    /// Either way, exactly one reply, carrying the returned sequence
    /// number.
    pub fn submit(&self, req: SolveRequest) -> u64 {
        self.inner.enqueue(Work::Typed(Box::new(req)), false)
    }

    /// A cloneable ingress handle for reader threads (stdin, sockets):
    /// submit and observe without owning the drain.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { inner: Arc::clone(&self.inner) }
    }

    /// Graceful drain: stop admitting, let the workers answer every
    /// accepted request, join them. Consumes the server; the final
    /// [`StatsSnapshot`] is returned for the shutdown stats line.
    pub fn drain(self) -> StatsSnapshot {
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.queue.close();
        for w in self.workers {
            // A worker that somehow panicked outside the per-request
            // guard is a bug, but one that must not turn drain into an
            // abort — the remaining workers still drain the queue.
            let _ = w.join();
        }
        self.inner.snapshot()
    }

    /// Current stats snapshot (periodic stats line).
    pub fn snapshot(&self) -> StatsSnapshot {
        self.inner.snapshot()
    }

    /// Operator reset of the quarantine list.
    pub fn reset_quarantine(&self) {
        self.inner.quarantine.reset();
    }

    /// Queued-but-unanswered requests right now.
    pub fn backlog(&self) -> usize {
        self.inner.queue.len()
    }
}

/// See [`Server::handle`].
#[derive(Clone)]
pub struct ServerHandle {
    inner: Arc<Inner>,
}

impl ServerHandle {
    /// See [`Server::submit_line`].
    pub fn submit_line(&self, line: impl AsRef<[u8]>) -> u64 {
        self.inner.enqueue(Work::Line(line.as_ref().to_vec()), false)
    }

    /// See [`Server::submit_line_wait`].
    pub fn submit_line_wait(&self, line: impl AsRef<[u8]>) -> u64 {
        self.inner.enqueue(Work::Line(line.as_ref().to_vec()), true)
    }

    /// See [`Server::submit`].
    pub fn submit(&self, req: SolveRequest) -> u64 {
        self.inner.enqueue(Work::Typed(Box::new(req)), false)
    }

    /// See [`Server::snapshot`].
    pub fn snapshot(&self) -> StatsSnapshot {
        self.inner.snapshot()
    }

    /// See [`Server::reset_quarantine`].
    pub fn reset_quarantine(&self) {
        self.inner.quarantine.reset();
    }

    /// See [`Server::backlog`].
    pub fn backlog(&self) -> usize {
        self.inner.queue.len()
    }
}

impl Inner {
    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// The feeder's whole share of a request: a seq, an arrival time and
    /// a queue slot. It answers only what it cannot queue — a full queue
    /// (`wait == false`) or a draining server.
    fn enqueue(&self, work: Work, wait: bool) -> u64 {
        let seq = self.next_seq();
        let entry = Entry { seq, work, arrived_nanos: self.now_nanos() };
        let pushed = if wait { self.queue.push_wait(entry) } else { self.queue.push(entry) };
        let Err(entry) = pushed else {
            return seq;
        };
        // A closed queue means a drain, which sets the flag before it
        // closes the queue.
        let (reason, detail) = if self.draining.load(Ordering::SeqCst) {
            (RejectReason::ShuttingDown, "server is draining".to_string())
        } else {
            (RejectReason::QueueFull, format!("queue at capacity {}", self.cfg.queue_capacity))
        };
        let reply = match entry.work {
            Work::Typed(req) => self.rejection(seq, Some(*req), reason, detail),
            Work::Line(bytes) => match parse_line(bytes) {
                Ok((req, _)) => self.rejection(seq, Some(req), reason, detail),
                Err(invalid) => self.rejection(seq, None, RejectReason::Invalid, invalid),
            },
        };
        self.emit(reply);
        seq
    }

    /// The gates a worker runs on a queued entry, in order: decode and
    /// parse, digest, quarantine, then the tenant bucket charged at the
    /// arrival time. `Err` is the entry's rejection reply.
    fn admit(&self, entry: Entry) -> Result<Admitted, ServeReply> {
        let Entry { seq, work, arrived_nanos } = entry;
        let (req, raw) = match work {
            Work::Typed(req) => (*req, None),
            Work::Line(bytes) => match parse_line(bytes) {
                Ok((req, text)) => (req, Some(text)),
                Err(invalid) => {
                    return Err(self.rejection(seq, None, RejectReason::Invalid, invalid))
                }
            },
        };
        let key = (hash_instance(&req.apps, &req.platform), hash_spec(&req.problem));
        if self.quarantine.is_quarantined(&key) {
            let detail = format!("digest struck {} times", self.quarantine.threshold());
            return Err(self.rejection(seq, Some(req), RejectReason::Quarantined, detail));
        }
        let tenant = req.tenant.as_deref().unwrap_or("");
        if !self.governor.admit(tenant, arrived_nanos) {
            let detail = format!("tenant `{tenant}` is out of tokens");
            return Err(self.rejection(seq, Some(req), RejectReason::RateLimited, detail));
        }
        self.stats.accepted.fetch_add(1, Ordering::Relaxed);
        Ok(Admitted { seq, req, raw, key, arrived_nanos })
    }

    /// A rejection reply, counted under its reason; it echoes the
    /// request's id and tenant when the request parsed.
    fn rejection(
        &self,
        seq: u64,
        req: Option<SolveRequest>,
        reason: RejectReason,
        detail: String,
    ) -> ServeReply {
        let counter = match reason {
            RejectReason::QueueFull => &self.stats.rejected_queue_full,
            RejectReason::RateLimited => &self.stats.rejected_rate_limited,
            RejectReason::Quarantined => &self.stats.rejected_quarantined,
            RejectReason::ShuttingDown => &self.stats.rejected_shutting_down,
            RejectReason::Invalid => &self.stats.rejected_invalid,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let (id, tenant) = req.map_or((None, None), |r| (r.id, r.tenant));
        ServeReply {
            seq,
            id,
            tenant,
            downgraded: false,
            elapsed_ms: 0.0,
            outcome: ServeOutcome::Rejected { reason, detail },
        }
    }

    fn now_nanos(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    fn emit(&self, reply: ServeReply) {
        (self.sink)(&reply);
    }

    fn snapshot(&self) -> StatsSnapshot {
        let cs = self.engine.cache_stats();
        self.stats.snapshot(
            self.clock.elapsed().as_millis() as u64,
            CacheSnapshot {
                hits: cs.hits,
                misses: cs.misses,
                evictions: cs.evictions,
                entries: cs.entries,
            },
            self.quarantine.quarantined() as u64,
        )
    }

    /// Strike the digest; on the first strike, hand the request to the
    /// failure hook for bundle export.
    fn register_failure(&self, entry: &Admitted, kind: FailureKind, message: &str) {
        self.stats.strikes.fetch_add(1, Ordering::Relaxed);
        let strikes = self.quarantine.strike(entry.key);
        if strikes == 1 {
            if let Some(hook) = &self.hooks.failure {
                if hook(entry.seq, &entry.req, entry.raw.as_deref(), kind, message) {
                    self.stats.bundles_exported.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// The decoded text of a raw line and the request parsed from it, or the
/// `Rejected{Invalid}` detail.
fn parse_line(bytes: Vec<u8>) -> Result<(SolveRequest, String), String> {
    serde_json_error::from_utf8_owned(bytes)
        .and_then(|text| Ok((SolveRequest::from_json(&text)?, text)))
        .map_err(|e| format!("unparseable request: {e}"))
}

fn worker_loop(inner: &Inner) {
    let mut scratch = RouterScratch::new();
    while let Some(entry) = inner.queue.pop() {
        let entry = match inner.admit(entry) {
            Ok(entry) => entry,
            Err(rejection) => {
                inner.emit(rejection);
                continue;
            }
        };
        // Everything needed for the panic-arm reply is cloned out
        // before the guarded section: a worker panic can poison the
        // request processing, never the reply obligation.
        let seq = entry.seq;
        let id = entry.req.id.clone();
        let tenant = entry.req.tenant.clone();
        let arrived = entry.arrived_nanos;
        let result = catch_unwind(AssertUnwindSafe(|| process(inner, &entry, &mut scratch)));
        let (outcome, downgraded) = match result {
            Ok(v) => v,
            Err(panic) => {
                scratch = RouterScratch::new();
                let reason = format!("worker panicked: {}", cpo_engine::panic_payload(&*panic));
                inner.register_failure(&entry, FailureKind::EnginePanic, &reason);
                (ServeOutcome::Failed { reason }, false)
            }
        };
        let elapsed_nanos = inner.now_nanos().saturating_sub(arrived);
        match &outcome {
            ServeOutcome::Done { .. } => {
                inner.stats.done.fetch_add(1, Ordering::Relaxed);
            }
            ServeOutcome::Deadline { exceeded_at, .. } => {
                let c = match exceeded_at {
                    DeadlineStage::Dequeue => &inner.stats.deadline_dequeue,
                    DeadlineStage::Plan => &inner.stats.deadline_plan,
                };
                c.fetch_add(1, Ordering::Relaxed);
            }
            ServeOutcome::Failed { .. } => {
                inner.stats.failed.fetch_add(1, Ordering::Relaxed);
            }
            // Workers never produce admission rejections.
            ServeOutcome::Rejected { .. } => {}
        }
        if downgraded {
            inner.stats.downgraded.fetch_add(1, Ordering::Relaxed);
        }
        inner.stats.record_latency(elapsed_nanos);
        inner.emit(ServeReply {
            seq,
            id,
            tenant,
            downgraded,
            elapsed_ms: elapsed_nanos as f64 / 1e6,
            outcome,
        });
    }
}

/// Process one accepted request on a worker. Runs under the worker's
/// `catch_unwind`; returns the typed verdict plus the downgrade flag.
fn process(inner: &Inner, entry: &Admitted, scratch: &mut RouterScratch) -> (ServeOutcome, bool) {
    let req = &entry.req;
    let elapsed_ms = || inner.now_nanos().saturating_sub(entry.arrived_nanos) / 1_000_000;

    // Chaos verdict first: injected faults model infrastructure failure,
    // which does not wait for the request to be cheap.
    if let Some(chaos) = &inner.cfg.chaos {
        match chaos.decide(entry.seq, &req.description) {
            ChaosAction::None => {}
            ChaosAction::Panic => {
                inner.stats.chaos_panics.fetch_add(1, Ordering::Relaxed);
                panic!("chaos: injected worker panic (seq={})", entry.seq);
            }
            ChaosAction::Stall(ms) => {
                inner.stats.chaos_stalls.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
        }
    }

    // Deadline gate 1: dead on arrival (queueing ate the budget).
    let mut downgraded = false;
    let mut downgrade = None;
    if let Some(budget_ms) = req.deadline_ms {
        let waited = elapsed_ms();
        if waited > budget_ms {
            return (
                ServeOutcome::Deadline {
                    exceeded_at: DeadlineStage::Dequeue,
                    budget_ms,
                    elapsed_ms: waited,
                    estimated_ms: 0,
                },
                false,
            );
        }
        // Deadline gate 2: the planned solver provably overruns what is
        // left of the budget. `plan` errors fall through — the solve
        // below reports the typed unsupported verdict.
        if let Ok(p) = plan(&req.apps, &req.platform, &req.problem) {
            let units = inner.cfg.cost_units_per_ms.max(1);
            let est_ms = p.cost_estimate(&req.apps, &req.platform, &req.problem) / units;
            if waited + est_ms > budget_ms {
                let mut shed = true;
                if inner.cfg.deadline_downgrade && !req.problem.hints.heuristic_fallback {
                    // Downgrade: trade certified optimality for a plan
                    // that fits the budget.
                    let mut cheap = req.problem.clone();
                    cheap.hints.heuristic_fallback = true;
                    cheap.hints.exact_fallback = false;
                    if let Ok(p2) = plan(&req.apps, &req.platform, &cheap) {
                        let est2 = p2.cost_estimate(&req.apps, &req.platform, &cheap) / units;
                        if waited + est2 <= budget_ms {
                            downgrade = Some(cheap);
                            downgraded = true;
                            shed = false;
                        }
                    }
                }
                if shed {
                    return (
                        ServeOutcome::Deadline {
                            exceeded_at: DeadlineStage::Plan,
                            budget_ms,
                            elapsed_ms: waited,
                            estimated_ms: est_ms,
                        },
                        false,
                    );
                }
            }
        }
    }

    // The digest from admission keys the cache; a downgraded spec hashes
    // its own spec part.
    let (spec, key) = match &downgrade {
        Some(cheap) => (cheap, (entry.key.0, hash_spec(cheap))),
        None => (&req.problem, entry.key),
    };
    let result = inner.engine.solve_keyed(key, &req.apps, &req.platform, spec, scratch);

    // The engine's panic backstop degrades solver panics to typed
    // `Unsupported` outcomes; recognize them and charge a strike so a
    // poison spec trips the breaker instead of panicking forever.
    if let SolveOutcome::Unsupported { reason } = &result {
        if cpo_engine::panic_details(reason).is_some() {
            inner.register_failure(entry, FailureKind::EnginePanic, reason);
        }
    }

    // Cross-validation: a mismatch means the result cannot be trusted —
    // degrade to `Failed` and strike the digest.
    if let Some(check) = &inner.hooks.check {
        if let Err(message) = check(req, &result) {
            let reason = format!("{CHECK_MISMATCH}{message}");
            inner.register_failure(entry, FailureKind::CheckMismatch, &reason);
            return (ServeOutcome::Failed { reason }, downgraded);
        }
    }

    (ServeOutcome::Done { result }, downgraded)
}
