//! # cpo-engine — the batched solve engine
//!
//! [`cpo_core::router`] answers one [`ProblemSpec`] at a time; this crate
//! runs *batches*: a work-stealing pool of workers, each owning a
//! reusable [`RouterScratch`] (flat DP arenas, Hungarian workspace,
//! bound buffers), pulls items off a shared atomic cursor and routes
//! them. The design mirrors the Pareto sweep engine's fan-out — scoped
//! threads, results merged by item index — so:
//!
//! * **Results are deterministic and ordered.** The returned vector holds
//!   item `i`'s outcome at position `i`, bit-for-bit identical for every
//!   thread count (each item is solved by the same deterministic router).
//! * **Failures are per-item.** An infeasible or unsupported spec becomes
//!   that item's [`SolveOutcome`]; a solver panic (which the router's
//!   validation should make unreachable) is caught and reported as an
//!   unsupported outcome — a batch never aborts and never panics.
//! * **Repeated work is memoized.** An instance-keyed cache returns
//!   previously-computed outcomes; identical specs in one batch or across
//!   batches solve once. Keys are 128-bit structural digests
//!   ([`cpo_model::hash`]) — one pass over the instance (computed once
//!   per distinct instance per batch) plus one over the spec — so a cache
//!   hit costs nanoseconds where the former canonical-JSON keys cost more
//!   than many of the solves they skipped. A false hit would need a full
//!   128-bit collision between two live keys (probability ≈ `k²/2^129`
//!   for `k` entries — negligible).
//! * **Threads are earned.** Fanning a batch out only pays off when the
//!   batch carries real work: worker spawn plus result merging costs tens
//!   of microseconds, which dwarfs a batch of table-sized DP solves. The
//!   engine therefore sums a per-item work estimate from each item's
//!   routed [`Plan`](cpo_core::router::Plan) — counting items already
//!   answered by the memo cache as zero — and keeps the batch on the
//!   calling thread below [`EngineConfig::min_parallel_cost`]. Results
//!   are bitwise identical either way, only the schedule changes.

pub mod cache;

use cache::ShardedLru;
pub use cache::CacheKey;
use cpo_core::router::{plan, route_planned, route_with, Plan, RouterScratch};
use cpo_model::hash::{digest_hex, hash_instance, hash_spec};
use cpo_model::prelude::*;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One unit of batch work: a problem spec over an instance. Borrowed so a
/// batch of many specs over one instance shares it allocation-free.
#[derive(Debug, Clone, Copy)]
pub struct BatchItem<'a> {
    /// The concurrent applications.
    pub apps: &'a AppSet,
    /// The target platform.
    pub platform: &'a Platform,
    /// The problem to solve on them.
    pub spec: &'a ProblemSpec,
}

impl<'a> BatchItem<'a> {
    /// Bundle an item.
    pub fn new(apps: &'a AppSet, platform: &'a Platform, spec: &'a ProblemSpec) -> Self {
        BatchItem { apps, platform, spec }
    }

    /// Instance part of the cache key: a 128-bit structural digest of
    /// apps + platform. Computed once per *distinct* instance per batch —
    /// see [`Engine::solve_batch`].
    fn instance_key(&self) -> u128 {
        hash_instance(self.apps, self.platform)
    }
}

/// A planner verdict computed once by the adaptive cutoff and reused by
/// the solve (`Err` carries the unsupported-combination reason exactly
/// as `route_with` would report it).
type Planned = Result<Plan, String>;

/// Default [`EngineConfig::min_parallel_cost`]: roughly tens of
/// milliseconds of estimated single-thread work. Below it, spawning
/// workers demonstrably costs more than it saves (the
/// `router_dispatch/engine_batch64_*` bench rows gate this).
pub const DEFAULT_PARALLEL_CUTOFF: u64 = 50_000_000;

/// Default [`EngineConfig::cache_capacity`]: enough for every distinct
/// spec a realistic batch or a day of duplicate-heavy serving carries,
/// small enough (outcomes are table-sized mappings) to bound a long-lived
/// server's footprint.
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 16;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads (`0` = one per available core). `1` keeps the whole
    /// batch on the calling thread — the zero-overhead sequential mode the
    /// dispatch bench gates.
    pub threads: usize,
    /// Enable the instance-keyed memo cache.
    pub cache: bool,
    /// Maximum memoized outcomes (sharded LRU; the least recently used
    /// entry is evicted when full). Evictions are counted in
    /// [`CacheStats`] and can never change a result — a re-miss
    /// recomputes the same deterministic outcome bit-for-bit.
    pub cache_capacity: usize,
    /// Adaptive parallel cutoff: a batch whose summed
    /// [`Plan::cost_estimate`](cpo_core::router::Plan::cost_estimate)
    /// falls below this many abstract work units runs on the calling
    /// thread even when `threads > 1` (the threads would cost more than
    /// they save). `0` disables the cutoff — `threads` is then honored
    /// unconditionally. Outcomes are bitwise identical either way.
    pub min_parallel_cost: u64,
    /// Fault injection for the degrade-path regression tests: panic in
    /// the batch loop — *outside* the per-item router backstop — when
    /// this item index is reached. Never set in production; exercises the
    /// worker-level guard that keeps one poisoned item from killing a
    /// batch.
    pub debug_panic_on_item: Option<usize>,
}

impl Default for EngineConfig {
    /// One worker per core, cache on at the default capacity, default
    /// cutoff.
    fn default() -> Self {
        EngineConfig {
            threads: 0,
            cache: true,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            min_parallel_cost: DEFAULT_PARALLEL_CUTOFF,
            debug_panic_on_item: None,
        }
    }
}

impl EngineConfig {
    /// Sequential, cache off: dispatch overhead only.
    pub fn sequential() -> Self {
        EngineConfig { threads: 1, cache: false, ..EngineConfig::default() }
    }

    /// Parallel over up to `threads` workers (cutoff permitting), cache
    /// on.
    pub fn with_threads(threads: usize) -> Self {
        EngineConfig { threads, ..EngineConfig::default() }
    }

    /// Replace the adaptive parallel cutoff (`0` = always honor
    /// `threads`).
    pub fn with_parallel_cutoff(mut self, min_parallel_cost: u64) -> Self {
        self.min_parallel_cost = min_parallel_cost;
        self
    }

    /// Replace the memo-cache capacity (entries).
    pub fn with_cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.cache_capacity = cache_capacity;
        self
    }
}

/// The parsed form of a structured panic-backstop reason — see
/// [`panic_details`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicDetails {
    /// Batch item index (`None` for single solves).
    pub item_index: Option<usize>,
    /// Structural digest of (apps, platform), lowercase hex.
    pub instance_digest: String,
    /// Structural digest of the problem spec, lowercase hex.
    pub spec_digest: String,
    /// The panic payload, stringified.
    pub payload: String,
}

/// Parse the structured reason carried by the engine's panic backstop
/// (`SolveOutcome::Unsupported` with a `"solver panicked: ..."` reason).
/// Returns `None` for reasons the backstop didn't produce, so callers can
/// distinguish panics from ordinary unsupported combinations.
pub fn panic_details(reason: &str) -> Option<PanicDetails> {
    let rest = reason.strip_prefix("solver panicked: item=")?;
    let (item, rest) = rest.split_once(" instance=")?;
    let (instance, rest) = rest.split_once(" spec=")?;
    let (spec, payload) = rest.split_once(" payload=")?;
    Some(PanicDetails {
        item_index: if item == "-" { None } else { item.parse().ok() },
        instance_digest: instance.to_string(),
        spec_digest: spec.to_string(),
        payload: payload.to_string(),
    })
}

/// Stringify a caught panic payload (the one copy every layer's panic
/// guard uses).
pub fn panic_payload(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".into())
}

/// The structured backstop reason: stable `"solver panicked:"` prefix,
/// then item index, instance/spec digests and the payload —
/// machine-parseable by [`panic_details`] (bundle export feeds on it).
fn structured_panic_reason(index: Option<usize>, item: &BatchItem<'_>, payload: &str) -> String {
    format!(
        "solver panicked: item={} instance={} spec={} payload={payload}",
        index.map_or_else(|| "-".to_string(), |i| i.to_string()),
        digest_hex(hash_instance(item.apps, item.platform)),
        digest_hex(hash_spec(item.spec)),
    )
}

/// Memo-cache counters (monotone over the engine's lifetime, except
/// `entries` which is the live count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Items answered from the cache.
    pub hits: u64,
    /// Items that ran a solver.
    pub misses: u64,
    /// LRU entries evicted to make room.
    pub evictions: u64,
    /// Live cached outcomes right now.
    pub entries: u64,
}

/// The batched solve engine. Cheap to construct; reusable across batches
/// and across serve requests (the bounded memo cache persists and keeps
/// filling, evicting least-recently-used outcomes when full).
pub struct Engine {
    cfg: EngineConfig,
    cache: ShardedLru<SolveOutcome>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(EngineConfig::default())
    }
}

impl Engine {
    /// Engine with the given configuration.
    pub fn new(cfg: EngineConfig) -> Self {
        let capacity = cfg.cache_capacity.max(1);
        Engine {
            cfg,
            cache: ShardedLru::new(capacity),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Solve one spec (routes through the cache like a 1-item batch).
    pub fn solve(&self, apps: &AppSet, platform: &Platform, spec: &ProblemSpec) -> SolveOutcome {
        let mut scratch = RouterScratch::new();
        self.solve_with(apps, platform, spec, &mut scratch)
    }

    /// Solve one spec on a caller-owned [`RouterScratch`] — the serving
    /// hot path, where each long-lived worker reuses its flat DP arenas
    /// across requests instead of reallocating per solve. Panics degrade
    /// to the structured typed backstop exactly as in batches (the
    /// scratch is replaced before reuse), so a poison request can never
    /// take a serve worker down.
    pub fn solve_with(
        &self,
        apps: &AppSet,
        platform: &Platform,
        spec: &ProblemSpec,
        scratch: &mut RouterScratch,
    ) -> SolveOutcome {
        let key = (hash_instance(apps, platform), hash_spec(spec));
        self.solve_keyed(key, apps, platform, spec, scratch)
    }

    /// [`Engine::solve_with`] for a caller that already holds the
    /// request's cache key, `(hash_instance(apps, platform),
    /// hash_spec(spec))`: the serve workers digest each request once, for
    /// quarantine, and reuse the digest here.
    pub fn solve_keyed(
        &self,
        key: CacheKey,
        apps: &AppSet,
        platform: &Platform,
        spec: &ProblemSpec,
        scratch: &mut RouterScratch,
    ) -> SolveOutcome {
        let item = BatchItem::new(apps, platform, spec);
        self.solve_item_guarded(None, &item, self.cfg.cache.then_some(key), None, scratch)
    }

    /// Solve a batch; `results[i]` answers `items[i]`, identical for
    /// every thread count.
    pub fn solve_batch(&self, items: &[BatchItem<'_>]) -> Vec<SolveOutcome> {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let keys = self.cache_keys(items);
        let (threads, plans) = self.decide_threads(items, &keys);

        if threads == 1 {
            let mut scratch = RouterScratch::new();
            return items
                .iter()
                .zip(&keys)
                .zip(&plans)
                .enumerate()
                .map(|(i, ((item, key), planned))| {
                    self.solve_item_guarded(Some(i), item, *key, planned.as_ref(), &mut scratch)
                })
                .collect();
        }

        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<SolveOutcome>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        // Workers catch their own panics item by item
        // (`solve_item_guarded`), so the scope joins cleanly with every
        // slot filled.
        crossbeam::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|_| {
                    let mut scratch = RouterScratch::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let out = self.solve_item_guarded(
                            Some(i),
                            &items[i],
                            keys[i],
                            plans[i].as_ref(),
                            &mut scratch,
                        );
                        *slots[i].lock() = Some(out);
                    }
                });
            }
        })
        .expect("batch workers catch their own panics");
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every batch item is answered"))
            .collect()
    }

    /// The worker count this engine would actually use for `items`: the
    /// configured `threads` (resolved against the host), capped by the
    /// batch size, and collapsed to `1` when the batch's summed
    /// [`Plan`](cpo_core::router::Plan) work estimate falls below the
    /// adaptive cutoff. Items already answered by the memo cache
    /// contribute nothing — a fully-cached batch of heavy specs is
    /// nanoseconds of lookups and never pays a fan-out. Exposed so
    /// callers (and the determinism tests) can observe the decision
    /// without timing anything.
    pub fn effective_threads(&self, items: &[BatchItem<'_>]) -> usize {
        let keys = self.cache_keys(items);
        self.decide_threads(items, &keys).0
    }

    /// Cache keys, with the instance part computed once per *distinct*
    /// instance (batches routinely share one instance across many specs;
    /// keying must not re-hash it per item). All `None` when the cache is
    /// off.
    fn cache_keys(&self, items: &[BatchItem<'_>]) -> Vec<Option<CacheKey>> {
        if !self.cfg.cache {
            return vec![None; items.len()];
        }
        let mut by_ptr: HashMap<(usize, usize), u128> = HashMap::new();
        items
            .iter()
            .map(|item| {
                let ptrs = (
                    item.apps as *const AppSet as usize,
                    item.platform as *const Platform as usize,
                );
                let ikey = *by_ptr.entry(ptrs).or_insert_with(|| item.instance_key());
                Some((ikey, hash_spec(item.spec)))
            })
            .collect()
    }

    /// The cutoff decision behind [`Engine::effective_threads`], reusing
    /// already-computed cache keys. Also returns the per-item planner
    /// verdicts it produced along the way (`None` for cached items and
    /// whenever the cutoff is inactive), so the solve paths never plan an
    /// item twice.
    fn decide_threads(
        &self,
        items: &[BatchItem<'_>],
        keys: &[Option<CacheKey>],
    ) -> (usize, Vec<Option<Planned>>) {
        let threads = match self.cfg.threads {
            0 => std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1),
            t => t,
        }
        .min(items.len().max(1));
        if threads <= 1 || self.cfg.min_parallel_cost == 0 {
            return (threads, vec![None; items.len()]);
        }
        // Snapshot cache membership with per-shard probes (`contains`
        // does not bump recency — planning an item is not a use), so the
        // planning loop below never blocks concurrent lookups on this
        // engine.
        let cached: Vec<bool> = if self.cfg.cache {
            keys.iter().map(|key| key.is_some_and(|k| self.cache.contains(&k))).collect()
        } else {
            vec![false; items.len()]
        };
        let mut estimate = 0u64;
        let mut plans = Vec::with_capacity(items.len());
        for (i, (item, &is_cached)) in items.iter().zip(&cached).enumerate() {
            // Once the cutoff is crossed the decision is final: stop
            // planning serially and let the workers plan the remaining
            // items in parallel (`solve_item` falls back to `route_with`
            // for `None` entries).
            if is_cached || estimate >= self.cfg.min_parallel_cost {
                plans.push(None);
                continue;
            }
            // The planner runs on the calling thread, outside the worker
            // guards — a panic here must degrade to that item's outcome,
            // not abort the batch before it starts.
            let planned =
                catch_unwind(AssertUnwindSafe(|| plan(item.apps, item.platform, item.spec)))
                    .unwrap_or_else(|panic| {
                        Err(structured_panic_reason(Some(i), item, &panic_payload(&*panic)))
                    });
            estimate = estimate.saturating_add(match &planned {
                Ok(p) => p.cost_estimate(item.apps, item.platform, item.spec),
                // Rejected specs cost one validation.
                Err(_) => 1_000,
            });
            plans.push(Some(planned));
        }
        (if estimate >= self.cfg.min_parallel_cost { threads } else { 1 }, plans)
    }

    /// Cache counters so far.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.cache.len() as u64,
        }
    }

    /// Drop every memoized outcome (the counters keep accumulating).
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// [`Engine::solve_item`] behind the worker-level guard: any panic
    /// reaching the batch loop — the fault-injection hook, the cache
    /// layer, torn scratch state — degrades to a typed outcome for *this*
    /// item; the worker keeps draining the cursor.
    fn solve_item_guarded(
        &self,
        index: Option<usize>,
        item: &BatchItem<'_>,
        key: Option<CacheKey>,
        planned: Option<&Planned>,
        scratch: &mut RouterScratch,
    ) -> SolveOutcome {
        let res = catch_unwind(AssertUnwindSafe(|| {
            if let (Some(i), Some(target)) = (index, self.cfg.debug_panic_on_item) {
                if i == target {
                    panic!("injected fault: debug_panic_on_item({i})");
                }
            }
            self.solve_item(index, item, key, planned, scratch)
        }));
        res.unwrap_or_else(|panic| {
            *scratch = RouterScratch::new();
            SolveOutcome::Unsupported {
                reason: structured_panic_reason(index, item, &panic_payload(&*panic)),
            }
        })
    }

    fn solve_item(
        &self,
        index: Option<usize>,
        item: &BatchItem<'_>,
        key: Option<CacheKey>,
        planned: Option<&Planned>,
        scratch: &mut RouterScratch,
    ) -> SolveOutcome {
        if let Some(k) = &key {
            if let Some(hit) = self.cache.get(k) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return hit;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // The router validates specs and reports failures as typed
        // outcomes; the catch_unwind is a last-resort guarantee that one
        // item can never take down a batch.
        let out = match catch_unwind(AssertUnwindSafe(|| match planned {
            // The adaptive cutoff already planned this item; don't pay
            // the planner twice.
            Some(Ok(p)) => route_planned(item.apps, item.platform, item.spec, *p, scratch),
            Some(Err(reason)) => SolveOutcome::Unsupported { reason: reason.clone() },
            None => route_with(item.apps, item.platform, item.spec, scratch),
        })) {
            Ok(out) => out,
            Err(panic) => {
                // The scratch may hold torn state after an unwind; replace
                // it before the worker touches the next item.
                *scratch = RouterScratch::new();
                SolveOutcome::Unsupported {
                    reason: structured_panic_reason(index, item, &panic_payload(&*panic)),
                }
            }
        };
        if let Some(k) = key {
            if self.cache.insert(k, out.clone()) {
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_model::generator::section2_example;

    fn instance() -> (AppSet, Platform) {
        let (apps, _) = section2_example();
        (apps, Platform::fully_homogeneous(3, vec![1.0, 3.0, 6.0, 8.0], 1.0).unwrap())
    }

    #[test]
    fn single_solve_matches_router() {
        let (apps, pf) = instance();
        let spec = ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
            .with_period_bounds(vec![2.0, 2.0]);
        let engine = Engine::default();
        let out = engine.solve(&apps, &pf, &spec);
        assert_eq!(out, cpo_core::route(&apps, &pf, &spec));
        assert!((out.objective().unwrap() - 46.0).abs() < 1e-9);
    }

    #[test]
    fn cache_answers_repeats() {
        let (apps, pf) = instance();
        let spec = ProblemSpec::new(Objective::Period, Strategy::Interval, CommModel::Overlap);
        let engine = Engine::new(EngineConfig::with_threads(1));
        let items = vec![BatchItem::new(&apps, &pf, &spec); 5];
        let results = engine.solve_batch(&items);
        assert!(results.windows(2).all(|w| w[0] == w[1]));
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 4);
    }

    #[test]
    fn sequential_and_default_configs_exist() {
        assert_eq!(EngineConfig::sequential().threads, 1);
        assert!(!EngineConfig::sequential().cache);
        assert!(EngineConfig::default().cache);
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = Engine::default();
        assert!(engine.solve_batch(&[]).is_empty());
    }
}
