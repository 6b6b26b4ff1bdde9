//! Batch engine guarantees: deterministic, index-ordered results for
//! every thread count; per-item infeasible/unsupported reporting (a bad
//! spec never aborts its batch); memo-cache hits for repeated specs.

use cpo_core::router;
use cpo_engine::{BatchItem, Engine, EngineConfig};
use cpo_model::generator::section2_example;
use cpo_model::prelude::*;

fn instance() -> (AppSet, Platform) {
    let (apps, _) = section2_example();
    (apps, Platform::fully_homogeneous(3, vec![1.0, 3.0, 6.0, 8.0], 1.0).unwrap())
}

/// The acceptance batch: 64 specs mixing every objective, both comm
/// models, feasible and infeasible bounds, and unsupported combinations.
fn mixed_specs() -> Vec<ProblemSpec> {
    let mut specs = Vec::new();
    for i in 0..64u32 {
        let comm = if i % 2 == 0 { CommModel::Overlap } else { CommModel::NoOverlap };
        let spec = match i % 8 {
            // Energy under a ladder of period bounds (some infeasible).
            0 | 1 => {
                let tb = 0.25 * f64::from(i / 8 + 1);
                ProblemSpec::new(Objective::Energy, Strategy::Interval, comm)
                    .with_period_bounds(vec![tb, tb])
            }
            // Latency under period bounds.
            2 => {
                let tb = 0.5 * f64::from(i / 8 + 1);
                ProblemSpec::new(Objective::Latency, Strategy::Interval, comm)
                    .with_period_bounds(vec![tb, tb])
            }
            // Plain period minimization (cache fodder: two distinct keys
            // per comm model across the whole batch).
            3 => ProblemSpec::new(Objective::Period, Strategy::Interval, comm),
            // Replicated period minimization.
            4 => ProblemSpec::new(Objective::Period, Strategy::Replicated, comm),
            // Unsupported: general-mapping energy.
            5 => ProblemSpec::new(Objective::Energy, Strategy::General, comm)
                .with_period_bounds(vec![2.0, 2.0]),
            // Invalid: wrong bound count (must come back unsupported, not
            // panic the worker).
            6 => ProblemSpec::new(Objective::Energy, Strategy::Interval, comm)
                .with_period_bounds(vec![2.0]),
            // Period/latency front.
            _ => {
                let mut s =
                    ProblemSpec::new(Objective::PeriodLatencyFront, Strategy::Interval, comm);
                s.hints.sweep_threads = Some(1);
                s
            }
        };
        specs.push(spec);
    }
    specs
}

#[test]
fn mixed_batch_of_64_is_deterministic_ordered_and_complete() {
    let (apps, pf) = instance();
    let specs = mixed_specs();
    assert_eq!(specs.len(), 64);
    let items: Vec<BatchItem<'_>> =
        specs.iter().map(|s| BatchItem::new(&apps, &pf, s)).collect();

    // Reference: the router, called directly in order.
    let reference: Vec<SolveOutcome> =
        specs.iter().map(|s| router::route(&apps, &pf, s)).collect();

    // Every outcome class must actually occur in the batch.
    assert!(reference.iter().any(|o| matches!(o, SolveOutcome::Solution(_))));
    assert!(reference.iter().any(|o| matches!(o, SolveOutcome::Front(_))));
    assert!(reference.iter().any(|o| matches!(o, SolveOutcome::Infeasible { .. })));
    assert!(reference.iter().any(|o| matches!(o, SolveOutcome::Unsupported { .. })));

    for threads in [1usize, 2, 4, 8] {
        for cache in [false, true] {
            // Cutoff 0: genuinely exercise the threaded path even though
            // the batch is tiny.
            let engine = Engine::new(EngineConfig { threads, cache, min_parallel_cost: 0, ..EngineConfig::default() });
            let results = engine.solve_batch(&items);
            assert_eq!(results.len(), 64);
            for (i, (got, want)) in results.iter().zip(&reference).enumerate() {
                assert_eq!(got, want, "threads={threads} cache={cache} item {i}");
            }
        }
    }
}

#[test]
fn per_item_failures_never_abort_the_batch() {
    // Regression test for the mixed feasible/infeasible contract: the
    // items around a failing one must still be solved, and the failing
    // one must carry its own typed outcome.
    let (apps, pf) = instance();
    let specs = [
        ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
            .with_period_bounds(vec![2.0, 2.0]),
        // Infeasible bounds.
        ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
            .with_period_bounds(vec![1e-6, 1e-6]),
        // Unsupported combination.
        ProblemSpec::new(Objective::Latency, Strategy::General, CommModel::Overlap),
        // Invalid: bound count mismatch (would assert inside the solver).
        ProblemSpec::new(Objective::Latency, Strategy::Interval, CommModel::Overlap)
            .with_period_bounds(vec![1.0, 2.0, 3.0]),
        ProblemSpec::new(Objective::Period, Strategy::Interval, CommModel::Overlap),
    ];
    let items: Vec<BatchItem<'_>> =
        specs.iter().map(|s| BatchItem::new(&apps, &pf, s)).collect();
    let results = Engine::new(EngineConfig::sequential()).solve_batch(&items);
    assert_eq!(results.len(), 5);
    assert!((results[0].objective().unwrap() - 46.0).abs() < 1e-9);
    assert!(matches!(&results[1], SolveOutcome::Infeasible { .. }));
    assert!(matches!(&results[2], SolveOutcome::Unsupported { .. }));
    match &results[3] {
        SolveOutcome::Unsupported { reason } => {
            assert!(reason.contains("3 entries"), "got: {reason}")
        }
        other => panic!("expected unsupported for the invalid spec, got {other:?}"),
    }
    assert!(matches!(&results[4], SolveOutcome::Solution(_)));
}

#[test]
fn cache_spans_batches_and_hits_repeats() {
    let (apps, pf) = instance();
    let spec_a = ProblemSpec::new(Objective::Period, Strategy::Interval, CommModel::Overlap);
    let spec_b = ProblemSpec::new(Objective::Period, Strategy::Interval, CommModel::NoOverlap);
    let engine = Engine::new(EngineConfig::with_threads(1));
    let items: Vec<BatchItem<'_>> = [&spec_a, &spec_b, &spec_a, &spec_a, &spec_b]
        .iter()
        .map(|s| BatchItem::new(&apps, &pf, s))
        .collect();
    let first = engine.solve_batch(&items);
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 2, "two distinct keys");
    assert_eq!(stats.hits, 3, "three repeats");
    // A second batch over the same specs is answered entirely from cache.
    let second = engine.solve_batch(&items);
    assert_eq!(first, second);
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.hits, 8);
    // Different instance ⇒ different key, no false hit.
    let (apps2, _) = section2_example();
    let pf2 = Platform::fully_homogeneous(4, vec![1.0, 3.0, 6.0, 8.0], 1.0).unwrap();
    let other = engine.solve(&apps2, &pf2, &spec_a);
    assert_eq!(engine.cache_stats().misses, 3, "a different platform is a different key");
    assert!(other.is_success());
}

#[test]
fn adaptive_cutoff_keeps_results_bitwise_identical() {
    // The cutoff only changes the schedule, never the outcomes: the same
    // batch with the cutoff forced off (true 4-thread fan-out), forced on
    // (sequential), and left at the default must agree bit for bit.
    let (apps, pf) = instance();
    let specs = mixed_specs();
    let items: Vec<BatchItem<'_>> =
        specs.iter().map(|s| BatchItem::new(&apps, &pf, s)).collect();
    let parallel = Engine::new(EngineConfig::with_threads(4).with_parallel_cutoff(0));
    let sequential = Engine::new(EngineConfig::with_threads(4).with_parallel_cutoff(u64::MAX));
    let default = Engine::new(EngineConfig::with_threads(4));
    assert_eq!(parallel.effective_threads(&items), 4);
    assert_eq!(sequential.effective_threads(&items), 1);
    let a = parallel.solve_batch(&items);
    let b = sequential.solve_batch(&items);
    let c = default.solve_batch(&items);
    assert_eq!(a, b);
    assert_eq!(a, c);
}

#[test]
fn tiny_batches_never_pay_thread_spawn() {
    // A handful of table-sized DP solves sums far below the default
    // cutoff: the engine must keep them on the calling thread.
    let (apps, pf) = instance();
    let spec = ProblemSpec::new(Objective::Period, Strategy::Interval, CommModel::Overlap);
    let items = vec![BatchItem::new(&apps, &pf, &spec); 8];
    let engine = Engine::new(EngineConfig::with_threads(8));
    assert_eq!(engine.effective_threads(&items), 1, "8 tiny DPs never earn 8 threads");

    // One exponential-fallback item justifies the fan-out on its own.
    let mut exact = ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
        .with_period_bounds(vec![2.0, 2.0])
        .with_latency_bounds(vec![1e9, 1e9]);
    exact.hints.exact_fallback = true;
    let mut heavy_specs: Vec<ProblemSpec> = vec![spec.clone(); 7];
    heavy_specs.push(exact);
    let heavy: Vec<BatchItem<'_>> =
        heavy_specs.iter().map(|s| BatchItem::new(&apps, &pf, s)).collect();
    assert_eq!(engine.effective_threads(&heavy), 8);

    // ... but once that batch's outcomes are memoized, re-serving it is
    // pure cache lookups: the cutoff counts cached items as zero work
    // and keeps the replay on the calling thread.
    engine.solve_batch(&heavy);
    assert_eq!(engine.effective_threads(&heavy), 1, "a fully-cached batch never fans out");
}

#[test]
fn cached_batch_is_no_slower_than_uncached() {
    // The memo-cache regression the structural-hash keys fix: on a batch
    // dominated by duplicate (instance, spec) pairs, serving hits must
    // beat re-solving — previously the canonical-JSON keying made the
    // "cache" *slower* than the sequential no-cache path
    // (router_dispatch/engine_batch64_cached vs _seq in BENCH_PR4.json).
    let (apps, pf) = instance();
    let distinct: Vec<ProblemSpec> = (1..=8)
        .map(|i| {
            let tb = 0.5 * i as f64;
            ProblemSpec::new(Objective::Energy, Strategy::Interval, CommModel::Overlap)
                .with_period_bounds(vec![tb, tb])
        })
        .collect();
    let items: Vec<BatchItem<'_>> = (0..256)
        .map(|i| BatchItem::new(&apps, &pf, &distinct[i % distinct.len()]))
        .collect();

    // Min over interleaved pairs: the minimum is the noise-free estimate
    // (scheduler preemptions only ever inflate a run), so this ordering
    // check cannot flake on a loaded CI runner. The gated
    // `router_dispatch/engine_batch64_cached` bench row tracks the
    // actual magnitude.
    let uncached_engine = Engine::new(EngineConfig::sequential());
    let cached_engine = Engine::new(EngineConfig::with_threads(1));
    cached_engine.solve_batch(&items); // prime
    let mut uncached = std::time::Duration::MAX;
    let mut cached = std::time::Duration::MAX;
    for _ in 0..7 {
        let t0 = std::time::Instant::now();
        assert_eq!(uncached_engine.solve_batch(&items).len(), items.len());
        uncached = uncached.min(t0.elapsed());
        let t0 = std::time::Instant::now();
        assert_eq!(cached_engine.solve_batch(&items).len(), items.len());
        cached = cached.min(t0.elapsed());
    }
    let stats = cached_engine.cache_stats();
    assert_eq!(stats.misses, 8, "eight distinct keys solve once");
    assert!(
        cached <= uncached,
        "cache hits ({cached:?}) must not lose to re-solving ({uncached:?})"
    );
}

#[test]
fn injected_worker_panic_fails_one_item_not_the_batch() {
    // Regression test for the whole-batch abort: a panic that escapes the
    // per-item router backstop (here injected straight into the batch
    // loop) used to unwind through the scope join and kill the process.
    // It must now degrade to a typed outcome for that item only, for
    // every thread count.
    let (apps, pf) = instance();
    let spec = ProblemSpec::new(Objective::Period, Strategy::Interval, CommModel::Overlap);
    let specs = vec![spec; 8];
    let items: Vec<BatchItem<'_>> =
        specs.iter().map(|s| BatchItem::new(&apps, &pf, s)).collect();
    let reference = router::route(&apps, &pf, &specs[0]);
    for threads in [1usize, 2, 4] {
        let engine = Engine::new(EngineConfig {
            threads,
            cache: false,
            min_parallel_cost: 0,
            debug_panic_on_item: Some(3),
            ..EngineConfig::default()
        });
        let results = engine.solve_batch(&items);
        assert_eq!(results.len(), 8, "threads={threads}");
        for (i, got) in results.iter().enumerate() {
            if i == 3 {
                let reason = match got {
                    SolveOutcome::Unsupported { reason } => reason,
                    other => panic!("threads={threads}: expected typed outcome, got {other:?}"),
                };
                let details = cpo_engine::panic_details(reason)
                    .unwrap_or_else(|| panic!("unparseable backstop reason: {reason}"));
                assert_eq!(details.item_index, Some(3));
                assert_eq!(details.instance_digest.len(), 32);
                assert_eq!(details.spec_digest.len(), 32);
                assert!(details.payload.contains("injected fault"), "got: {}", details.payload);
            } else {
                assert_eq!(got, &reference, "threads={threads} item {i}");
            }
        }
    }
}

#[test]
fn panic_details_roundtrip_and_reject_ordinary_reasons() {
    let (apps, pf) = instance();
    let spec = ProblemSpec::new(Objective::Period, Strategy::Interval, CommModel::Overlap);
    let items = [BatchItem::new(&apps, &pf, &spec)];
    let engine = Engine::new(EngineConfig {
        threads: 1,
        cache: false,
        min_parallel_cost: 0,
        debug_panic_on_item: Some(0),
        ..EngineConfig::default()
    });
    let results = engine.solve_batch(&items);
    let reason = match &results[0] {
        SolveOutcome::Unsupported { reason } => reason.clone(),
        other => panic!("expected unsupported, got {other:?}"),
    };
    let details = cpo_engine::panic_details(&reason).expect("structured reason parses");
    // The digests in the backstop are the real structural digests of the
    // failing item — bundle export keys on them.
    assert_eq!(
        details.instance_digest,
        cpo_model::hash::digest_hex(cpo_model::hash::hash_instance(&apps, &pf))
    );
    assert_eq!(
        details.spec_digest,
        cpo_model::hash::digest_hex(cpo_model::hash::hash_spec(&spec))
    );
    // Ordinary unsupported reasons are not misparsed as panics.
    assert!(cpo_engine::panic_details("unsupported combination: general energy").is_none());
}

#[test]
fn batch_results_match_single_solves() {
    let (apps, pf) = instance();
    let specs = mixed_specs();
    let items: Vec<BatchItem<'_>> =
        specs.iter().map(|s| BatchItem::new(&apps, &pf, s)).collect();
    let engine = Engine::new(EngineConfig::with_threads(4));
    let batched = engine.solve_batch(&items);
    let fresh = Engine::new(EngineConfig::sequential());
    for (i, spec) in specs.iter().enumerate() {
        assert_eq!(batched[i], fresh.solve(&apps, &pf, spec), "item {i}");
    }
}

#[test]
fn bounded_cache_evictions_never_change_results() {
    // Duplicate-heavy batch against a deliberately tiny cache: ~40
    // distinct structural keys cycled three times over 16 single-slot
    // shards guarantees eviction churn (pigeonhole), and the re-misses
    // must recompute bit-for-bit what was evicted.
    let (apps, pf) = instance();
    let mut specs = Vec::new();
    for _round in 0..3 {
        for i in 0..40u32 {
            let comm = if i % 2 == 0 { CommModel::Overlap } else { CommModel::NoOverlap };
            let tb = 0.25 * f64::from(i / 2 + 1);
            specs.push(
                ProblemSpec::new(Objective::Energy, Strategy::Interval, comm)
                    .with_period_bounds(vec![tb, tb]),
            );
        }
    }
    let items: Vec<BatchItem<'_>> =
        specs.iter().map(|s| BatchItem::new(&apps, &pf, s)).collect();

    let reference = Engine::new(EngineConfig {
        threads: 1,
        cache: false,
        min_parallel_cost: 0,
        ..EngineConfig::default()
    })
    .solve_batch(&items);

    for threads in [1usize, 4] {
        let engine = Engine::new(
            EngineConfig { threads, min_parallel_cost: 0, ..EngineConfig::default() }
                .with_cache_capacity(1),
        );
        let results = engine.solve_batch(&items);
        let stats = engine.cache_stats();
        assert!(
            stats.evictions > 0,
            "threads={threads}: 40 keys over single-slot shards must evict, got {stats:?}"
        );
        assert!(
            stats.entries <= cpo_engine::cache::SHARDS as u64,
            "threads={threads}: bounded cache overflowed: {stats:?}"
        );
        for (i, (got, want)) in results.iter().zip(&reference).enumerate() {
            assert_eq!(got, want, "threads={threads} item {i} diverged after evictions");
        }
    }
}
