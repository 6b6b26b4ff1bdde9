//! Serve counters and the periodic JSONL stats line.
//!
//! Counters are relaxed atomics bumped on the hot path; latency is a
//! log2-bucketed histogram of admission→reply times (microsecond
//! resolution, so p50/p99 are bucket upper bounds — the bench harness
//! measures exact percentiles separately). [`StatsSnapshot`] is the
//! serialized form: one compact JSON object per stats interval on
//! stderr, greppable and machine-parseable.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// log2 buckets of microseconds: bucket `i` holds latencies in
/// `[2^i, 2^(i+1))` µs; 48 buckets cover ~9 years.
const BUCKETS: usize = 48;

/// Live counters (one instance per server, shared by all workers).
pub struct ServeStats {
    /// Requests that passed the worker-side gates (parse, quarantine,
    /// tenant bucket) and went on to be solved.
    pub accepted: AtomicU64,
    /// Replies whose outcome is `Done` (solved, infeasible or
    /// unsupported — a typed solver answer).
    pub done: AtomicU64,
    /// Typed rejections: queue full.
    pub rejected_queue_full: AtomicU64,
    /// Typed rejections: tenant out of tokens.
    pub rejected_rate_limited: AtomicU64,
    /// Typed rejections: digest quarantined.
    pub rejected_quarantined: AtomicU64,
    /// Typed rejections: draining.
    pub rejected_shutting_down: AtomicU64,
    /// Typed rejections: unparseable or invalid request.
    pub rejected_invalid: AtomicU64,
    /// Deadline shed at dequeue.
    pub deadline_dequeue: AtomicU64,
    /// Deadline shed at plan time.
    pub deadline_plan: AtomicU64,
    /// Worker-level failures (injected panics, check mismatches).
    pub failed: AtomicU64,
    /// Requests solved under a heuristic downgrade.
    pub downgraded: AtomicU64,
    /// Strikes charged to digests.
    pub strikes: AtomicU64,
    /// Repro bundles exported.
    pub bundles_exported: AtomicU64,
    /// Chaos: injected panics taken.
    pub chaos_panics: AtomicU64,
    /// Chaos: injected stalls taken.
    pub chaos_stalls: AtomicU64,
    latency_buckets: [AtomicU64; BUCKETS],
}

impl Default for ServeStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        ServeStats {
            accepted: AtomicU64::new(0),
            done: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            rejected_rate_limited: AtomicU64::new(0),
            rejected_quarantined: AtomicU64::new(0),
            rejected_shutting_down: AtomicU64::new(0),
            rejected_invalid: AtomicU64::new(0),
            deadline_dequeue: AtomicU64::new(0),
            deadline_plan: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            downgraded: AtomicU64::new(0),
            strikes: AtomicU64::new(0),
            bundles_exported: AtomicU64::new(0),
            chaos_panics: AtomicU64::new(0),
            chaos_stalls: AtomicU64::new(0),
            latency_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one admission→reply latency.
    pub fn record_latency(&self, nanos: u64) {
        let micros = nanos / 1_000;
        let bucket = (64 - micros.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.latency_buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Histogram-resolution percentile (0 < q <= 1) in milliseconds:
    /// the upper bound of the bucket holding the q-quantile, or 0.0 when
    /// nothing was recorded.
    pub fn latency_percentile_ms(&self, q: f64) -> f64 {
        let counts: Vec<u64> =
            self.latency_buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper bound of bucket i: 2^(i+1) µs.
                return (1u64 << (i + 1)) as f64 / 1_000.0;
            }
        }
        unreachable!("rank <= total")
    }

    /// Freeze a snapshot for the stats line.
    pub fn snapshot(&self, uptime_ms: u64, cache: CacheSnapshot, quarantined: u64) -> StatsSnapshot {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        StatsSnapshot {
            uptime_ms,
            accepted: ld(&self.accepted),
            done: ld(&self.done),
            rejected_queue_full: ld(&self.rejected_queue_full),
            rejected_rate_limited: ld(&self.rejected_rate_limited),
            rejected_quarantined: ld(&self.rejected_quarantined),
            rejected_shutting_down: ld(&self.rejected_shutting_down),
            rejected_invalid: ld(&self.rejected_invalid),
            deadline_dequeue: ld(&self.deadline_dequeue),
            deadline_plan: ld(&self.deadline_plan),
            failed: ld(&self.failed),
            downgraded: ld(&self.downgraded),
            strikes: ld(&self.strikes),
            bundles_exported: ld(&self.bundles_exported),
            chaos_panics: ld(&self.chaos_panics),
            chaos_stalls: ld(&self.chaos_stalls),
            quarantined,
            cache,
            p50_ms: self.latency_percentile_ms(0.50),
            p99_ms: self.latency_percentile_ms(0.99),
        }
    }
}

/// Engine cache counters, mirrored into the serializable snapshot (the
/// engine crate itself carries no serde dependency).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheSnapshot {
    /// Memo hits.
    pub hits: u64,
    /// Memo misses.
    pub misses: u64,
    /// LRU evictions.
    pub evictions: u64,
    /// Live entries.
    pub entries: u64,
}

/// One periodic stats line (compact JSON on stderr).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// See [`ServeStats::accepted`].
    pub accepted: u64,
    /// See [`ServeStats::done`].
    pub done: u64,
    /// See [`ServeStats::rejected_queue_full`].
    pub rejected_queue_full: u64,
    /// See [`ServeStats::rejected_rate_limited`].
    pub rejected_rate_limited: u64,
    /// See [`ServeStats::rejected_quarantined`].
    pub rejected_quarantined: u64,
    /// See [`ServeStats::rejected_shutting_down`].
    pub rejected_shutting_down: u64,
    /// See [`ServeStats::rejected_invalid`].
    pub rejected_invalid: u64,
    /// See [`ServeStats::deadline_dequeue`].
    pub deadline_dequeue: u64,
    /// See [`ServeStats::deadline_plan`].
    pub deadline_plan: u64,
    /// See [`ServeStats::failed`].
    pub failed: u64,
    /// See [`ServeStats::downgraded`].
    pub downgraded: u64,
    /// See [`ServeStats::strikes`].
    pub strikes: u64,
    /// See [`ServeStats::bundles_exported`].
    pub bundles_exported: u64,
    /// See [`ServeStats::chaos_panics`].
    pub chaos_panics: u64,
    /// See [`ServeStats::chaos_stalls`].
    pub chaos_stalls: u64,
    /// Digests currently quarantined.
    pub quarantined: u64,
    /// Engine memo cache counters.
    pub cache: CacheSnapshot,
    /// Histogram-resolution median latency, milliseconds.
    pub p50_ms: f64,
    /// Histogram-resolution p99 latency, milliseconds.
    pub p99_ms: f64,
}

impl StatsSnapshot {
    /// Replies emitted (every admission verdict and every worker reply).
    pub fn replies(&self) -> u64 {
        self.done
            + self.rejected_queue_full
            + self.rejected_rate_limited
            + self.rejected_quarantined
            + self.rejected_shutting_down
            + self.rejected_invalid
            + self.deadline_dequeue
            + self.deadline_plan
            + self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_walk_the_histogram() {
        let s = ServeStats::new();
        assert_eq!(s.latency_percentile_ms(0.5), 0.0, "empty histogram");
        // 99 fast (≈1µs) + 1 slow (≈16ms) sample.
        for _ in 0..99 {
            s.record_latency(1_000);
        }
        s.record_latency(16_000_000);
        let p50 = s.latency_percentile_ms(0.50);
        let p99 = s.latency_percentile_ms(0.99);
        let p999 = s.latency_percentile_ms(0.999);
        assert!(p50 < 0.01, "median in the fast bucket, got {p50}ms");
        assert!(p99 < 0.01, "p99 still fast (99/100), got {p99}ms");
        assert!(p999 >= 16.0, "p99.9 catches the outlier, got {p999}ms");
    }

    #[test]
    fn snapshot_serializes_and_counts_replies() {
        let s = ServeStats::new();
        s.accepted.fetch_add(3, Ordering::Relaxed);
        s.done.fetch_add(2, Ordering::Relaxed);
        s.failed.fetch_add(1, Ordering::Relaxed);
        s.record_latency(2_000_000);
        let snap = s.snapshot(1234, CacheSnapshot { hits: 1, misses: 2, evictions: 0, entries: 2 }, 0);
        assert_eq!(snap.replies(), 3);
        let json = cpo_model::io::serde_json_error::to_string(&snap).unwrap();
        assert!(json.contains("\"accepted\":3"), "got: {json}");
        let back: StatsSnapshot = cpo_model::io::serde_json_error::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
