//! Per-tenant token-bucket fairness.
//!
//! Admission charges one token per request against the tenant named in
//! the request envelope (absent = the shared anonymous tenant). Buckets
//! refill continuously at `rate_per_sec` up to `burst`, so a flooding
//! client exhausts *its own* bucket and gets typed `Rejected{rate_limited}`
//! replies while everyone else's tokens are untouched.
//!
//! Time is an explicit nanosecond argument (the server feeds each
//! request's arrival time on its monotonic clock) so tests can replay any
//! schedule deterministically. Workers charge arrivals out of order, so a
//! bucket's clock only moves forward: a call older than the bucket's last
//! one refills nothing and leaves the clock where it is.

use parking_lot::Mutex;
use std::collections::HashMap;

struct Bucket {
    tokens: f64,
    last_nanos: u64,
}

/// The admission governor: one token bucket per tenant key.
pub struct TenantGovernor {
    buckets: Mutex<HashMap<String, Bucket>>,
    rate_per_sec: f64,
    burst: f64,
}

impl TenantGovernor {
    /// Governor refilling `rate_per_sec` tokens per second up to `burst`.
    /// `rate_per_sec == 0` disables rate limiting entirely.
    pub fn new(rate_per_sec: f64, burst: f64) -> Self {
        TenantGovernor {
            buckets: Mutex::new(HashMap::new()),
            rate_per_sec: rate_per_sec.max(0.0),
            burst: burst.max(1.0),
        }
    }

    /// Charge one token to `tenant` at time `now_nanos`. `false` means
    /// the bucket is empty — reject, no token is taken.
    pub fn admit(&self, tenant: &str, now_nanos: u64) -> bool {
        if self.rate_per_sec == 0.0 {
            return true;
        }
        let mut buckets = self.buckets.lock();
        let bucket = buckets
            .entry(tenant.to_string())
            .or_insert(Bucket { tokens: self.burst, last_nanos: now_nanos });
        let dt = now_nanos.saturating_sub(bucket.last_nanos) as f64 * 1e-9;
        bucket.tokens = (bucket.tokens + dt * self.rate_per_sec).min(self.burst);
        bucket.last_nanos = bucket.last_nanos.max(now_nanos);
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tenants with live buckets.
    pub fn tenants(&self) -> usize {
        self.buckets.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn burst_then_refill() {
        let g = TenantGovernor::new(2.0, 3.0);
        // Burst of 3 at t=0, then empty.
        assert!(g.admit("a", 0));
        assert!(g.admit("a", 0));
        assert!(g.admit("a", 0));
        assert!(!g.admit("a", 0));
        // Half a second refills one token (2/sec).
        assert!(g.admit("a", SEC / 2));
        assert!(!g.admit("a", SEC / 2));
    }

    #[test]
    fn tenants_are_isolated() {
        let g = TenantGovernor::new(1.0, 1.0);
        assert!(g.admit("flooder", 0));
        for _ in 0..100 {
            assert!(!g.admit("flooder", 0), "flooder is out of tokens");
        }
        assert!(g.admit("quiet", 0), "other tenants keep their tokens");
        assert_eq!(g.tenants(), 2);
    }

    #[test]
    fn refill_caps_at_burst() {
        let g = TenantGovernor::new(1000.0, 2.0);
        assert!(g.admit("a", 0));
        // An hour later the bucket holds `burst`, not rate*3600.
        assert!(g.admit("a", 3600 * SEC));
        assert!(g.admit("a", 3600 * SEC));
        assert!(!g.admit("a", 3600 * SEC));
    }

    #[test]
    fn out_of_order_calls_never_credit_an_interval_twice() {
        // Tokens granted when each call drains the bucket at its time,
        // starting from an empty bucket at t=0: every token the refill
        // credited by the last call.
        let granted = |times: &[u64]| {
            let g = TenantGovernor::new(1.0, 100.0);
            while g.admit("a", 0) {}
            let mut n = 0;
            for &t in times {
                while g.admit("a", t * SEC) {
                    n += 1;
                }
            }
            n
        };
        assert_eq!(granted(&[5, 10, 11]), 11);
        // A late 5 s call must not rewind the clock, or the 11 s call
        // would be credited 5..10 s a second time.
        assert_eq!(granted(&[10, 5, 11]), 11);
    }

    #[test]
    fn zero_rate_disables_limiting() {
        let g = TenantGovernor::new(0.0, 1.0);
        for _ in 0..1000 {
            assert!(g.admit("anyone", 0));
        }
    }
}
