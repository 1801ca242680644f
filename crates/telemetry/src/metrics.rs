//! Typed metrics: monotonic counters, gauges, and log-scale histograms
//! with percentile queries. All handles are cheap `Arc` clones and all
//! updates are lock-free atomics, so hot paths (per-collective byte
//! counts, per-iteration timings) can record without contention.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonically increasing counter (events, bytes, invocations).
#[derive(Clone, Default, Debug)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge holding an `f64` (loss, learning rate, queue
/// depth). Stored as raw bits in an atomic.
#[derive(Clone, Debug)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }
}

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Log-scale bucket layout: `SUB` sub-buckets per octave (power of two),
/// covering 2^MIN_EXP .. 2^MAX_EXP. With 16 sub-buckets per octave the
/// worst-case relative error of a percentile estimate is 2^(1/16) - 1
/// ≈ 4.4%, comfortably inside the 5% the acceptance tests allow.
const SUB: f64 = 16.0;
const MIN_EXP: f64 = -30.0; // ~1e-9: below a nanosecond (in seconds)
const MAX_EXP: f64 = 34.0; // ~1.7e10: far above any duration or byte count
const NBUCKETS: usize = ((MAX_EXP - MIN_EXP) * SUB) as usize; // 1024

struct HistInner {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
}

/// Lock-free log-scale histogram over positive `f64` samples, with
/// percentile queries. Non-positive samples clamp into the lowest
/// bucket. Percentiles return the geometric midpoint of the selected
/// bucket, so their relative error is bounded by the bucket width
/// (≈4.4%), independent of the sample distribution.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistInner>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            inner: Arc::new(HistInner {
                buckets: (0..NBUCKETS).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
            }),
        }
    }
}

fn bucket_index(v: f64) -> usize {
    if !v.is_finite() || v <= 0.0 {
        return 0;
    }
    let idx = ((v.log2() - MIN_EXP) * SUB).floor();
    idx.clamp(0.0, (NBUCKETS - 1) as f64) as usize
}

fn bucket_midpoint(idx: usize) -> f64 {
    // Geometric midpoint of [2^(lo), 2^(lo + 1/SUB)).
    let lo = MIN_EXP + idx as f64 / SUB;
    (lo + 0.5 / SUB).exp2()
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, v: f64) {
        self.inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Estimate the `p`-th percentile (`p` in 0..=100). Returns 0 for an
    /// empty histogram. `p` is clamped into `[0, 100]` (a NaN `p` behaves
    /// like 0), `p ≤ 0` selects the lowest occupied bucket, `p ≥ 100` the
    /// highest, and a single-sample histogram answers every percentile
    /// with that sample's bucket midpoint.
    pub fn percentile(&self, p: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        // Nearest-rank: the sample at 1-based rank ceil(p/100 * n).
        // `.max(1.0)` also absorbs NaN (f64::max ignores it), so a NaN
        // `p` degrades to the first occupied bucket instead of garbage.
        let target = ((p.clamp(0.0, 100.0) / 100.0) * n as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (idx, b) in self.inner.buckets.iter().enumerate() {
            cumulative += b.load(Ordering::Relaxed);
            if cumulative >= target {
                return bucket_midpoint(idx);
            }
        }
        // Reachable when a concurrent `record` bumped `count` between our
        // load and the bucket walk; answer with the top occupied bucket.
        bucket_midpoint(NBUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::default();
        let c2 = c.clone();
        c.add(40);
        c2.inc();
        c2.inc();
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_last_write_wins() {
        let g = Gauge::default();
        g.set(1.5);
        g.set(-2.25);
        assert_eq!(g.get(), -2.25);
    }

    #[test]
    fn histogram_percentiles_within_bucket_error() {
        let h = Histogram::default();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 1000);
        for (p, expect) in [(50.0, 500.0), (95.0, 950.0), (99.0, 990.0)] {
            let got = h.percentile(p);
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.05, "p{p}: got {got}, want ~{expect} (rel {rel})");
        }
    }

    #[test]
    fn histogram_handles_empty_zero_and_extremes() {
        let h = Histogram::default();
        assert_eq!(h.percentile(50.0), 0.0);
        h.record(0.0);
        h.record(-3.0);
        h.record(f64::INFINITY);
        h.record(1e300); // clamps into top bucket
        assert_eq!(h.count(), 4);
        assert!(h.percentile(100.0) > 0.0);
    }

    #[test]
    fn percentile_edge_cases_pinned() {
        // Empty: every percentile is exactly 0, including weird p.
        let h = Histogram::default();
        for p in [-10.0, 0.0, 50.0, 100.0, 1e9, f64::NAN] {
            assert_eq!(h.percentile(p), 0.0, "empty hist, p={p}");
        }

        // Single sample: every percentile answers that sample's bucket
        // midpoint — the same value regardless of p.
        let h = Histogram::default();
        h.record(7.0);
        let mid = h.percentile(50.0);
        assert!((mid - 7.0).abs() / 7.0 < 0.05, "midpoint {mid} not ~7");
        for p in [-10.0, 0.0, 0.001, 99.999, 100.0, 250.0, f64::NAN] {
            assert_eq!(h.percentile(p), mid, "single sample, p={p}");
        }

        // Two well-separated samples: p≤0 pins to the low bucket,
        // p≥100 to the high bucket, and p=50 (rank ceil(0.5*2)=1) is
        // the low one under nearest-rank semantics.
        let h = Histogram::default();
        h.record(1.0);
        h.record(1024.0);
        let lo = h.percentile(0.0);
        let hi = h.percentile(100.0);
        assert!((lo - 1.0).abs() < 0.05, "p0 {lo} not ~1");
        assert!((hi - 1024.0).abs() / 1024.0 < 0.05, "p100 {hi} not ~1024");
        assert_eq!(h.percentile(-5.0), lo);
        assert_eq!(h.percentile(150.0), hi);
        assert_eq!(h.percentile(50.0), lo);
        assert_eq!(h.percentile(51.0), hi);
    }

    #[test]
    fn histogram_concurrent_records_count_exactly() {
        let h = Histogram::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        h.record(2.0);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert!((h.percentile(50.0) - 2.0).abs() / 2.0 < 0.05);
    }
}
