//! Small statistics helpers: medians, nearest-rank percentiles and a
//! log-bucketed histogram for per-packet latencies.

/// Median of a sample (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of a sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Sub-buckets per power of two: values are kept within 1/128 of their
/// bucket, and each bucket also keeps the sum of its values so a
/// percentile reads as the mean of the values in its bucket rather than a
/// bucket edge.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;

/// A log-bucketed histogram of nanosecond samples.  It holds millions of
/// per-packet latencies in a few hundred kilobytes, so recording them does
/// not inflate the process's resident set.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    sums: Vec<f64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

impl Hist {
    pub fn new() -> Hist {
        let buckets = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;
        Hist {
            counts: vec![0; buckets],
            sums: vec![0.0; buckets],
            n: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let mantissa = (v >> (e - SUB_BITS)) & (SUB - 1);
        (SUB + u64::from(e - SUB_BITS) * SUB + mantissa) as usize
    }

    pub fn record(&mut self, v: u64) {
        let i = Hist::index(v);
        self.counts[i] += 1;
        self.sums[i] += v as f64;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (i, (&c, &v)) in other.counts.iter().zip(&other.sums).enumerate() {
            self.counts[i] += c;
            self.sums[i] += v;
        }
        self.n += other.n;
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.sums.fill(0.0);
        self.n = 0;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Nearest-rank percentile (`q` in 0..=1), as the mean of the samples
    /// sharing the rank's bucket.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!(self.n > 0, "percentile of an empty histogram");
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.sums[i] / c as f64;
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_stay_within_a_bucket() {
        let mut h = Hist::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let p50 = h.percentile(0.5);
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 1.0 / 64.0, "{p50}");
        let p99 = h.percentile(0.99);
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 1.0 / 64.0, "{p99}");
        assert_eq!(h.percentile(0.0), 1.0);
    }

    #[test]
    fn nearest_rank_and_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
    }
}
