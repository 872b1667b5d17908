//! Order statistics, the seeded input generator and the FNV digest.
//!
//! Every host-time figure in flexbench is the **5th percentile** of equal
//! samples and every spread is the inter-quartile range over the median;
//! every latency distribution is reported as its median plus the highest
//! percentile that still has at least ten samples beyond it.

/// Median of `values` (mean of the two middle values for an even count).
/// Empty input yields 0 so an absent layer reads as "no time spent".
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method, i.e. what Python's
/// `statistics.quantiles(values, n=4)` returns — the acceptance check for
/// this benchmark is stated in those terms, so the arithmetic must match.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n < 2 {
        let only = values.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Signed on purpose: a clamped `j` extrapolates, as Python does.
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Inter-quartile range as a share of the median, in percent.
pub fn iqr_pct(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    100.0 * (q3 - q1) / m
}

/// The nearest-rank 5th percentile of `values` (host times: lower is
/// faster). See `harness` for why not the median.
pub fn fast_p5(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[(0.05 * (v.len() as f64 - 1.0)).round() as usize]
}

/// Nearest-rank percentile (`p` in 0..=100) of an already sorted slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it in a sample of `n`; `None` when even p90 does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // (percentile, samples beyond it per 10 000): integers, so that
    // 10 000 samples do support p99.9.
    [
        (99.99, 1),
        (99.9, 10),
        (99.0, 100),
        (95.0, 500),
        (90.0, 1000),
    ]
    .into_iter()
    .find(|(_, beyond)| n * beyond >= 10 * 10_000)
    .map(|(p, _)| p)
}

/// Median, p99 and the best-supported tail of one latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Distribution {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: u64,
    /// 99th percentile (reported under a fixed name; trust it only when
    /// `n >= 1000`).
    pub p99: u64,
    /// `(percentile, value)` of the highest supported tail percentile.
    pub tail: Option<(f64, u64)>,
}

/// Summarises `samples` (sorted in place).
pub fn distribution(samples: &mut [u64]) -> Distribution {
    samples.sort_unstable();
    Distribution {
        n: samples.len(),
        p50: percentile_sorted(samples, 50.0),
        p99: percentile_sorted(samples, 99.0),
        tail: highest_supported_percentile(samples.len())
            .map(|p| (p, percentile_sorted(samples, p))),
    }
}

/// FNV-1a over a stream of `u64`s: the model fingerprint (`sim_digest`)
/// that must not move under a host-speed-only change.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one value in.
    pub fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a string in (length-prefixed so concatenations differ).
    pub fn push_str(&mut self, s: &str) {
        self.push(s.len() as u64);
        for b in s.bytes() {
            self.push(b as u64);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// SplitMix64: the benchmark's own input generator, so the inputs a seed
/// produces do not depend on any crate under test.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` mixed with a per-purpose `stream` id.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(
            seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93),
        )
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn iqr_is_a_share_of_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_pct(&v), 100.0 * (8.25 - 2.75) / 5.5);
        assert_eq!(iqr_pct(&[7.0]), 0.0);
        assert_eq!(iqr_pct(&[]), 0.0);
    }

    #[test]
    fn p5_stays_in_the_fast_mode_of_a_two_speed_host() {
        // 10 % of the segments at full speed, the rest 1.5x slower.
        let times: Vec<f64> = (0..100)
            .map(|i| if i % 10 == 0 { 1.0 } else { 1.5 })
            .collect();
        assert_eq!(fast_p5(&times), 1.0);
        assert_eq!(median(&times), 1.5);
        // Twenty-one set-ups: the second fastest, not the fastest.
        let setups: Vec<f64> = (1..=21).rev().map(f64::from).collect();
        assert_eq!(fast_p5(&setups), 2.0);
        assert_eq!(fast_p5(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn distribution_reports_median_tail_and_count() {
        let mut s: Vec<u64> = (1..=1000).rev().collect();
        let d = distribution(&mut s);
        assert_eq!(d.n, 1000);
        assert_eq!(d.p50, 501);
        assert_eq!(d.p99, 990);
        assert_eq!(d.tail, Some((99.0, 990)));
    }

    #[test]
    fn splitmix_is_a_function_of_seed_and_stream() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(7, 2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
