//! Bounded, mergeable telemetry: a log-linear latency histogram.
//!
//! One fixed bucket layout serves every histogram, so any two merge by
//! adding counts. Values below 256 are exact; above that a value keeps its
//! 8 most significant bits, so a bucket `[lower, upper]` spans less than
//! `lower / 128`. `count`, `sum`, `min` and `max` are exact. Only the
//! buckets a value hit are stored, so an empty histogram allocates nothing
//! and a sparse one costs a few hundred bytes whatever it counted. A
//! [`Series`] keeps one histogram per time slot in a single buffer.

use std::ops::Range;

/// Significant bits a value keeps in its bucket.
const SIGNIFICANT_BITS: u32 = 8;
/// Buckets per power of two above the exact range: `2^(SIGNIFICANT_BITS − 1)`.
const SUB_BUCKETS: u64 = 1 << (SIGNIFICANT_BITS - 1);
/// Buckets in the layout: 256 exact values, then 128 for each of the 56
/// powers of two from `2^8` to `2^63`.
const BUCKETS: usize =
    (1 << SIGNIFICANT_BITS) + (64 - SIGNIFICANT_BITS as usize) * SUB_BUCKETS as usize;
const _: () = assert!(BUCKETS <= 1 << u16::BITS, "a bucket index fits a u16");

/// The bucket that holds `v`. A value below 256 is its own bucket; above,
/// the bucket is the octave's shift and the value's top 8 bits.
#[inline]
fn bucket_of(v: u64) -> u16 {
    let shift = (u64::BITS - v.leading_zeros()).saturating_sub(SIGNIFICANT_BITS);
    ((u64::from(shift) * SUB_BUCKETS) + (v >> shift)) as u16
}

/// The smallest value in bucket `b`.
fn bucket_lower(b: u16) -> u64 {
    let shift = (u64::from(b) / SUB_BUCKETS).saturating_sub(1);
    (u64::from(b) - shift * SUB_BUCKETS) << shift
}

/// The largest value in bucket `b`.
fn bucket_upper(b: u16) -> u64 {
    let shift = (u64::from(b) / SUB_BUCKETS).saturating_sub(1);
    bucket_lower(b) + ((1u64 << shift) - 1)
}

/// The exact part of a histogram: how many values, their sum, the extremes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stats {
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Stats {
    fn default() -> Stats {
        Stats {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Stats {
    #[inline]
    fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn merge(&mut self, other: &Stats) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Adds `n` to bucket `b` of the sorted run `buckets[lo..hi]`, inserting
/// the bucket in its place if the run lacks it; returns whether it did.
#[inline]
fn add(buckets: &mut Vec<(u16, u64)>, lo: usize, hi: usize, b: u16, n: u64) -> bool {
    match buckets[lo..hi].binary_search_by_key(&b, |&(i, _)| i) {
        Ok(i) => {
            buckets[lo + i].1 += n;
            false
        }
        Err(i) => {
            buckets.insert(lo + i, (b, n));
            true
        }
    }
}

/// A log-linear histogram of `u64` values (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// `(bucket, count)` of every bucket hit, in bucket order.
    buckets: Vec<(u16, u64)>,
    stats: Stats,
}

impl Histogram {
    /// Counts one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let len = self.buckets.len();
        add(&mut self.buckets, 0, len, bucket_of(v), 1);
        self.stats.record(v);
    }

    /// Adds every value `other` counted, as if each had been recorded here.
    pub fn merge(&mut self, other: &Histogram) {
        self.merge_parts(&other.buckets, &other.stats);
    }

    fn merge_parts(&mut self, buckets: &[(u16, u64)], stats: &Stats) {
        for &(b, n) in buckets {
            let len = self.buckets.len();
            add(&mut self.buckets, 0, len, b, n);
        }
        self.stats.merge(stats);
    }

    /// Values counted.
    pub fn count(&self) -> u64 {
        self.stats.count
    }

    /// The exact sum of the values counted.
    pub fn sum(&self) -> u128 {
        self.stats.sum
    }

    /// The smallest value counted, `None` if none.
    pub fn min(&self) -> Option<u64> {
        (self.stats.count > 0).then_some(self.stats.min)
    }

    /// The largest value counted, `None` if none.
    pub fn max(&self) -> Option<u64> {
        (self.stats.count > 0).then_some(self.stats.max)
    }

    /// The exact mean, rounded down; `None` if nothing was counted.
    pub fn mean(&self) -> Option<u64> {
        (self.stats.sum.checked_div(u128::from(self.stats.count))).map(|m| m as u64)
    }

    /// `(lowest value of the bucket, count)` of every bucket hit, in
    /// ascending order: the whole shape, for fingerprints.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().map(|&(b, n)| (bucket_lower(b), n))
    }

    /// The `p`-th percentile (`p` in [0, 100]): the upper bound of the
    /// bucket holding rank `round(p% × (count − 1))` of the sorted values,
    /// capped at `max`. Never below the exact answer and less than 1/128
    /// above it; exact below 256, at p100, and when all values are equal.
    /// `None` if nothing was counted.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        let last = self.stats.count.checked_sub(1)?;
        let rank = (((p / 100.0) * last as f64).round() as u64).min(last);
        let mut seen = 0;
        let (b, _) = self.buckets.iter().find(|&&(_, n)| {
            seen += n;
            seen > rank
        })?;
        Some(bucket_upper(*b).min(self.stats.max))
    }
}

/// One histogram per slot of a sequence (of time, say), their buckets
/// back to back in one buffer: opening a slot allocates nothing of its
/// own, and a slot costs its exact stats and the buckets it hit. Counting
/// into the last slot touches only the buffer's tail; counting into an
/// earlier one shifts the buckets of the slots after it.
#[derive(Debug, Clone, Default)]
pub struct Series {
    buckets: Vec<(u16, u64)>,
    /// Per slot, in order: where its buckets start in `buckets`, and its
    /// stats.
    slots: Vec<(usize, Stats)>,
}

impl Series {
    /// Inserts an empty slot at index `i`, before the slot that held it;
    /// `i` equal to the number of slots appends one.
    pub fn insert(&mut self, i: usize) {
        let start = self.slots.get(i).map_or(self.buckets.len(), |&(s, _)| s);
        self.slots.insert(i, (start, Stats::default()));
    }

    /// Where slot `i`'s buckets lie in `buckets`.
    #[inline]
    fn run(&self, i: usize) -> (usize, usize) {
        let end = self
            .slots
            .get(i + 1)
            .map_or(self.buckets.len(), |&(s, _)| s);
        (self.slots[i].0, end)
    }

    /// Counts `v` in slot `i`.
    #[inline]
    pub fn record(&mut self, i: usize, v: u64) {
        let (lo, hi) = self.run(i);
        if add(&mut self.buckets, lo, hi, bucket_of(v), 1) {
            self.slots[i + 1..].iter_mut().for_each(|(s, _)| *s += 1);
        }
        self.slots[i].1.record(v);
    }

    /// Values counted in slot `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.slots[i].1.count
    }

    /// Adds every value counted in the slots of `slots` into `into`.
    pub fn merge_into(&self, slots: Range<usize>, into: &mut Histogram) {
        for i in slots {
            let (lo, hi) = self.run(i);
            into.merge_parts(&self.buckets[lo..hi], &self.slots[i].1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_layout_is_exact_below_256_and_finer_than_a_128th_above() {
        for v in 0..256 {
            assert_eq!(bucket_of(v), v as u16);
            assert_eq!((bucket_lower(v as u16), bucket_upper(v as u16)), (v, v));
        }
        assert_eq!(bucket_of(256), 256);
        assert_eq!(bucket_of(u64::MAX) as usize, BUCKETS - 1);
        assert_eq!(bucket_upper((BUCKETS - 1) as u16), u64::MAX);
        for b in 0..BUCKETS as u16 {
            let (lo, hi) = (bucket_lower(b), bucket_upper(b));
            assert!(lo <= hi, "bucket {b}");
            assert!(128 * (hi - lo) < lo.max(1), "bucket {b}: [{lo}, {hi}]");
            assert_eq!((bucket_of(lo), bucket_of(hi)), (b, b), "bucket {b}");
            if b > 0 {
                assert_eq!(
                    bucket_upper(b - 1) + 1,
                    lo,
                    "bucket {b} follows its predecessor"
                );
            }
        }
    }

    /// The rank rule a full sort applies: `round(p% × (len − 1))`, clamped.
    fn by_sorting(samples: &[u64], p: f64) -> Option<u64> {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
        sorted
            .get(rank.min(sorted.len().saturating_sub(1)))
            .copied()
    }

    fn of(samples: &[u64]) -> Histogram {
        let mut h = Histogram::default();
        samples.iter().for_each(|&v| h.record(v));
        h
    }

    /// Seeded vectors of lengths 0 to 1000; `% 7` forces heavy ties.
    fn vectors() -> Vec<Vec<u64>> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut vectors: Vec<Vec<u64>> = vec![vec![], vec![42], vec![5; 100], vec![31_510; 50]];
        for len in [2usize, 3, 10, 101, 1000] {
            vectors.push((0..len).map(|_| next() % 1_000_000).collect());
            vectors.push((0..len).map(|_| next() % 7).collect());
            vectors.push((0..len).map(|_| 30_000 + next() % 5_000).collect());
            vectors.push((0..len).map(|_| next() >> (next() % 64)).collect());
        }
        vectors
    }

    const PS: [f64; 8] = [0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0];

    #[test]
    fn percentiles_are_the_sorted_answers_bucket_upper_bound_capped_at_max() {
        for samples in &vectors() {
            let h = of(samples);
            for p in PS {
                let want = by_sorting(samples, p)
                    .map(|v| bucket_upper(bucket_of(v)).min(*samples.iter().max().unwrap()));
                assert_eq!(h.percentile(p), want, "p{p} of {} samples", samples.len());
                if let (Some(got), Some(exact)) = (h.percentile(p), by_sorting(samples, p)) {
                    assert!(got >= exact && 128 * (got - exact) < exact.max(1));
                }
            }
            assert_eq!(h.percentile(100.0), samples.iter().max().copied());
            assert_eq!(h.count(), samples.len() as u64);
            assert_eq!(
                h.sum(),
                samples.iter().map(|&v| u128::from(v)).sum::<u128>()
            );
            assert_eq!(h.min(), samples.iter().min().copied());
            assert_eq!(h.max(), samples.iter().max().copied());
            let mean = (!samples.is_empty()).then(|| (h.sum() / samples.len() as u128) as u64);
            assert_eq!(h.mean(), mean);
        }
    }

    #[test]
    fn equal_values_read_exactly() {
        for v in [0, 255, 256, 31_511, 862_113, u64::MAX] {
            let h = of(&[v; 9]);
            for p in PS {
                assert_eq!(h.percentile(p), Some(v));
            }
        }
    }

    #[test]
    fn a_merge_equals_recording_the_union() {
        let vs = vectors();
        for (a, b) in vs.iter().zip(vs.iter().rev()) {
            let mut merged = of(a);
            merged.merge(&of(b));
            let union: Vec<u64> = a.iter().chain(b).copied().collect();
            let whole = of(&union);
            assert_eq!(merged, whole);
            assert_eq!(
                (merged.count(), merged.sum(), merged.min(), merged.max()),
                (whole.count(), whole.sum(), whole.min(), whole.max())
            );
            for p in PS {
                assert_eq!(merged.percentile(p), whole.percentile(p));
            }
        }
    }

    #[test]
    fn an_empty_histogram_answers_none_and_holds_nothing() {
        let h = Histogram::default();
        assert_eq!(h.buckets.capacity(), 0);
        for p in PS {
            assert_eq!(h.percentile(p), None);
        }
        assert_eq!(
            (h.min(), h.max(), h.mean(), h.count()),
            (None, None, None, 0)
        );
        let mut merged = Histogram::default();
        merged.merge(&h);
        assert_eq!(merged, h);
    }

    #[test]
    fn a_series_slot_reads_as_its_own_histogram() {
        // Seeded slot openings (appended, or inserted before any slot) and
        // values counted into random slots, the last one most of the time;
        // every slot range must merge to what separate histograms give.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut series = Series::default();
        let mut model: Vec<Histogram> = Vec::new();
        for step in 0..20_000u64 {
            let r = next();
            if model.is_empty() || r % 50 == 0 {
                let i = if r % 3 == 0 {
                    next() as usize % (model.len() + 1)
                } else {
                    model.len()
                };
                series.insert(i);
                model.insert(i, Histogram::default());
                continue;
            }
            let i = if r % 4 == 0 {
                next() as usize % model.len()
            } else {
                model.len() - 1
            };
            let v = 30_000 + next() % (1 + step);
            series.record(i, v);
            model[i].record(v);
            if step % 997 == 0 {
                for (i, h) in model.iter().enumerate() {
                    assert_eq!(series.count(i), h.count());
                }
                let (a, b) = (next() as usize % model.len(), next() as usize % model.len());
                let (lo, hi) = (a.min(b), a.max(b) + 1);
                let mut merged = Histogram::default();
                series.merge_into(lo..hi, &mut merged);
                let mut want = Histogram::default();
                model[lo..hi].iter().for_each(|h| want.merge(h));
                assert_eq!(merged, want, "slots {lo}..{hi} at step {step}");
            }
        }
        let mut all = Histogram::default();
        series.merge_into(0..model.len(), &mut all);
        let mut want = Histogram::default();
        model.iter().for_each(|h| want.merge(h));
        assert_eq!(all, want);
    }
}
