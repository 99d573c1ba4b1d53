//! A simple fixed-width histogram for hop counts and latencies.

/// Histogram over `[0, buckets * width)` with an overflow bucket.
///
/// # Examples
///
/// ```
/// use adc_metrics::Histogram;
///
/// let mut h = Histogram::new(10, 1.0);
/// h.record(0.5);
/// h.record(3.2);
/// h.record(3.7);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.bucket_count(3), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    overflow: u64,
    width: f64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `buckets` buckets of width `width`.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero or `width` is not positive and finite.
    pub fn new(buckets: usize, width: f64) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        assert!(
            width.is_finite() && width > 0.0,
            "bucket width must be positive"
        );
        Histogram {
            counts: vec![0; buckets],
            overflow: 0,
            width,
            total: 0,
        }
    }

    /// Records one observation. Negative values count into bucket 0.
    pub fn record(&mut self, value: f64) {
        self.total += 1;
        let idx = (value.max(0.0) / self.width) as usize;
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Observations in bucket `i` (`[i*width, (i+1)*width)`).
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.counts.get(i).copied().unwrap_or(0)
    }

    /// Observations that exceeded the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Adds every observation of `other` into `self`.
    ///
    /// Exact for same-shape histograms: because both sides bucket on
    /// identical edges, merging the counts then taking a quantile equals
    /// recording the interleaved streams into one histogram, and merge is
    /// commutative.
    ///
    /// # Panics
    ///
    /// Panics if the histograms differ in bucket count or width.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "histogram bucket counts must match"
        );
        assert!(
            self.width.to_bits() == other.width.to_bits(),
            "histogram bucket widths must match"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.overflow += other.overflow;
        self.total += other.total;
    }

    /// Approximate quantile (0.0–1.0) by bucket midpoint; `None` when
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut cum = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some((i as f64 + 0.5) * self.width);
            }
        }
        // Overflow bucket: report the lower edge of the overflow range.
        Some(self.counts.len() as f64 * self.width)
    }

    /// Iterates `(bucket_lower_edge, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as f64 * self.width, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_buckets() {
        let mut h = Histogram::new(4, 2.0);
        h.record(0.0); // bucket 0
        h.record(1.9); // bucket 0
        h.record(2.0); // bucket 1
        h.record(7.9); // bucket 3
        h.record(8.0); // overflow
        assert_eq!(h.bucket_count(0), 2);
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.bucket_count(3), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn negative_values_clamp_to_zero() {
        let mut h = Histogram::new(2, 1.0);
        h.record(-3.0);
        assert_eq!(h.bucket_count(0), 1);
    }

    #[test]
    fn quantiles() {
        let mut h = Histogram::new(10, 1.0);
        for i in 0..10 {
            h.record(i as f64 + 0.1);
        }
        assert_eq!(h.quantile(0.0), Some(0.5));
        assert_eq!(h.quantile(0.5), Some(4.5));
        assert_eq!(h.quantile(1.0), Some(9.5));
        assert_eq!(Histogram::new(2, 1.0).quantile(0.5), None);
    }

    #[test]
    fn quantile_in_overflow_reports_range_edge() {
        let mut h = Histogram::new(2, 1.0);
        h.record(100.0);
        assert_eq!(h.quantile(0.5), Some(2.0));
    }

    #[test]
    fn merge_adds_counts_and_overflow() {
        let mut a = Histogram::new(4, 1.0);
        let mut b = Histogram::new(4, 1.0);
        a.record(0.5);
        a.record(10.0); // overflow
        b.record(0.7);
        b.record(2.5);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.bucket_count(0), 2);
        assert_eq!(a.bucket_count(2), 1);
        assert_eq!(a.overflow(), 1);
    }

    #[test]
    #[should_panic(expected = "bucket counts must match")]
    fn merge_rejects_shape_mismatch() {
        let mut a = Histogram::new(4, 1.0);
        a.merge(&Histogram::new(5, 1.0));
    }

    #[test]
    #[should_panic(expected = "widths must match")]
    fn merge_rejects_width_mismatch() {
        let mut a = Histogram::new(4, 1.0);
        a.merge(&Histogram::new(4, 2.0));
    }

    #[test]
    fn iter_yields_edges() {
        let h = Histogram::new(3, 0.5);
        let edges: Vec<f64> = h.iter().map(|(e, _)| e).collect();
        assert_eq!(edges, vec![0.0, 0.5, 1.0]);
    }
}
