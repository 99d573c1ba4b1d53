//! Streaming quantile estimation with the P² algorithm (Jain &
//! Chlamtac, 1985): O(1) memory, no sample buffer, good accuracy for
//! central and tail quantiles of smooth distributions.

/// A streaming estimator for one quantile `q` of an observation stream.
///
/// # Examples
///
/// ```
/// use adc_metrics::P2Quantile;
///
/// let mut median = P2Quantile::new(0.5);
/// for i in 1..=1001 {
///     median.push(i as f64);
/// }
/// let est = median.value().unwrap();
/// assert!((est - 501.0).abs() < 5.0, "estimated {est}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights (the 5 tracked order statistics).
    heights: [f64; 5],
    /// Actual marker positions (1-based observation ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired-position increments per observation.
    increments: [f64; 5],
    count: u64,
}

impl P2Quantile {
    /// Creates an estimator for quantile `q`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q < 1`.
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0, 1)");
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
        }
    }

    /// The tracked quantile.
    pub fn quantile(&self) -> f64 {
        self.q
    }

    /// Number of observations seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        if self.count < 5 {
            self.heights[self.count as usize] = value;
            self.count += 1;
            if self.count == 5 {
                self.heights.sort_unstable_by(|a, b| a.total_cmp(b));
            }
            return;
        }
        self.count += 1;

        // Find the cell the observation falls into and update extremes.
        let k = if value < self.heights[0] {
            self.heights[0] = value;
            0
        } else if value >= self.heights[4] {
            self.heights[4] = value;
            3
        } else {
            let mut k = 0;
            for i in 0..4 {
                if self.heights[i] <= value && value < self.heights[i + 1] {
                    k = i;
                    break;
                }
            }
            k
        };

        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments) {
            *d += inc;
        }

        // Adjust interior markers toward their desired positions.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right_gap = self.positions[i + 1] - self.positions[i];
            let left_gap = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let d = d.signum();
                let parabolic = self.parabolic(i, d);
                let new_height =
                    if self.heights[i - 1] < parabolic && parabolic < self.heights[i + 1] {
                        parabolic
                    } else {
                        self.linear(i, d)
                    };
                self.heights[i] = new_height;
                self.positions[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (h, n) = (&self.heights, &self.positions);
        h[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let (h, n) = (&self.heights, &self.positions);
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        h[i] + d * (h[j] - h[i]) / (n[j] - n[i])
    }

    /// The current estimate, or `None` before any observation.
    ///
    /// With fewer than five observations the exact sample quantile is
    /// returned.
    pub fn value(&self) -> Option<f64> {
        match self.count {
            0 => None,
            n if n < 5 => {
                let mut seen: Vec<f64> = self.heights[..n as usize].to_vec();
                seen.sort_unstable_by(|a, b| a.total_cmp(b));
                let idx = ((n as f64 - 1.0) * self.q).round() as usize;
                Some(seen[idx])
            }
            _ => Some(self.heights[2]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic pseudo-random stream (splitmix64 → uniform).
    fn uniform_stream(n: usize, seed: u64) -> Vec<f64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                (z >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    fn exact_quantile(data: &[f64], q: f64) -> f64 {
        let mut sorted = data.to_vec();
        sorted.sort_unstable_by(|a, b| a.total_cmp(b));
        sorted[((sorted.len() as f64 - 1.0) * q).round() as usize]
    }

    #[test]
    fn empty_has_no_value() {
        assert_eq!(P2Quantile::new(0.5).value(), None);
    }

    #[test]
    fn small_samples_are_exact() {
        let mut p = P2Quantile::new(0.5);
        p.push(3.0);
        assert_eq!(p.value(), Some(3.0));
        p.push(1.0);
        p.push(2.0);
        assert_eq!(p.value(), Some(2.0));
    }

    #[test]
    fn median_of_uniform() {
        let data = uniform_stream(50_000, 7);
        let mut p = P2Quantile::new(0.5);
        for &v in &data {
            p.push(v);
        }
        let est = p.value().unwrap();
        let exact = exact_quantile(&data, 0.5);
        assert!((est - exact).abs() < 0.02, "est {est} vs exact {exact}");
    }

    #[test]
    fn p99_of_uniform() {
        let data = uniform_stream(50_000, 13);
        let mut p = P2Quantile::new(0.99);
        for &v in &data {
            p.push(v);
        }
        let est = p.value().unwrap();
        let exact = exact_quantile(&data, 0.99);
        assert!((est - exact).abs() < 0.02, "est {est} vs exact {exact}");
    }

    #[test]
    fn skewed_distribution() {
        // Exponential-ish via -ln(u).
        let data: Vec<f64> = uniform_stream(50_000, 21)
            .into_iter()
            .map(|u| -(u.max(1e-12)).ln())
            .collect();
        let mut p = P2Quantile::new(0.9);
        for &v in &data {
            p.push(v);
        }
        let est = p.value().unwrap();
        let exact = exact_quantile(&data, 0.9);
        assert!(
            (est - exact).abs() / exact < 0.1,
            "est {est} vs exact {exact}"
        );
    }

    #[test]
    fn monotone_input_is_handled() {
        let mut p = P2Quantile::new(0.5);
        for i in 0..10_000 {
            p.push(i as f64);
        }
        let est = p.value().unwrap();
        assert!((est - 5_000.0).abs() < 200.0, "est {est}");
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0, 1)")]
    fn rejects_degenerate_quantile() {
        let _ = P2Quantile::new(1.0);
    }
}
