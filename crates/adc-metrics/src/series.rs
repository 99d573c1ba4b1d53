//! Sampled time series, as plotted in the paper's Figures 11 and 12.

/// A named series of `(x, y)` points.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Series {
    /// Series name (used as a CSV column header).
    pub name: String,
    /// The sampled points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean of the y values, or `None` when empty.
    pub fn mean_y(&self) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        Some(self.points.iter().map(|&(_, y)| y).sum::<f64>() / self.points.len() as f64)
    }

    /// The final y value, or `None` when empty.
    pub fn last_y(&self) -> Option<f64> {
        self.points.last().map(|&(_, y)| y)
    }

    /// Mean of the y values over the trailing fraction `tail` of points
    /// (e.g. `0.25` = the last quarter), or `None` when empty.
    ///
    /// Useful for "steady-state" values that ignore a learning phase.
    pub fn tail_mean_y(&self, tail: f64) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        let tail = tail.clamp(0.0, 1.0);
        let n = ((self.points.len() as f64 * tail).ceil() as usize).max(1);
        let start = self.points.len() - n;
        Some(self.points[start..].iter().map(|&(_, y)| y).sum::<f64>() / n as f64)
    }
}

/// Records one y observation per x step but keeps only every `every`-th
/// point, so multi-million-request runs produce plottable series.
#[derive(Debug, Clone)]
pub struct Sampler {
    series: Series,
    every: u64,
    seen: u64,
}

impl Sampler {
    /// Creates a sampler that keeps every `every`-th observation.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn new(name: impl Into<String>, every: u64) -> Self {
        assert!(every > 0, "sampling interval must be positive");
        Sampler {
            series: Series::new(name),
            every,
            seen: 0,
        }
    }

    /// Observes a value at the next x position; records it if due.
    pub fn observe(&mut self, x: f64, y: f64) {
        self.seen += 1;
        if self.seen.is_multiple_of(self.every) {
            self.series.push(x, y);
        }
    }

    /// Number of observations seen (recorded or not).
    pub fn observations(&self) -> u64 {
        self.seen
    }

    /// Borrows the recorded series.
    pub fn series(&self) -> &Series {
        &self.series
    }

    /// Consumes the sampler, returning the recorded series.
    pub fn into_series(self) -> Series {
        self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_statistics() {
        let mut s = Series::new("hits");
        assert!(s.is_empty());
        assert_eq!(s.mean_y(), None);
        s.push(0.0, 1.0);
        s.push(1.0, 3.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.mean_y(), Some(2.0));
        assert_eq!(s.last_y(), Some(3.0));
    }

    #[test]
    fn tail_mean_takes_the_trailing_fraction() {
        let mut s = Series::new("x");
        for i in 0..10 {
            s.push(i as f64, i as f64);
        }
        // Last half: 5..9 → mean 7.
        assert_eq!(s.tail_mean_y(0.5), Some(7.0));
        // Degenerate fractions still take at least one point.
        assert_eq!(s.tail_mean_y(0.0), Some(9.0));
        assert_eq!(s.tail_mean_y(1.0), Some(4.5));
    }

    #[test]
    fn sampler_keeps_every_nth() {
        let mut s = Sampler::new("hits", 3);
        for i in 1..=9 {
            s.observe(i as f64, (i * 10) as f64);
        }
        let pts = &s.series().points;
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0], (3.0, 30.0));
        assert_eq!(pts[2], (9.0, 90.0));
        assert_eq!(s.observations(), 9);
    }

    #[test]
    #[should_panic(expected = "sampling interval must be positive")]
    fn zero_interval_rejected() {
        let _ = Sampler::new("x", 0);
    }
}
