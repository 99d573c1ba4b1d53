//! Small measurement helpers: the clock-read cost, order statistics and
//! the process's peak resident set.

use std::hint::black_box;
use std::time::Instant;

/// Median of `values` (mean of the middle two for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Largest of `values`; 0 when empty.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Nearest-rank quantile of an ascending slice; 0 when empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median wall-clock ns per call of `op` over `batches` batches of
/// `per_batch` calls each.
pub fn ns_per_call(batches: usize, per_batch: usize, mut op: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_batch {
                op();
            }
            start.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&samples)
}

/// Cost of one `Instant::now()` read, ns. Every timed span pays about
/// one read beyond the work it brackets, so spans subtract this.
pub fn clock_read_ns() -> f64 {
    ns_per_call(7, 100_000, || {
        black_box(Instant::now());
    })
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(fastest(&[2.0, 4.0, 3.0]), 4.0);
        assert_eq!(fastest(&[]), 0.0);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&sorted, 0.5), 50);
        assert_eq!(quantile(&sorted, 0.99), 99);
        assert_eq!(quantile(&sorted, 1.0), 100);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn clock_and_rss_are_measurable() {
        let clock = clock_read_ns();
        assert!(clock > 0.0 && clock < 10_000.0, "clock read {clock} ns");
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
