//! Deterministic per-object size assignment.
//!
//! Web object sizes are heavy-tailed; Polygraph's content model mixes
//! small HTML pages and images with a long tail of large downloads. We
//! assign each object a size drawn from a lognormal-like distribution,
//! *derived deterministically from the object ID*, so the same object
//! always has the same size in every run and every crate.

use adc_core::ObjectId;

/// Deterministic lognormal-ish size model.
///
/// # Examples
///
/// ```
/// use adc_workload::SizeModel;
/// use adc_core::ObjectId;
///
/// let model = SizeModel::default();
/// let a = model.size_of(ObjectId::new(42));
/// assert_eq!(a, model.size_of(ObjectId::new(42))); // stable
/// assert!(a >= 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeModel {
    /// Mean of the underlying normal (log of bytes).
    pub mu: f64,
    /// Standard deviation of the underlying normal.
    pub sigma: f64,
    /// Lower clamp in bytes.
    pub min_bytes: u32,
    /// Upper clamp in bytes.
    pub max_bytes: u32,
}

impl Default for SizeModel {
    /// Median ≈ 6 KiB with a tail out to 1 MiB — close to the classic
    /// proxy-trace mix.
    fn default() -> Self {
        SizeModel {
            mu: 8.7, // e^8.7 ≈ 6 KiB
            sigma: 1.2,
            min_bytes: 128,
            max_bytes: 1 << 20,
        }
    }
}

impl SizeModel {
    /// Returns the size in bytes for `object`, stable across calls.
    pub fn size_of(&self, object: ObjectId) -> u32 {
        // Two independent uniforms from the object ID via splitmix64.
        let u1 = to_unit(splitmix64(object.raw() ^ 0x9e37_79b9_7f4a_7c15));
        let u2 = to_unit(splitmix64(object.raw().wrapping_add(0x85eb_ca6b_27d4_eb4f)));
        // Box–Muller.
        let r = (-2.0 * u1.max(1e-12).ln()).sqrt();
        let z = r * (2.0 * std::f64::consts::PI * u2).cos();
        let bytes = (self.mu + self.sigma * z).exp();
        let clamped = bytes.clamp(self.min_bytes as f64, self.max_bytes as f64);
        clamped as u32
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn to_unit(x: u64) -> f64 {
    // 53 high bits → [0, 1).
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_stable() {
        let m = SizeModel::default();
        for i in 0..100 {
            assert_eq!(m.size_of(ObjectId::new(i)), m.size_of(ObjectId::new(i)));
        }
    }

    #[test]
    fn sizes_respect_clamps() {
        let m = SizeModel::default();
        for i in 0..10_000 {
            let s = m.size_of(ObjectId::new(i));
            assert!(s >= m.min_bytes && s <= m.max_bytes, "size {s}");
        }
    }

    #[test]
    fn distribution_is_heavy_tailed() {
        let m = SizeModel::default();
        let sizes: Vec<u32> = (0..50_000).map(|i| m.size_of(ObjectId::new(i))).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2] as f64;
        let mean = sizes.iter().map(|&s| s as f64).sum::<f64>() / sizes.len() as f64;
        // Lognormal: mean well above median.
        assert!(mean > 1.3 * median, "mean {mean}, median {median}");
        // Median in a plausible web-object band (2–20 KiB).
        assert!((2_000.0..20_000.0).contains(&median), "median {median}");
    }

    #[test]
    fn different_objects_get_varied_sizes() {
        let m = SizeModel::default();
        let distinct: std::collections::BTreeSet<u32> =
            (0..1000).map(|i| m.size_of(ObjectId::new(i))).collect();
        assert!(distinct.len() > 500);
    }
}
