//! Additional synthetic workloads beyond the Polygraph-like stream:
//! stationary Zipf traffic, uniform traffic, and a flash-crowd scenario.
//!
//! These exercise the same [`RequestRecord`] interface, so any of them can
//! drive the simulator, the examples or the benchmarks.

use crate::sizes::SizeModel;
use crate::trace::{Phase, RequestRecord};
use crate::zipf::Zipf;
use adc_core::{ClientId, ObjectId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stationary Zipf traffic over a fixed object universe.
///
/// # Examples
///
/// ```
/// use adc_workload::StationaryZipf;
///
/// let reqs: Vec<_> = StationaryZipf::new(1_000, 0.9, 4, 42).take(100).collect();
/// assert_eq!(reqs.len(), 100);
/// assert!(reqs.iter().all(|r| r.object.raw() < 1_000));
/// ```
#[derive(Debug, Clone)]
pub struct StationaryZipf {
    zipf: Zipf,
    rng: StdRng,
    clients: u32,
    seq: u64,
    size_model: SizeModel,
}

impl StationaryZipf {
    /// Creates an infinite Zipf stream over `universe` objects.
    ///
    /// # Panics
    ///
    /// Panics if `universe` or `clients` is zero, or `alpha` is invalid.
    pub fn new(universe: usize, alpha: f64, clients: u32, seed: u64) -> Self {
        assert!(clients > 0, "need at least one client");
        StationaryZipf {
            zipf: Zipf::new(universe, alpha),
            rng: StdRng::seed_from_u64(seed),
            clients,
            seq: 0,
            size_model: SizeModel::default(),
        }
    }
}

impl Iterator for StationaryZipf {
    type Item = RequestRecord;

    fn next(&mut self) -> Option<RequestRecord> {
        let object = ObjectId::new(self.zipf.sample(&mut self.rng) as u64);
        let record = RequestRecord {
            seq: self.seq,
            client: ClientId::new(self.rng.gen_range(0..self.clients)),
            object,
            size: self.size_model.size_of(object),
            phase: Phase::RequestI,
        };
        self.seq += 1;
        Some(record)
    }
}

/// Uniform traffic over a fixed object universe (the worst case for any
/// cache: no popularity signal at all).
#[derive(Debug, Clone)]
pub struct UniformWorkload {
    universe: u64,
    rng: StdRng,
    clients: u32,
    seq: u64,
    size_model: SizeModel,
}

impl UniformWorkload {
    /// Creates an infinite uniform stream over `universe` objects.
    ///
    /// # Panics
    ///
    /// Panics if `universe` or `clients` is zero.
    pub fn new(universe: u64, clients: u32, seed: u64) -> Self {
        assert!(universe > 0, "universe must be non-empty");
        assert!(clients > 0, "need at least one client");
        UniformWorkload {
            universe,
            rng: StdRng::seed_from_u64(seed),
            clients,
            seq: 0,
            size_model: SizeModel::default(),
        }
    }
}

impl Iterator for UniformWorkload {
    type Item = RequestRecord;

    fn next(&mut self) -> Option<RequestRecord> {
        let object = ObjectId::new(self.rng.gen_range(0..self.universe));
        let record = RequestRecord {
            seq: self.seq,
            client: ClientId::new(self.rng.gen_range(0..self.clients)),
            object,
            size: self.size_model.size_of(object),
            phase: Phase::RequestI,
        };
        self.seq += 1;
        Some(record)
    }
}

/// A flash-crowd scenario: stationary Zipf background traffic, except that
/// during `[burst_start, burst_end)` a fraction `burst_intensity` of all
/// requests target one single object (a breaking-news page).
///
/// This is the bottleneck situation the paper's earlier SOAP design could
/// not handle and that motivated selective caching.
#[derive(Debug, Clone)]
pub struct FlashCrowd {
    background: StationaryZipf,
    /// The suddenly popular object (outside the background universe).
    pub hot_object: ObjectId,
    burst_start: u64,
    burst_end: u64,
    burst_intensity: f64,
    rng: StdRng,
}

impl FlashCrowd {
    /// Creates a flash-crowd stream.
    ///
    /// # Panics
    ///
    /// Panics if `burst_intensity` is outside `[0, 1]` or the burst window
    /// is inverted.
    pub fn new(
        universe: usize,
        alpha: f64,
        clients: u32,
        seed: u64,
        burst_start: u64,
        burst_end: u64,
        burst_intensity: f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&burst_intensity),
            "burst intensity in [0,1]"
        );
        assert!(burst_start <= burst_end, "burst window inverted");
        FlashCrowd {
            background: StationaryZipf::new(universe, alpha, clients, seed),
            hot_object: ObjectId::new(u64::MAX - 1),
            burst_start,
            burst_end,
            burst_intensity,
            rng: StdRng::seed_from_u64(seed ^ 0xB00B_5EED),
        }
    }

    /// Returns `true` while `seq` lies inside the burst window.
    pub fn in_burst(&self, seq: u64) -> bool {
        (self.burst_start..self.burst_end).contains(&seq)
    }
}

impl Iterator for FlashCrowd {
    type Item = RequestRecord;

    fn next(&mut self) -> Option<RequestRecord> {
        let mut record = self.background.next()?;
        let seq = record.seq;
        if self.in_burst(seq) && self.rng.gen_bool(self.burst_intensity) {
            record.object = self.hot_object;
            record.size = self.background.size_model.size_of(self.hot_object);
        }
        Some(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_zipf_is_deterministic() {
        let a: Vec<_> = StationaryZipf::new(100, 0.8, 4, 1).take(50).collect();
        let b: Vec<_> = StationaryZipf::new(100, 0.8, 4, 1).take(50).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn uniform_covers_universe() {
        let objects: std::collections::BTreeSet<u64> = UniformWorkload::new(10, 2, 3)
            .take(1000)
            .map(|r| r.object.raw())
            .collect();
        assert_eq!(objects.len(), 10);
    }

    #[test]
    fn flash_crowd_spikes_inside_window() {
        let fc = FlashCrowd::new(1000, 0.8, 4, 9, 100, 200, 0.9);
        let hot = fc.hot_object;
        let records: Vec<_> = fc.take(300).collect();
        let in_burst = records[100..200].iter().filter(|r| r.object == hot).count();
        let outside = records[..100]
            .iter()
            .chain(&records[200..])
            .filter(|r| r.object == hot)
            .count();
        assert!(in_burst > 70, "burst too weak: {in_burst}");
        assert_eq!(outside, 0);
    }

    #[test]
    fn flash_crowd_window_helper() {
        let fc = FlashCrowd::new(10, 0.5, 1, 0, 5, 10, 0.5);
        assert!(!fc.in_burst(4));
        assert!(fc.in_burst(5));
        assert!(fc.in_burst(9));
        assert!(!fc.in_burst(10));
    }

    #[test]
    fn sequences_are_consecutive() {
        for (i, r) in StationaryZipf::new(10, 0.5, 1, 0).take(20).enumerate() {
            assert_eq!(r.seq, i as u64);
        }
    }
}

/// Zipf traffic whose hot set *rotates*: every `shift_every` requests the
/// popularity ranking moves to a fresh window of the object space, so
/// yesterday's hot objects go cold.
///
/// This is the scenario the paper's aging rule (Figure 4) exists for:
/// without aging, objects that were hot once keep their small recorded
/// average forever and can squat in the caching table.
#[derive(Debug, Clone)]
pub struct ShiftingZipf {
    zipf: Zipf,
    rng: StdRng,
    clients: u32,
    seq: u64,
    shift_every: u64,
    window: u64,
    size_model: SizeModel,
}

impl ShiftingZipf {
    /// Creates a stream over windows of `window_size` objects with Zipf
    /// popularity, shifting to a disjoint window every `shift_every`
    /// requests.
    ///
    /// # Panics
    ///
    /// Panics if `window_size`, `clients` or `shift_every` is zero, or
    /// `alpha` is invalid.
    pub fn new(window_size: usize, alpha: f64, clients: u32, seed: u64, shift_every: u64) -> Self {
        assert!(clients > 0, "need at least one client");
        assert!(shift_every > 0, "shift interval must be positive");
        ShiftingZipf {
            zipf: Zipf::new(window_size, alpha),
            rng: StdRng::seed_from_u64(seed),
            clients,
            seq: 0,
            shift_every,
            window: window_size as u64,
            size_model: SizeModel::default(),
        }
    }

    /// The index of the popularity window active at `seq`.
    pub fn window_of(&self, seq: u64) -> u64 {
        seq / self.shift_every
    }
}

impl Iterator for ShiftingZipf {
    type Item = RequestRecord;

    fn next(&mut self) -> Option<RequestRecord> {
        let rank = self.zipf.sample(&mut self.rng) as u64;
        let base = self.window_of(self.seq) * self.window;
        let object = ObjectId::new(base + rank);
        let record = RequestRecord {
            seq: self.seq,
            client: ClientId::new(self.rng.gen_range(0..self.clients)),
            object,
            size: self.size_model.size_of(object),
            phase: Phase::RequestI,
        };
        self.seq += 1;
        Some(record)
    }
}

#[cfg(test)]
mod shifting_tests {
    use super::*;

    #[test]
    fn windows_are_disjoint() {
        let s = ShiftingZipf::new(100, 0.9, 4, 1, 500);
        let records: Vec<_> = s.take(1500).collect();
        let w0: std::collections::BTreeSet<u64> =
            records[..500].iter().map(|r| r.object.raw()).collect();
        let w1: std::collections::BTreeSet<u64> =
            records[500..1000].iter().map(|r| r.object.raw()).collect();
        let w2: std::collections::BTreeSet<u64> =
            records[1000..].iter().map(|r| r.object.raw()).collect();
        assert!(w0.is_disjoint(&w1));
        assert!(w1.is_disjoint(&w2));
        assert!(w0.iter().all(|&o| o < 100));
        assert!(w1.iter().all(|&o| (100..200).contains(&o)));
    }

    #[test]
    fn window_of_boundaries() {
        let s = ShiftingZipf::new(10, 0.5, 1, 0, 100);
        assert_eq!(s.window_of(0), 0);
        assert_eq!(s.window_of(99), 0);
        assert_eq!(s.window_of(100), 1);
    }

    #[test]
    fn deterministic() {
        let a: Vec<_> = ShiftingZipf::new(50, 0.8, 3, 9, 200).take(400).collect();
        let b: Vec<_> = ShiftingZipf::new(50, 0.8, 3, 9, 200).take(400).collect();
        assert_eq!(a, b);
    }
}

/// An LRU-stack-model (LRUSM) workload: temporal locality without a
/// fixed popularity ranking, in the style of the Wisconsin Proxy
/// Benchmark the paper names as a future evaluation target.
///
/// With probability `recurrence` the next request re-references an
/// object already on the LRU stack, at a Zipf-distributed depth (so
/// recently used objects are the most likely to recur); otherwise it
/// introduces a brand-new object. Re-referenced objects move back to the
/// top of the stack.
#[derive(Debug, Clone)]
pub struct LruStackWorkload {
    stack: std::collections::VecDeque<ObjectId>,
    max_stack: usize,
    recurrence: f64,
    depth: Zipf,
    next_id: u64,
    rng: StdRng,
    clients: u32,
    seq: u64,
    size_model: SizeModel,
}

impl LruStackWorkload {
    /// Creates an LRU-stack stream.
    ///
    /// * `stack_depth` — how far back re-references can reach;
    /// * `recurrence` — fraction of requests that are re-references;
    /// * `depth_alpha` — Zipf exponent of the re-reference depth (larger
    ///   = more concentrated on the most recent objects).
    ///
    /// # Panics
    ///
    /// Panics if `stack_depth` or `clients` is zero, or `recurrence` is
    /// outside `[0, 1]`.
    pub fn new(
        stack_depth: usize,
        recurrence: f64,
        depth_alpha: f64,
        clients: u32,
        seed: u64,
    ) -> Self {
        assert!(stack_depth > 0, "stack depth must be positive");
        assert!((0.0..=1.0).contains(&recurrence), "recurrence in [0,1]");
        assert!(clients > 0, "need at least one client");
        LruStackWorkload {
            stack: std::collections::VecDeque::with_capacity(stack_depth),
            max_stack: stack_depth,
            recurrence,
            depth: Zipf::new(stack_depth, depth_alpha),
            next_id: 0,
            rng: StdRng::seed_from_u64(seed),
            clients,
            seq: 0,
            size_model: SizeModel::default(),
        }
    }

    /// Objects currently on the stack.
    pub fn stack_len(&self) -> usize {
        self.stack.len()
    }
}

impl Iterator for LruStackWorkload {
    type Item = RequestRecord;

    fn next(&mut self) -> Option<RequestRecord> {
        let recur = !self.stack.is_empty() && self.rng.gen_bool(self.recurrence);
        let object = if recur {
            let depth = self.depth.sample(&mut self.rng).min(self.stack.len() - 1);
            #[expect(
                clippy::expect_used,
                reason = "depth <= len - 1 by the min() above (stack is non-empty when recur is true)"
            )]
            let object = self.stack.remove(depth).expect("depth is in range");
            self.stack.push_front(object);
            object
        } else {
            let object = ObjectId::new(self.next_id);
            self.next_id += 1;
            self.stack.push_front(object);
            if self.stack.len() > self.max_stack {
                self.stack.pop_back();
            }
            object
        };
        let record = RequestRecord {
            seq: self.seq,
            client: ClientId::new(self.rng.gen_range(0..self.clients)),
            object,
            size: self.size_model.size_of(object),
            phase: Phase::RequestI,
        };
        self.seq += 1;
        Some(record)
    }
}

#[cfg(test)]
mod lru_stack_tests {
    use super::*;

    #[test]
    fn recurrence_ratio_matches_parameter() {
        let records: Vec<_> = LruStackWorkload::new(200, 0.6, 0.8, 4, 3)
            .take(20_000)
            .collect();
        let distinct: std::collections::BTreeSet<_> = records.iter().map(|r| r.object).collect();
        let measured = 1.0 - distinct.len() as f64 / records.len() as f64;
        assert!(
            (measured - 0.6).abs() < 0.03,
            "measured recurrence {measured}"
        );
    }

    #[test]
    fn recent_objects_recur_most() {
        // With a strong depth skew, re-references concentrate on the most
        // recently used objects: consecutive duplicates must exist.
        let records: Vec<_> = LruStackWorkload::new(100, 0.8, 1.5, 1, 9)
            .take(5_000)
            .collect();
        let immediate_repeats = records
            .windows(2)
            .filter(|w| w[0].object == w[1].object)
            .count();
        assert!(immediate_repeats > 100, "got {immediate_repeats}");
    }

    #[test]
    fn stack_is_bounded() {
        let mut w = LruStackWorkload::new(50, 0.3, 0.8, 2, 4);
        for _ in 0..5_000 {
            w.next();
            assert!(w.stack_len() <= 50);
        }
    }

    #[test]
    fn deterministic() {
        let a: Vec<_> = LruStackWorkload::new(50, 0.5, 1.0, 2, 7)
            .take(500)
            .collect();
        let b: Vec<_> = LruStackWorkload::new(50, 0.5, 1.0, 2, 7)
            .take(500)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "recurrence in [0,1]")]
    fn bad_recurrence_rejected() {
        let _ = LruStackWorkload::new(10, 1.5, 1.0, 1, 0);
    }
}
