//! A Web-Polygraph-like synthetic request stream (the paper's §V.1.6).
//!
//! The paper drove its experiments with a ~3.99-million-request file
//! created by the Polygraph benchmarking tool, "divided into three
//! phases. Phase 1 with around 1.0 million requests covers a simple fill
//! phase with almost no request repetitions. Phase 2 with around 1.5
//! million requests offers requests and repeats itself in Phase 3."
//!
//! Polygraph itself is a live client/server benchmarking rig that cannot
//! be pointed at a simulator, so this module reproduces the *shape* of its
//! stream instead:
//!
//! * **Fill** — (almost) every request introduces a brand-new object;
//!   a small configurable recurrence fraction re-requests a uniform
//!   earlier object.
//! * **Request phase I** — with probability `recurrence` the request
//!   draws from a fixed *hot set* with Zipf-like popularity (per Breslau
//!   et al.); otherwise it introduces a new one-timer object.
//! * **Request phase II** — an exact replay of phase I's object sequence
//!   (the generator re-runs the identical RNG stream), mirroring
//!   "repeats itself in Phase 3".
//!
//! Everything is deterministic in `seed`.

use crate::sizes::SizeModel;
use crate::trace::{Phase, RequestRecord};
use crate::zipf::Zipf;
use adc_core::{ClientId, ObjectId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the Polygraph-like generator.
#[derive(Debug, Clone, PartialEq)]
pub struct PolygraphConfig {
    /// Requests in the fill phase (paper: ~1.0 M).
    pub fill_requests: u64,
    /// Requests in each of the two request phases (paper: ~1.5 M).
    pub phase_requests: u64,
    /// Number of distinct popular objects the request phases draw from.
    pub hot_set: usize,
    /// Fraction of request-phase requests that hit the hot set; the rest
    /// are one-timer objects (this bounds the achievable hit rate).
    pub recurrence: f64,
    /// Fraction of fill-phase requests that repeat an earlier object
    /// ("almost no request repetitions").
    pub fill_recurrence: f64,
    /// Zipf exponent for hot-set popularity.
    pub zipf_alpha: f64,
    /// Number of distinct clients issuing requests.
    pub clients: u32,
    /// Master seed; a run is a pure function of this configuration.
    pub seed: u64,
    /// When `true` (the paper's shape), phase II replays phase I's object
    /// sequence exactly; when `false` it re-samples the same process.
    pub exact_replay: bool,
    /// Size assignment for generated objects.
    pub size_model: SizeModel,
}

impl Default for PolygraphConfig {
    fn default() -> Self {
        Self::paper_scale()
    }
}

impl PolygraphConfig {
    /// The paper's full scale: 1.0 M fill + 2 × 1.495 M request phases =
    /// 3.99 M requests.
    ///
    /// The hot set matches the paper's default caching-table size (10 k):
    /// calibration against the paper's Figure 13 shows that is the regime
    /// it reports — the hit rate plateaus at ≈ 0.7 once the caching table
    /// reaches 10 k entries and gains nothing beyond, which requires the
    /// recurrent working set to be ≈ one caching table.
    pub fn paper_scale() -> Self {
        PolygraphConfig {
            fill_requests: 1_000_000,
            phase_requests: 1_495_000,
            hot_set: 10_000,
            recurrence: 0.72,
            fill_recurrence: 0.02,
            zipf_alpha: 0.8,
            clients: 100,
            seed: 0x5EED_ADC0,
            exact_replay: true,
            size_model: SizeModel::default(),
        }
    }

    /// A proportionally shrunken workload: request counts and the hot set
    /// scale by `factor`, everything else is untouched. Useful for tests
    /// and CI-scale benchmark runs.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < factor <= 1`.
    pub fn scaled(factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "scale factor must be in (0, 1]"
        );
        let base = Self::paper_scale();
        PolygraphConfig {
            fill_requests: ((base.fill_requests as f64 * factor) as u64).max(1),
            phase_requests: ((base.phase_requests as f64 * factor) as u64).max(1),
            hot_set: ((base.hot_set as f64 * factor) as usize).max(1),
            ..base
        }
    }

    /// Total requests the generator will produce.
    pub fn total_requests(&self) -> u64 {
        self.fill_requests + 2 * self.phase_requests
    }

    /// Generates the whole stream once into a [`crate::SharedTrace`] that
    /// many simulation runs can iterate over without regenerating it.
    pub fn materialize(&self) -> crate::SharedTrace {
        self.build().collect()
    }

    /// The phase a given global sequence number falls into.
    pub fn phase_of(&self, seq: u64) -> Phase {
        if seq < self.fill_requests {
            Phase::Fill
        } else if seq < self.fill_requests + self.phase_requests {
            Phase::RequestI
        } else {
            Phase::RequestII
        }
    }

    /// Builds the request iterator.
    ///
    /// # Panics
    ///
    /// Panics if probabilities are outside `[0, 1]`, `clients` is zero or
    /// `hot_set` is zero.
    pub fn build(&self) -> Polygraph {
        assert!(
            (0.0..=1.0).contains(&self.recurrence),
            "recurrence in [0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.fill_recurrence),
            "fill_recurrence in [0,1]"
        );
        assert!(self.clients > 0, "need at least one client");
        assert!(self.hot_set > 0, "need a non-empty hot set");
        Polygraph {
            zipf: Zipf::new(self.hot_set, self.zipf_alpha),
            rng_fill: StdRng::seed_from_u64(self.seed ^ FILL_SALT),
            rng_phase: StdRng::seed_from_u64(self.seed ^ PHASE_SALT),
            rng_client: StdRng::seed_from_u64(self.seed ^ CLIENT_SALT),
            seq: 0,
            next_id: 0,
            phase_start_id: 0,
            config: self.clone(),
        }
    }
}

const FILL_SALT: u64 = 0x1656_67b1_9e37_79f9;
const PHASE_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
const CLIENT_SALT: u64 = 0xc2b2_ae35_07a1_663d;

/// The Polygraph-like request iterator; see [`PolygraphConfig::build`].
#[derive(Debug, Clone)]
pub struct Polygraph {
    config: PolygraphConfig,
    zipf: Zipf,
    rng_fill: StdRng,
    rng_phase: StdRng,
    rng_client: StdRng,
    seq: u64,
    next_id: u64,
    phase_start_id: u64,
}

impl Polygraph {
    /// Total number of requests this iterator will yield.
    pub fn total_requests(&self) -> u64 {
        self.config.total_requests()
    }

    /// Borrows the configuration.
    pub fn config(&self) -> &PolygraphConfig {
        &self.config
    }

    fn next_object(&mut self, phase: Phase) -> ObjectId {
        match phase {
            Phase::Fill => {
                let repeat =
                    self.next_id > 0 && self.rng_fill.gen_bool(self.config.fill_recurrence);
                if repeat {
                    ObjectId::new(self.rng_fill.gen_range(0..self.next_id))
                } else {
                    let id = self.next_id;
                    self.next_id += 1;
                    ObjectId::new(id)
                }
            }
            Phase::RequestI | Phase::RequestII => {
                if self.rng_phase.gen_bool(self.config.recurrence) {
                    ObjectId::new(self.zipf.sample(&mut self.rng_phase) as u64)
                } else {
                    let id = self.next_id;
                    self.next_id += 1;
                    ObjectId::new(id)
                }
            }
        }
    }
}

impl Iterator for Polygraph {
    type Item = RequestRecord;

    fn next(&mut self) -> Option<RequestRecord> {
        if self.seq >= self.config.total_requests() {
            return None;
        }
        let phase = self.config.phase_of(self.seq);

        // Phase transitions.
        if self.seq == self.config.fill_requests {
            // Entering request phase I: keep new-object IDs clear of the
            // hot-set ID range and remember the state for the replay.
            self.next_id = self.next_id.max(self.config.hot_set as u64);
            self.phase_start_id = self.next_id;
        } else if self.seq == self.config.fill_requests + self.config.phase_requests
            && self.config.exact_replay
        {
            // Entering request phase II: rewind the phase RNG and the
            // object counter so the object sequence replays exactly.
            self.rng_phase = StdRng::seed_from_u64(self.config.seed ^ PHASE_SALT);
            self.next_id = self.phase_start_id;
        }

        let object = self.next_object(phase);
        let client = ClientId::new(self.rng_client.gen_range(0..self.config.clients));
        let record = RequestRecord {
            seq: self.seq,
            client,
            object,
            size: self.config.size_model.size_of(object),
            phase,
        };
        self.seq += 1;
        Some(record)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.config.total_requests() - self.seq) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Polygraph {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn tiny() -> PolygraphConfig {
        PolygraphConfig {
            fill_requests: 1_000,
            phase_requests: 2_000,
            hot_set: 100,
            recurrence: 0.7,
            fill_recurrence: 0.02,
            zipf_alpha: 0.8,
            clients: 10,
            seed: 7,
            exact_replay: true,
            size_model: SizeModel::default(),
        }
    }

    #[test]
    fn produces_exactly_total_requests() {
        let cfg = tiny();
        let records: Vec<_> = cfg.build().collect();
        assert_eq!(records.len() as u64, cfg.total_requests());
        assert_eq!(records.len(), cfg.build().len());
        // Sequence numbers are consecutive.
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
    }

    #[test]
    fn phases_are_tagged_correctly() {
        let cfg = tiny();
        let records: Vec<_> = cfg.build().collect();
        assert!(records[..1000].iter().all(|r| r.phase == Phase::Fill));
        assert!(records[1000..3000]
            .iter()
            .all(|r| r.phase == Phase::RequestI));
        assert!(records[3000..].iter().all(|r| r.phase == Phase::RequestII));
    }

    #[test]
    fn fill_phase_has_few_repetitions() {
        let cfg = tiny();
        let fill: Vec<_> = cfg.build().take(1000).collect();
        let distinct: std::collections::BTreeSet<_> = fill.iter().map(|r| r.object).collect();
        assert!(
            distinct.len() >= 950,
            "fill should be nearly all unique, got {}",
            distinct.len()
        );
    }

    #[test]
    fn request_phase_recurrence_matches_config() {
        let cfg = tiny();
        let records: Vec<_> = cfg.build().collect();
        let phase1 = &records[1000..3000];
        let hot = phase1
            .iter()
            .filter(|r| r.object.raw() < cfg.hot_set as u64)
            .count();
        let frac = hot as f64 / phase1.len() as f64;
        assert!(
            (frac - cfg.recurrence).abs() < 0.05,
            "hot fraction {frac} vs configured {}",
            cfg.recurrence
        );
    }

    #[test]
    fn phase_two_replays_phase_one_objects() {
        let cfg = tiny();
        let records: Vec<_> = cfg.build().collect();
        let p1: Vec<_> = records[1000..3000].iter().map(|r| r.object).collect();
        let p2: Vec<_> = records[3000..5000].iter().map(|r| r.object).collect();
        assert_eq!(p1, p2);
    }

    #[test]
    fn without_replay_phases_differ_but_share_hot_set() {
        let cfg = PolygraphConfig {
            exact_replay: false,
            ..tiny()
        };
        let records: Vec<_> = cfg.build().collect();
        let p1: Vec<_> = records[1000..3000].iter().map(|r| r.object).collect();
        let p2: Vec<_> = records[3000..5000].iter().map(|r| r.object).collect();
        assert_ne!(p1, p2);
        // New objects in phase II must not collide with phase I's.
        let news1: std::collections::BTreeSet<_> = p1
            .iter()
            .filter(|o| o.raw() >= cfg.hot_set as u64)
            .collect();
        let news2: std::collections::BTreeSet<_> = p2
            .iter()
            .filter(|o| o.raw() >= cfg.hot_set as u64)
            .collect();
        assert!(news1.is_disjoint(&news2));
    }

    #[test]
    fn deterministic_in_seed() {
        let cfg = tiny();
        let a: Vec<_> = cfg.build().collect();
        let b: Vec<_> = cfg.build().collect();
        assert_eq!(a, b);
        let c: Vec<_> = PolygraphConfig { seed: 8, ..tiny() }.build().collect();
        assert_ne!(a, c);
    }

    #[test]
    fn popularity_is_zipf_skewed() {
        let cfg = tiny();
        let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
        for r in cfg.build().skip(1000) {
            if r.object.raw() < cfg.hot_set as u64 {
                *counts.entry(r.object.raw()).or_default() += 1;
            }
        }
        let top = counts.get(&0).copied().unwrap_or(0);
        let median_rank = counts.get(&50).copied().unwrap_or(0);
        assert!(
            top > 3 * median_rank.max(1),
            "rank 0 ({top}) should dominate rank 50 ({median_rank})"
        );
    }

    #[test]
    fn clients_span_the_configured_range() {
        let cfg = tiny();
        let clients: std::collections::BTreeSet<u32> =
            cfg.build().map(|r| r.client.raw()).collect();
        assert_eq!(clients.len(), cfg.clients as usize);
        assert!(clients.iter().all(|&c| c < cfg.clients));
    }

    #[test]
    fn scaled_preserves_structure() {
        let cfg = PolygraphConfig::scaled(0.001);
        assert_eq!(cfg.fill_requests, 1_000);
        assert_eq!(cfg.phase_requests, 1_495);
        assert_eq!(cfg.hot_set, 10);
        let n = cfg.build().count() as u64;
        assert_eq!(n, cfg.total_requests());
    }

    #[test]
    fn paper_scale_totals_399_million() {
        let cfg = PolygraphConfig::paper_scale();
        assert_eq!(cfg.total_requests(), 3_990_000);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn zero_scale_rejected() {
        let _ = PolygraphConfig::scaled(0.0);
    }
}
