//! Object-to-proxy ownership functions used by hash-routing proxies.
//!
//! The paper's baseline is "one simple hashing algorithm based on the
//! widely used CARP approach": a globally known hash function assigns
//! every object to exactly one proxy. CARP itself uses highest-random-
//! weight (HRW) hashing; we provide that plus a consistent-hash ring for
//! comparison.

use adc_core::{ObjectId, ProxyId};
use std::collections::BTreeMap;

/// A globally agreed object → proxy assignment.
pub trait OwnerMap {
    /// The proxy responsible for `object`.
    fn owner(&self, object: ObjectId) -> ProxyId;

    /// All proxies this map can assign to.
    fn proxies(&self) -> &[ProxyId];
}

fn mix(mut x: u64) -> u64 {
    // splitmix64 finalizer: cheap, well distributed, stable.
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// CARP-style highest-random-weight (rendezvous) hashing: the owner of an
/// object is the proxy with the highest combined hash score. Removing one
/// proxy remaps only the objects that proxy owned.
///
/// # Examples
///
/// ```
/// use adc_baselines::{Hrw, OwnerMap};
/// use adc_core::{ObjectId, ProxyId};
///
/// let hrw = Hrw::new((0..5).map(ProxyId::new));
/// let owner = hrw.owner(ObjectId::new(7));
/// assert!(hrw.proxies().contains(&owner));
/// // Deterministic.
/// assert_eq!(owner, hrw.owner(ObjectId::new(7)));
/// ```
#[derive(Debug, Clone)]
pub struct Hrw {
    proxies: Vec<ProxyId>,
}

impl Hrw {
    /// Creates an HRW map over the given proxies.
    ///
    /// # Panics
    ///
    /// Panics if the proxy set is empty.
    pub fn new(proxies: impl IntoIterator<Item = ProxyId>) -> Self {
        let proxies: Vec<ProxyId> = proxies.into_iter().collect();
        assert!(!proxies.is_empty(), "owner map needs at least one proxy");
        Hrw { proxies }
    }

    /// The combined score of `(object, proxy)`; exposed for tests.
    pub fn score(object: ObjectId, proxy: ProxyId) -> u64 {
        mix(object.raw() ^ mix(proxy.raw() as u64 ^ 0x5bd1_e995))
    }
}

impl OwnerMap for Hrw {
    #[expect(clippy::expect_used, reason = "constructors reject empty proxy sets")]
    fn owner(&self, object: ObjectId) -> ProxyId {
        *self
            .proxies
            .iter()
            .max_by_key(|&&p| Self::score(object, p))
            .expect("proxy set is non-empty")
    }

    fn proxies(&self) -> &[ProxyId] {
        &self.proxies
    }
}

/// Consistent hashing on a ring with virtual nodes (Karger et al.,
/// the paper's reference \[13\]).
#[derive(Debug, Clone)]
pub struct ConsistentRing {
    ring: BTreeMap<u64, ProxyId>,
    proxies: Vec<ProxyId>,
}

impl ConsistentRing {
    /// Creates a ring with `vnodes` virtual nodes per proxy.
    ///
    /// # Panics
    ///
    /// Panics if the proxy set is empty or `vnodes` is zero.
    pub fn new(proxies: impl IntoIterator<Item = ProxyId>, vnodes: usize) -> Self {
        let proxies: Vec<ProxyId> = proxies.into_iter().collect();
        assert!(!proxies.is_empty(), "owner map needs at least one proxy");
        assert!(vnodes > 0, "need at least one virtual node per proxy");
        let mut ring = BTreeMap::new();
        for &p in &proxies {
            for v in 0..vnodes {
                // Salt the vnode input so it can never coincide with an
                // object hash (objects and vnode indexes are both small
                // integers; identical inputs would pin every low-numbered
                // object onto one proxy's vnodes).
                let point = mix((u64::from(p.raw()) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    ^ (v as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f));
                ring.insert(point, p);
            }
        }
        ConsistentRing { ring, proxies }
    }

    /// Number of points on the ring.
    pub fn points(&self) -> usize {
        self.ring.len()
    }
}

impl OwnerMap for ConsistentRing {
    #[expect(clippy::expect_used, reason = "constructors reject empty proxy sets")]
    fn owner(&self, object: ObjectId) -> ProxyId {
        let h = mix(object.raw() ^ 0xd6e8_feb8_6659_fd93);
        // First point clockwise from the object's hash, wrapping around.
        self.ring
            .range(h..)
            .next()
            .or_else(|| self.ring.iter().next())
            .map(|(_, &p)| p)
            .expect("ring is non-empty")
    }

    fn proxies(&self) -> &[ProxyId] {
        &self.proxies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn proxies(n: u32) -> Vec<ProxyId> {
        (0..n).map(ProxyId::new).collect()
    }

    #[test]
    fn hrw_is_deterministic_and_in_range() {
        let hrw = Hrw::new(proxies(5));
        for i in 0..1000 {
            let o = ObjectId::new(i);
            let a = hrw.owner(o);
            assert_eq!(a, hrw.owner(o));
            assert!(a.raw() < 5);
        }
    }

    #[test]
    fn hrw_balances_load() {
        let hrw = Hrw::new(proxies(5));
        let mut counts: BTreeMap<ProxyId, usize> = BTreeMap::new();
        let n = 50_000;
        for i in 0..n {
            *counts.entry(hrw.owner(ObjectId::new(i))).or_default() += 1;
        }
        for (&p, &c) in &counts {
            let share = c as f64 / n as f64;
            assert!((share - 0.2).abs() < 0.02, "proxy {p} got share {share:.3}");
        }
    }

    #[test]
    fn hrw_minimal_disruption_on_removal() {
        // Removing proxy 4 must remap only the objects proxy 4 owned.
        let full = Hrw::new(proxies(5));
        let reduced = Hrw::new(proxies(4));
        for i in 0..10_000 {
            let o = ObjectId::new(i);
            let before = full.owner(o);
            let after = reduced.owner(o);
            if before.raw() != 4 {
                assert_eq!(before, after, "object {i} moved unnecessarily");
            } else {
                assert!(after.raw() < 4);
            }
        }
    }

    #[test]
    fn ring_is_deterministic_and_in_range() {
        let ring = ConsistentRing::new(proxies(5), 64);
        assert_eq!(ring.points(), 5 * 64);
        for i in 0..1000 {
            let o = ObjectId::new(i);
            assert_eq!(ring.owner(o), ring.owner(o));
            assert!(ring.owner(o).raw() < 5);
        }
    }

    #[test]
    fn ring_balance_improves_with_vnodes() {
        let imbalance = |vnodes: usize| {
            let ring = ConsistentRing::new(proxies(5), vnodes);
            let mut counts: BTreeMap<ProxyId, usize> = BTreeMap::new();
            let n = 20_000;
            for i in 0..n {
                *counts.entry(ring.owner(ObjectId::new(i))).or_default() += 1;
            }
            let max = *counts.values().max().unwrap() as f64;
            let min = counts.values().copied().min().unwrap_or(0) as f64;
            (max - min) / n as f64
        };
        assert!(imbalance(128) < imbalance(1));
    }

    #[test]
    fn ring_spreads_low_numbered_objects() {
        // Regression: object IDs and vnode indexes are both small
        // integers; an unsalted ring hashed them identically and pinned
        // every low-numbered object onto proxy 0's vnodes.
        let ring = ConsistentRing::new(proxies(5), 128);
        let mut counts = [0usize; 5];
        for i in 0..120 {
            counts[ring.owner(ObjectId::new(i)).raw() as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert!(
            max < 70,
            "low object IDs concentrate on one proxy: {counts:?}"
        );
        assert!(
            counts.iter().all(|&c| c > 0),
            "some proxy owns nothing: {counts:?}"
        );
    }

    #[test]
    fn ring_wraps_around() {
        // With one proxy and one vnode every object maps to it, including
        // objects hashing past the single ring point.
        let ring = ConsistentRing::new(proxies(1), 1);
        for i in 0..100 {
            assert_eq!(ring.owner(ObjectId::new(i)), ProxyId::new(0));
        }
    }

    #[test]
    #[should_panic(expected = "at least one proxy")]
    fn empty_hrw_rejected() {
        let _ = Hrw::new(std::iter::empty());
    }

    #[test]
    #[should_panic(expected = "at least one virtual node")]
    fn zero_vnodes_rejected() {
        let _ = ConsistentRing::new(proxies(2), 0);
    }
}
