//! The zero-cost probe abstraction.
//!
//! Agents and runtimes are generic over a [`Probe`]; every emission site
//! is guarded by `if P::ENABLED { probe.emit(...) }`. Agents have one
//! such site, `adc-core`'s `Tally::record`, which every decision passes
//! through; the simulator's flow events have their own. Because
//! `ENABLED` is an associated *constant*, monomorphization over
//! [`NullProbe`] deletes both the branch and the event construction —
//! the disabled path compiles to exactly the unobserved code.

use crate::event::{EventKind, SimEvent};

/// A receiver for [`SimEvent`]s.
///
/// Implementations must be cheap: `emit` sits on the simulator's hot
/// path. The contract with emission sites:
///
/// - emitters check [`Probe::ENABLED`] before constructing an event, so
///   a probe with `ENABLED = false` must be prepared for `emit` to never
///   be called;
/// - runtimes call [`Probe::tick`] with the current simulated (or
///   wall-clock-derived) time in microseconds *before* dispatching the
///   deliveries that happen at that time, so every `emit` is implicitly
///   timestamped by the latest `tick`.
pub trait Probe {
    /// `false` turns every guarded emission site into dead code.
    const ENABLED: bool;

    /// Advances the probe's notion of "now" (microseconds).
    #[inline(always)]
    fn tick(&mut self, now_us: u64) {
        let _ = now_us;
    }

    /// Records one event.
    #[inline(always)]
    fn emit(&mut self, event: SimEvent) {
        let _ = event;
    }
}

/// The default probe: observability disabled, all hooks compile away.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {
    const ENABLED: bool = false;
}

/// Fan-out composition: a pair of probes is a probe that forwards every
/// tick and event to both halves. `ENABLED` is the OR of the halves, and
/// each half keeps its own compile-time guard, so pairing with
/// [`NullProbe`] costs nothing for the null side.
impl<A: Probe, B: Probe> Probe for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn tick(&mut self, now_us: u64) {
        if A::ENABLED {
            self.0.tick(now_us);
        }
        if B::ENABLED {
            self.1.tick(now_us);
        }
    }

    #[inline]
    fn emit(&mut self, event: SimEvent) {
        if A::ENABLED {
            self.0.emit(event);
        }
        if B::ENABLED {
            self.1.emit(event);
        }
    }
}

/// A probe that only counts events per [`EventKind`] — the cheapest
/// enabled probe, used by the stat-reconciliation property tests.
#[derive(Debug, Default, Clone)]
pub struct CountingProbe {
    counts: [u64; EventKind::COUNT],
}

impl CountingProbe {
    /// Creates a probe with all counters at zero.
    pub fn new() -> Self {
        CountingProbe::default()
    }

    /// Number of events of `kind` seen so far.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Total events seen across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

impl Probe for CountingProbe {
    const ENABLED: bool = true;

    #[inline]
    fn emit(&mut self, event: SimEvent) {
        self.counts[event.kind() as usize] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_probe_is_disabled_and_inert() {
        const { assert!(!NullProbe::ENABLED) };
        let mut p = NullProbe;
        p.tick(42);
        p.emit(SimEvent::LocalHit {
            proxy: 0,
            object: 1,
        });
    }

    #[test]
    fn probe_pairs_fan_out_and_or_enablement() {
        const { assert!(!<(NullProbe, NullProbe) as Probe>::ENABLED) };
        const { assert!(<(NullProbe, CountingProbe) as Probe>::ENABLED) };
        let mut pair = (CountingProbe::new(), CountingProbe::new());
        pair.tick(7);
        pair.emit(SimEvent::LocalHit {
            proxy: 0,
            object: 1,
        });
        assert_eq!(pair.0.total(), 1);
        assert_eq!(pair.1.total(), 1);
    }

    #[test]
    fn counting_probe_counts_per_kind() {
        let mut p = CountingProbe::new();
        const { assert!(CountingProbe::ENABLED) };
        p.emit(SimEvent::LocalHit {
            proxy: 0,
            object: 1,
        });
        p.emit(SimEvent::LocalHit {
            proxy: 1,
            object: 2,
        });
        p.emit(SimEvent::CacheEvict {
            proxy: 0,
            object: 1,
        });
        assert_eq!(p.count(EventKind::LocalHit), 2);
        assert_eq!(p.count(EventKind::CacheEvict), 1);
        assert_eq!(p.count(EventKind::CacheInsert), 0);
        assert_eq!(p.total(), 3);
    }
}
