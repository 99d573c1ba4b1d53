//! Property tests for the sharded executor's barrier protocol.
//!
//! Two layers:
//!
//! 1. An **abstract model** of the window protocol — per-shard ordered
//!    queues, lookahead-aligned windows, barrier-routed cross-shard
//!    spawns — checked against a single globally-ordered reference queue
//!    over randomized self-spawning event populations. The model proves
//!    the protocol itself: every shard processes exactly the events the
//!    reference processes, in the reference's `(at, seq)` order, and no
//!    cross-shard message is ever delivered before the barrier that
//!    routed it (the lookahead property).
//! 2. **Whole-simulator differentials** over randomized small open-loop
//!    configurations: runs must be invariant in the shard count and,
//!    when nothing samples agent state, equal to the single-threaded
//!    runner as well. (Sequential runs go to that runner; the delegation
//!    is pinned in `sharded_identity.rs`.)

use proptest::prelude::*;
use std::collections::BTreeMap;

/// SplitMix64 — the model's only randomness, derived from event keys so
/// both executions see identical spawn decisions.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A model event: globally unique `(at, seq)`, owned by `shard`, with
/// `gen` spawn generations left behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MEv {
    at: u64,
    seq: u64,
    shard: usize,
    gen: u8,
}

/// Deterministic spawns of a processed event: up to two children, each
/// targeting a hash-chosen shard. Cross-shard children are delayed by
/// at least the lookahead `w` (the protocol's contract), local children
/// by any amount including zero.
fn children(ev: MEv, shards: usize, w: u64) -> Vec<MEv> {
    if ev.gen == 0 {
        return Vec::new();
    }
    let h = mix(ev.at ^ (ev.seq << 1) ^ 0x5EED);
    (0..(h % 3))
        .map(|i| {
            let hi = mix(h ^ (i + 1));
            let target = (mix(hi) % shards as u64) as usize;
            let delay = if target == ev.shard {
                hi % 20
            } else {
                w + hi % 20
            };
            MEv {
                at: ev.at + delay,
                // Append a nonzero base-4 digit to the parent's path
                // (see `root_seq`): seqs stay globally unique.
                seq: ev.seq * 4 + (i + 1),
                shard: target,
                gen: ev.gen - 1,
            }
        })
        .collect()
}

/// Reference: one global queue, processed in strict `(at, seq)` order.
fn reference_run(initial: &[MEv], shards: usize, w: u64) -> Vec<MEv> {
    let mut queue: BTreeMap<(u64, u64), MEv> = BTreeMap::new();
    for &ev in initial {
        queue.insert((ev.at, ev.seq), ev);
    }
    let mut log = Vec::new();
    while let Some((&key, &ev)) = queue.first_key_value() {
        queue.remove(&key);
        log.push(ev);
        for child in children(ev, shards, w) {
            queue.insert((child.at, child.seq), child);
        }
    }
    log
}

/// The window protocol: per-shard queues, lookahead-aligned windows,
/// cross-shard spawns routed at the barrier. Returns the per-shard
/// processing logs plus the number of lookahead violations (cross-shard
/// spawns landing before the barrier that routed them); the caller's
/// `prop_assert`s act on both.
fn windowed_run(initial: &[MEv], shards: usize, w: u64) -> (Vec<Vec<MEv>>, usize) {
    let mut queues: Vec<BTreeMap<(u64, u64), MEv>> = vec![BTreeMap::new(); shards];
    for &ev in initial {
        queues[ev.shard].insert((ev.at, ev.seq), ev);
    }
    let mut logs: Vec<Vec<MEv>> = vec![Vec::new(); shards];
    let mut violations = 0usize;
    while let Some(min_next) = queues
        .iter()
        .filter_map(|q| q.first_key_value().map(|(&(at, _), _)| at))
        .min()
    {
        let window_end = (min_next / w) * w + w;
        let mut outbox: Vec<MEv> = Vec::new();
        // Shards are independent inside a window: this sequential sweep
        // is equivalent to running them concurrently.
        for (s, queue) in queues.iter_mut().enumerate() {
            while let Some((&key, &ev)) = queue.first_key_value() {
                if key.0 >= window_end {
                    break;
                }
                queue.remove(&key);
                logs[s].push(ev);
                for child in children(ev, shards, w) {
                    if child.shard == s {
                        queue.insert((child.at, child.seq), child);
                    } else {
                        outbox.push(child);
                    }
                }
            }
        }
        // The barrier: route cross-shard spawns; the lookahead property
        // says none of them lands inside the window just executed.
        for child in outbox {
            if child.at < window_end {
                violations += 1;
            }
            queues[child.shard].insert((child.at, child.seq), child);
        }
    }
    (logs, violations)
}

/// Seq of the `i`-th initial event: a 6-digit base-4 number with every
/// digit in `{1, 2}` (digit k = 1 + bit k of `i`). All seqs in the
/// population are then base-4 numbers whose digits are all nonzero —
/// initial events by construction, spawned events because `children`
/// only appends nonzero digits — and such numbers are in bijection with
/// their digit strings, so distinct events never share a seq.
fn root_seq(i: usize) -> u64 {
    (0..6).map(|k| (1 + ((i as u64 >> k) & 1)) << (2 * k)).sum()
}

/// A population of initial events with unique seqs across 1..=shards
/// shards, plus a lookahead width.
fn model_inputs() -> impl Strategy<Value = (Vec<MEv>, usize, u64)> {
    (
        proptest::collection::vec((0u64..200, 0u64..1 << 16, 0u8..4), 1..40),
        1usize..6,
        2u64..12,
    )
        .prop_map(|(raw, shards, w)| {
            let events = raw
                .into_iter()
                .enumerate()
                .map(|(i, (at, shard_pick, gen))| MEv {
                    at,
                    seq: root_seq(i),
                    shard: (shard_pick % shards as u64) as usize,
                    gen,
                })
                .collect();
            (events, shards, w)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The window protocol is observationally equivalent to one global
    /// ordered queue: every shard's processing log is exactly the
    /// reference log restricted to that shard, in reference order.
    #[test]
    fn window_protocol_matches_single_queue_reference(
        (initial, shards, w) in model_inputs(),
    ) {
        let reference = reference_run(&initial, shards, w);
        let (logs, violations) = windowed_run(&initial, shards, w);
        prop_assert_eq!(violations, 0, "cross-shard spawn delivered before its barrier");
        for (s, log) in logs.iter().enumerate() {
            let expected: Vec<MEv> =
                reference.iter().copied().filter(|e| e.shard == s).collect();
            prop_assert_eq!(
                &expected, log,
                "shard {} diverged from the reference order", s
            );
        }
        // No event is lost or invented.
        let total: usize = logs.iter().map(Vec::len).sum();
        prop_assert_eq!(total, reference.len());
    }

    /// Lookahead property in isolation: any spawn crossing shards is
    /// timestamped at or after the barrier of the window producing it —
    /// already counted inside `windowed_run`, asserted here on bigger
    /// populations to hunt boundary cases (`at` exactly on the grid).
    #[test]
    fn cross_shard_spawns_respect_the_lookahead(
        (initial, shards, w) in model_inputs(),
    ) {
        let (_, violations) = windowed_run(&initial, shards, w);
        prop_assert_eq!(violations, 0);
    }
}

// ---------------------------------------------------------------------
// Whole-simulator differentials.
// ---------------------------------------------------------------------

use adc_core::{AdcConfig, AdcProxy, ProxyId};
use adc_sim::{InjectionMode, SimConfig, SimTime, Simulation};
use adc_workload::StationaryZipf;

fn sim_agents(proxies: u32) -> Vec<AdcProxy> {
    let config = AdcConfig::builder()
        .single_capacity(64)
        .multiple_capacity(64)
        .cache_capacity(24)
        .max_hops(8)
        .build();
    (0..proxies)
        .map(|i| AdcProxy::new(ProxyId::new(i), proxies, config.clone()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Open-loop injection: randomized intervals and populations give
    /// the same bytes at any shard count.
    #[test]
    fn random_open_loop_runs_are_shard_count_invariant(
        proxies in 1u32..6,
        requests in 50usize..250,
        seed in any::<u64>(),
        shards in 2usize..6,
        interval_us in 1u64..400,
    ) {
        let config = SimConfig {
            injection: InjectionMode::OpenLoop {
                interval: SimTime::from_micros(interval_us),
            },
            ..SimConfig::default()
        };
        let workload = || StationaryZipf::new(60, 0.8, 4, seed).take(requests);
        let one = Simulation::new(sim_agents(proxies), config.clone())
            .run_sharded(workload(), 1);
        let many = Simulation::new(sim_agents(proxies), config.clone())
            .run_sharded(workload(), shards);
        prop_assert_eq!(one.to_deterministic_json(), many.to_deterministic_json());
    }

    /// The pool is pure execution strategy and profiling pure
    /// measurement: with nothing sampling agent state, a profiled run at
    /// any shard count gives the single-queue runner's bytes.
    #[test]
    fn profiled_open_loop_runs_match_the_runner(
        proxies in 1u32..6,
        requests in 50usize..200,
        seed in any::<u64>(),
        shards in 1usize..6,
        interval_us in 1u64..400,
    ) {
        let mut config = SimConfig {
            injection: InjectionMode::OpenLoop {
                interval: SimTime::from_micros(interval_us),
            },
            sample_occupancy: false,
            ..SimConfig::default()
        };
        let workload = || StationaryZipf::new(60, 0.8, 4, seed).take(requests);
        let plain = Simulation::new(sim_agents(proxies), config.clone()).run(workload());
        config.shard.profile = true;
        let profiled = Simulation::new(sim_agents(proxies), config)
            .run_sharded(workload(), shards);
        prop_assert_eq!(
            plain.to_deterministic_json(),
            profiled.to_deterministic_json()
        );
    }
}
