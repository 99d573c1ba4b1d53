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
//! 2. **Whole-simulator differentials** over randomized small
//!    configurations: sequential sharded runs must equal the
//!    single-threaded runner byte-for-byte, and open-loop runs must be
//!    invariant in the shard count and, when nothing samples agent
//!    state, equal to the single-threaded runner as well.

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

/// Event classes mirroring the executor's widening bound
/// ([`Shard::cross_send_bound`] in `sharded.rs`): `Fast` events
/// (proxy-bound) may emit a cross-shard message the moment they are
/// processed; `Slow` events (origin-bound) only spawn a local `Fast`
/// reply one `slow_extra` later; `Sink` events (client-bound) are
/// absorbed without consequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Fast,
    Slow,
    Sink,
}

/// A model event: globally unique `(at, seq)`, owned by `shard`, of
/// widening class `class`, and `gen` spawn generations left behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MEv {
    at: u64,
    seq: u64,
    shard: usize,
    class: Class,
    gen: u8,
}

/// Deterministic spawns of a processed event. `Fast` events spawn up to
/// two children of hash-chosen class, each targeting a hash-chosen
/// shard; cross-shard children are delayed by at least the lookahead
/// `w` (the protocol's contract), local children by any amount
/// including zero. `Slow` events spawn only local `Fast` replies at
/// least `slow_extra` later (the origin's reply latency). `Sink`
/// events spawn nothing.
fn children(ev: MEv, shards: usize, w: u64, slow_extra: u64) -> Vec<MEv> {
    if ev.gen == 0 || ev.class == Class::Sink {
        return Vec::new();
    }
    let h = mix(ev.at ^ (ev.seq << 1) ^ 0x5EED);
    (0..(h % 3))
        .map(|i| {
            let hi = mix(h ^ (i + 1));
            let (target, delay, class) = match ev.class {
                Class::Slow => (ev.shard, slow_extra + hi % 20, Class::Fast),
                _ => {
                    let target = (mix(hi) % shards as u64) as usize;
                    let delay = if target == ev.shard {
                        hi % 20
                    } else {
                        w + hi % 20
                    };
                    let class = match hi % 3 {
                        0 => Class::Fast,
                        1 => Class::Slow,
                        _ => Class::Sink,
                    };
                    (target, delay, class)
                }
            };
            MEv {
                at: ev.at + delay,
                // Append a nonzero base-4 digit to the parent's path
                // (see `root_seq`): seqs stay globally unique.
                seq: ev.seq * 4 + (i + 1),
                shard: target,
                class,
                gen: ev.gen - 1,
            }
        })
        .collect()
}

/// Reference: one global queue, processed in strict `(at, seq)` order.
fn reference_run(initial: &[MEv], shards: usize, w: u64, slow_extra: u64) -> Vec<MEv> {
    let mut queue: BTreeMap<(u64, u64), MEv> = BTreeMap::new();
    for &ev in initial {
        queue.insert((ev.at, ev.seq), ev);
    }
    let mut log = Vec::new();
    while let Some((&key, &ev)) = queue.first_key_value() {
        queue.remove(&key);
        log.push(ev);
        for child in children(ev, shards, w, slow_extra) {
            queue.insert((child.at, child.seq), child);
        }
    }
    log
}

/// The model's widening bound, mirroring `Shard::cross_send_bound`:
/// the earliest instant this queue could emit a cross-shard message.
/// Any pending `Fast` event caps it at the queue head's timestamp; a
/// queue of only `Slow`/`Sink` work is `slow_extra` weaker; `Sink`-only
/// (or empty) queues never send.
fn model_bound(queue: &BTreeMap<(u64, u64), MEv>, slow_extra: u64) -> u64 {
    let Some((&(next_at, _), _)) = queue.first_key_value() else {
        return u64::MAX;
    };
    if queue.values().any(|e| e.class == Class::Fast) {
        next_at
    } else if queue.values().any(|e| e.class == Class::Slow) {
        next_at.saturating_add(slow_extra)
    } else {
        u64::MAX
    }
}

/// The window protocol: per-shard queues, lookahead-aligned windows,
/// cross-shard spawns routed at the barrier. With `widen`, the barrier
/// jumps to the lookahead-aligned window containing the earliest
/// possible cross-shard send, exactly as the executor does. Returns
/// the per-shard processing logs plus the number of lookahead
/// violations (cross-shard spawns landing before the barrier that
/// routed them) and the number of widened windows; panics (via
/// `prop_assert` in the caller) are driven by the returned counts.
fn windowed_run(
    initial: &[MEv],
    shards: usize,
    w: u64,
    slow_extra: u64,
    widen: bool,
) -> (
    Vec<Vec<MEv>>,
    /* violations */ usize,
    /* widened */ usize,
) {
    let mut queues: Vec<BTreeMap<(u64, u64), MEv>> = vec![BTreeMap::new(); shards];
    for &ev in initial {
        queues[ev.shard].insert((ev.at, ev.seq), ev);
    }
    let mut logs: Vec<Vec<MEv>> = vec![Vec::new(); shards];
    let mut violations = 0usize;
    let mut widened = 0usize;
    while let Some(min_next) = queues
        .iter()
        .filter_map(|q| q.first_key_value().map(|(&(at, _), _)| at))
        .min()
    {
        let grid_end = (min_next / w) * w + w;
        let mut window_end = grid_end;
        if widen {
            let earliest_send = queues
                .iter()
                .map(|q| model_bound(q, slow_extra))
                .min()
                .unwrap_or(u64::MAX);
            window_end = if earliest_send == u64::MAX {
                u64::MAX
            } else {
                ((earliest_send / w) * w).saturating_add(w).max(grid_end)
            };
            if window_end > grid_end {
                widened += 1;
            }
        }
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
                for child in children(ev, shards, w, slow_extra) {
                    if child.shard == s {
                        queue.insert((child.at, child.seq), child);
                    } else {
                        outbox.push(child);
                    }
                }
            }
        }
        // The barrier: route cross-shard spawns; the lookahead property
        // says none of them lands inside the window just executed —
        // widened or not.
        for child in outbox {
            if child.at < window_end {
                violations += 1;
            }
            queues[child.shard].insert((child.at, child.seq), child);
        }
    }
    (logs, violations, widened)
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
/// shards, plus a lookahead width and an origin-reply latency.
fn model_inputs() -> impl Strategy<Value = (Vec<MEv>, usize, u64, u64)> {
    (
        proptest::collection::vec((0u64..200, 0u64..1 << 16, 0u8..3, 0u8..4), 1..40),
        1usize..6,
        2u64..12,
        0u64..40,
    )
        .prop_map(|(raw, shards, w, slow_extra)| {
            let events = raw
                .into_iter()
                .enumerate()
                .map(|(i, (at, shard_pick, class_pick, gen))| MEv {
                    at,
                    seq: root_seq(i),
                    shard: (shard_pick % shards as u64) as usize,
                    class: match class_pick {
                        0 => Class::Fast,
                        1 => Class::Slow,
                        _ => Class::Sink,
                    },
                    gen,
                })
                .collect();
            (events, shards, w, slow_extra)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The window protocol is observationally equivalent to one global
    /// ordered queue: every shard's processing log is exactly the
    /// reference log restricted to that shard, in reference order.
    #[test]
    fn window_protocol_matches_single_queue_reference(
        (initial, shards, w, slow_extra) in model_inputs(),
    ) {
        let reference = reference_run(&initial, shards, w, slow_extra);
        let (logs, violations, _) = windowed_run(&initial, shards, w, slow_extra, false);
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
        (initial, shards, w, slow_extra) in model_inputs(),
    ) {
        let (_, violations, _) = windowed_run(&initial, shards, w, slow_extra, false);
        prop_assert_eq!(violations, 0);
    }

    /// Adaptive widening never admits a cross-shard delivery: even when
    /// the barrier jumps past the plain grid to the window containing
    /// the earliest possible cross-shard send, every routed spawn still
    /// lands at or beyond the widened barrier, and the per-shard logs
    /// remain exactly the single-queue reference.
    #[test]
    fn widened_barriers_never_admit_a_cross_shard_delivery(
        (initial, shards, w, slow_extra) in model_inputs(),
    ) {
        let reference = reference_run(&initial, shards, w, slow_extra);
        let (logs, violations, _) = windowed_run(&initial, shards, w, slow_extra, true);
        prop_assert_eq!(
            violations, 0,
            "widened barrier admitted a cross-shard delivery"
        );
        for (s, log) in logs.iter().enumerate() {
            let expected: Vec<MEv> =
                reference.iter().copied().filter(|e| e.shard == s).collect();
            prop_assert_eq!(
                &expected, log,
                "shard {} diverged from the reference under widening", s
            );
        }
        let total: usize = logs.iter().map(Vec::len).sum();
        prop_assert_eq!(total, reference.len());
    }
}

/// Widening must actually engage for the property above to bite: a
/// `Slow` head pushes the bound one reply latency out, and `Sink`-only
/// tails drain in a single unbounded window.
#[test]
fn widening_engages_on_slow_and_sink_populations() {
    let ev = |at, i, shard, class| MEv {
        at,
        seq: root_seq(i),
        shard,
        class,
        gen: 0,
    };
    // Two sinks 10 grid windows apart on different shards: unwidened
    // needs two windows; widened drains everything in one unbounded
    // window.
    let sinks = [ev(0, 0, 0, Class::Sink), ev(100, 1, 1, Class::Sink)];
    let (logs, violations, widened) = windowed_run(&sinks, 2, 10, 25, true);
    assert_eq!(
        (violations, widened),
        (0, 1),
        "sink-only run must widen once"
    );
    assert_eq!(logs.iter().map(Vec::len).sum::<usize>(), 2);
    // A slow head: the earliest cross-shard send is one reply latency
    // out, so the first barrier jumps from 10 to grid(0 + 25) + 10.
    let slow = [ev(0, 0, 0, Class::Slow), ev(40, 1, 1, Class::Fast)];
    let (_, violations, widened) = windowed_run(&slow, 2, 10, 25, true);
    assert_eq!(violations, 0);
    assert!(widened >= 1, "slow head must widen the first window");
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

    /// Sequential injection: the sharded executor reproduces the
    /// single-threaded runner byte-for-byte on randomized populations,
    /// workloads and shard counts.
    #[test]
    fn random_sequential_runs_match_the_single_threaded_runner(
        proxies in 1u32..6,
        requests in 50usize..250,
        seed in any::<u64>(),
        shards in 2usize..6,
    ) {
        let workload = || StationaryZipf::new(60, 0.8, 4, seed).take(requests);
        let legacy = Simulation::new(sim_agents(proxies), SimConfig::default())
            .run(workload());
        let sharded = Simulation::new(sim_agents(proxies), SimConfig::default())
            .run_sharded(workload(), shards);
        prop_assert_eq!(
            legacy.to_deterministic_json(),
            sharded.to_deterministic_json()
        );
    }

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

    /// Widening and the pool are pure execution strategy and profiling
    /// is pure measurement: with nothing sampling agent state, so that
    /// widening engages, a profiled run at any shard count gives the
    /// single-queue runner's bytes.
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
