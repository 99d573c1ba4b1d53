//! Persistent worker pool for the sharded executor.
//!
//! PR 6's coordinator spawned fresh OS threads through
//! `std::thread::scope` for *every* lookahead window — tens of thousands
//! of spawns per run, which is why 4-shard execution measured slower
//! than one thread. This module replaces that with threads spawned
//! **once per run** (lazily, on the first window that has more than one
//! active shard) and a sense-reversing barrier built from four atomics:
//!
//! * `epoch` — the publication counter. The coordinator bumps it to
//!   announce "a new window is ready"; a worker that has seen epoch `e`
//!   sleeps (`thread::park`) until the value differs from `e`.
//! * `window_end` — the barrier timestamp of the published window,
//!   written before the epoch bump and read by workers after they claim
//!   work (release/acquire pairing through `epoch` and `cursor`).
//! * `cursor` — the claim index. Every participant (workers *and* the
//!   coordinator, which always executes shards too) does
//!   `fetch_add(1)` and runs the shard cell at the returned index until
//!   the cursor passes the cell count. Claiming distributes load
//!   dynamically: a worker stuck on a heavy shard simply claims fewer
//!   cells, and a pool smaller than the shard count still executes every
//!   shard.
//! * `done` — the completion counter. The participant whose increment
//!   completes the last cell unparks the coordinator, which waits for
//!   `done == cells` before touching any shard again.
//!
//! Shard state lives in `Mutex` cells. The locks are *never contended*
//! by construction — the claim cursor hands each cell to exactly one
//! participant per window, and the coordinator only locks between
//! barriers, while every worker is parked or draining other cells — so
//! each lock is a handful of uncontended atomic operations per window.
//! They exist to make the hand-off points explicit and safe: the mutex
//! acquire/release pairs are exactly the synchronization edges of the
//! barrier protocol.
//!
//! # Determinism
//!
//! Scheduling decides *who* runs a cell's window, never *what* the cell
//! computes: a window's work is a pure function of the cell's own state
//! and `window_end`, cells never touch each other inside a window, and
//! the coordinator observes results only after the `done` barrier. Every
//! schedule therefore produces bit-identical shard states — including
//! the degenerate schedule with zero workers, where the coordinator
//! claims every cell itself (the automatic behaviour on a single-core
//! host, and the forced behaviour under `pool_threads: Some(0)`).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread::{self, Thread};
#[expect(
    clippy::disallowed_types,
    reason = "wall-clock time feeds the execution profiler only, never window content"
)]
use std::time::Instant;

/// One cell's slice of a window: drain every pending event scheduled
/// strictly before `window_end`.
pub(crate) trait WindowTask: Send {
    fn run_window(&mut self, window_end: u64);
}

/// Wall-clock split of one coordinator window, measured by
/// [`Pool::run_window_timed`]: the coordinator's own claim-and-drain
/// participation vs the time it spent parked at the barrier waiting for
/// worker shards to finish their cells.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WindowTiming {
    /// Nanoseconds the coordinator spent draining cells it claimed.
    pub busy_ns: u64,
    /// Nanoseconds the coordinator spent parked at the barrier.
    pub wait_ns: u64,
}

/// The barrier word shared by the coordinator and every worker.
struct Ctl {
    epoch: AtomicU64,
    window_end: AtomicU64,
    cursor: AtomicUsize,
    done: AtomicUsize,
    shutdown: AtomicBool,
    /// Parked-coordinator handle for the last-finisher unpark.
    coordinator: Thread,
}

/// Drains every cell the claim cursor hands out; shared verbatim by
/// workers and the coordinator's own participation loop.
fn claim_and_run<W: WindowTask>(ctl: &Ctl, cells: &[Mutex<W>]) {
    let n = cells.len();
    loop {
        let i = ctl.cursor.fetch_add(1, Ordering::AcqRel);
        if i >= n {
            return;
        }
        let window_end = ctl.window_end.load(Ordering::Acquire);
        {
            // Uncontended by protocol (see module docs); a poisoned cell
            // means another participant panicked and the run is already
            // lost — propagate by running anyway and letting the
            // coordinator's own unwind surface it.
            let mut cell = cells[i].lock().unwrap_or_else(PoisonError::into_inner);
            cell.run_window(window_end);
        }
        if ctl.done.fetch_add(1, Ordering::AcqRel) + 1 == n {
            ctl.coordinator.unpark();
        }
    }
}

fn worker_loop<W: WindowTask>(ctl: &Ctl, cells: &[Mutex<W>]) {
    // Epoch 0 is "no window published yet"; starting below the live
    // value lets a worker spawned mid-dispatch join the very window that
    // triggered its spawn.
    let mut seen = 0u64;
    loop {
        let epoch = ctl.epoch.load(Ordering::Acquire);
        if epoch == seen {
            if ctl.shutdown.load(Ordering::Acquire) {
                return;
            }
            // A stale unpark token only costs one spin of this loop.
            thread::park();
            continue;
        }
        seen = epoch;
        if ctl.shutdown.load(Ordering::Acquire) {
            return;
        }
        claim_and_run(ctl, cells);
    }
}

/// A run-scoped handle to the worker pool; created by [`with_pool`],
/// which owns the `thread::scope` the workers live in.
pub(crate) struct Pool<'scope, 'env, W> {
    scope: &'scope thread::Scope<'scope, 'env>,
    ctl: &'env Ctl,
    cells: &'env [Mutex<W>],
    /// Upper bound on workers ever spawned (0 = always inline).
    target_workers: usize,
    /// Unparkable handles of the workers spawned so far.
    workers: Vec<Thread>,
}

impl<W: WindowTask> Pool<'_, '_, W> {
    /// Workers actually spawned so far (the `pool_spawns` telemetry —
    /// the run-level count reaches callers via [`with_pool`]'s return).
    #[cfg(test)]
    pub(crate) fn spawned(&self) -> usize {
        self.workers.len()
    }

    /// Executes one window over every cell with pending work.
    /// `parallelism_hint` is the number of cells that will actually do
    /// work; at most `hint - 1` workers are woken (the coordinator
    /// participates), and missing workers are spawned on demand —
    /// so a run that never needs parallelism never creates a thread.
    pub(crate) fn run_window(&mut self, window_end: u64, parallelism_hint: usize) {
        self.dispatch(window_end, parallelism_hint);
        claim_and_run(self.ctl, self.cells);
        self.wait_barrier();
    }

    /// [`run_window`](Pool::run_window) with the coordinator's own
    /// wall-clock split measured for the execution profiler. Kept
    /// separate so unprofiled runs never touch a clock.
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "profiler telemetry only; never feeds simulated state"
    )]
    pub(crate) fn run_window_timed(
        &mut self,
        window_end: u64,
        parallelism_hint: usize,
    ) -> WindowTiming {
        self.dispatch(window_end, parallelism_hint);
        let t0 = Instant::now();
        claim_and_run(self.ctl, self.cells);
        // Cell work is done; everything past here is barrier stall.
        let t1 = Instant::now();
        self.wait_barrier();
        WindowTiming {
            // Durations ≪ 2^64 ns (584 years): the cast is lossless.
            busy_ns: (t1 - t0).as_nanos() as u64,
            wait_ns: t1.elapsed().as_nanos() as u64,
        }
    }

    /// Publishes a window to the pool: spawns any still-missing workers,
    /// resets the barrier words, bumps the epoch and wakes the workers.
    fn dispatch(&mut self, window_end: u64, parallelism_hint: usize) {
        let want = parallelism_hint.saturating_sub(1).min(self.target_workers);
        while self.workers.len() < want {
            let ctl = self.ctl;
            let cells = self.cells;
            let handle = self.scope.spawn(move || worker_loop(ctl, cells));
            self.workers.push(handle.thread().clone());
        }
        // ordering: Relaxed — the AcqRel epoch bump below is the sole
        // publication point; workers read this only after acquire-epoch.
        self.ctl.done.store(0, Ordering::Relaxed);
        // ordering: Relaxed — published by the same epoch bump as above.
        self.ctl.window_end.store(window_end, Ordering::Relaxed);
        self.ctl.cursor.store(0, Ordering::Release);
        // The release bump publishes done/window_end/cursor to any
        // worker whose acquire load observes the new epoch.
        self.ctl.epoch.fetch_add(1, Ordering::AcqRel);
        for worker in self.workers.iter().take(want) {
            worker.unpark();
        }
    }

    /// Parks until every cell of the published window is done. The last
    /// finisher unparks us, and leftover unpark tokens from earlier
    /// windows merely make one park return early — the loop re-checks.
    fn wait_barrier(&self) {
        let n = self.cells.len();
        while self.ctl.done.load(Ordering::Acquire) < n {
            thread::park();
        }
    }
}

/// Runs `body` with a lazily-spawned worker pool over `cells`, joining
/// every worker before returning. `target_workers` caps the pool size;
/// 0 means `body` still gets a pool but every window runs inline on the
/// calling thread.
pub(crate) fn with_pool<W: WindowTask, R>(
    cells: &[Mutex<W>],
    target_workers: usize,
    body: impl FnOnce(&mut Pool<'_, '_, W>) -> R,
) -> (R, usize) {
    let ctl = Ctl {
        epoch: AtomicU64::new(0),
        window_end: AtomicU64::new(0),
        cursor: AtomicUsize::new(cells.len()),
        done: AtomicUsize::new(0),
        shutdown: AtomicBool::new(false),
        coordinator: thread::current(),
    };
    thread::scope(|scope| {
        let mut pool = Pool {
            scope,
            ctl: &ctl,
            cells,
            target_workers,
            workers: Vec::new(),
        };
        let result = body(&mut pool);
        // Wake everyone into the shutdown check; the cursor is already
        // exhausted from the last window, so nobody claims work.
        ctl.shutdown.store(true, Ordering::Release);
        ctl.epoch.fetch_add(1, Ordering::AcqRel);
        for worker in &pool.workers {
            worker.unpark();
        }
        (result, pool.workers.len())
    })
}

/// Default pool size for `shards` shard cells: one participant per
/// available core, minus the coordinator (which always executes shards
/// too), and never more than could be useful. On a single-core host
/// this is 0 — fully inline execution, no threads, no atomics traffic.
pub(crate) fn default_workers(shards: usize) -> usize {
    let cores = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    cores.min(shards).saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        runs: u64,
        last_end: u64,
    }

    impl WindowTask for Counter {
        fn run_window(&mut self, window_end: u64) {
            self.runs += 1;
            self.last_end = window_end;
        }
    }

    fn cells(n: usize) -> Vec<Mutex<Counter>> {
        (0..n)
            .map(|_| {
                Mutex::new(Counter {
                    runs: 0,
                    last_end: 0,
                })
            })
            .collect()
    }

    /// Every cell runs exactly once per window, for any worker count —
    /// including zero (inline) and more workers than cells.
    #[test]
    fn every_cell_runs_once_per_window() {
        for workers in [0, 1, 3, 8] {
            let cells = cells(5);
            let ((), spawned) = with_pool(&cells, workers, |pool| {
                for window in 1..=100u64 {
                    pool.run_window(window * 10, 5);
                }
            });
            assert!(spawned <= workers, "spawned {spawned} > target {workers}");
            for cell in &cells {
                let c = cell.lock().unwrap();
                assert_eq!(c.runs, 100, "workers={workers}");
                assert_eq!(c.last_end, 1000, "workers={workers}");
            }
        }
    }

    /// A parallelism hint of 1 never spawns: the coordinator does all
    /// the work inline even when the pool would allow workers.
    #[test]
    fn single_active_windows_spawn_nothing() {
        let cells = cells(3);
        let ((), spawned) = with_pool(&cells, 4, |pool| {
            for window in 1..=50u64 {
                pool.run_window(window, 1);
            }
        });
        assert_eq!(spawned, 0);
        for cell in &cells {
            assert_eq!(cell.lock().unwrap().runs, 50);
        }
    }

    /// The timed window variant runs every cell exactly like the plain
    /// one and reports a busy/wait split that covers real work.
    #[test]
    fn timed_windows_measure_the_coordinator_split() {
        struct Sleeper(u64);
        impl WindowTask for Sleeper {
            fn run_window(&mut self, _window_end: u64) {
                self.0 += 1;
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        // Inline (zero workers): the coordinator drains every cell
        // itself, so its busy time covers all three sleeps and the
        // barrier wait is (near) zero.
        let cells: Vec<Mutex<Sleeper>> = (0..3).map(|_| Mutex::new(Sleeper(0))).collect();
        let ((), spawned) = with_pool(&cells, 0, |pool| {
            let t = pool.run_window_timed(10, 3);
            assert!(
                t.busy_ns >= 3 * 2_000_000,
                "inline busy {} < 3 sleeps",
                t.busy_ns
            );
        });
        assert_eq!(spawned, 0);
        for cell in &cells {
            assert_eq!(cell.lock().unwrap().0, 1);
        }
        // With workers, the split still accounts every cell exactly once
        // (who ran what is scheduling; the counts must not move).
        let cells: Vec<Mutex<Sleeper>> = (0..4).map(|_| Mutex::new(Sleeper(0))).collect();
        let ((), _) = with_pool(&cells, 3, |pool| {
            for window in 1..=5u64 {
                let _ = pool.run_window_timed(window, 4);
            }
        });
        for cell in &cells {
            assert_eq!(cell.lock().unwrap().0, 5);
        }
    }

    /// Workers spawn lazily and only up to the useful count.
    #[test]
    fn workers_spawn_lazily_up_to_the_hint() {
        let cells = cells(6);
        let ((), spawned) = with_pool(&cells, 16, |pool| {
            pool.run_window(1, 1);
            assert_eq!(pool.spawned(), 0);
            pool.run_window(2, 3);
            assert_eq!(pool.spawned(), 2);
            pool.run_window(3, 2);
            assert_eq!(pool.spawned(), 2, "shrinking hints never spawn");
            pool.run_window(4, 6);
            assert_eq!(pool.spawned(), 5);
        });
        assert_eq!(spawned, 5);
        for cell in &cells {
            assert_eq!(cell.lock().unwrap().runs, 4);
        }
    }
}
