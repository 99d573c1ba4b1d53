//! Persistent worker pool for the sharded executor, which runs open-loop
//! simulations; a sequential run goes to the single-queue runner and
//! never starts a pool.
//!
//! Worker threads are spawned once per run, lazily, on the first window
//! that has more than one active shard, and serve every later window.
//! The barrier between the coordinator and the workers is one
//! `Mutex<State>`. A thread that has to wait polls it between spin-loop
//! hints for [`SPIN_POLLS`] polls, about one window's drain, and only
//! then falls back to `thread::park`/`unpark`, so that back-to-back
//! windows hand off without a futex sleep and wake-up on their critical
//! path:
//!
//! * `epoch` — the publication counter. The coordinator bumps it to
//!   announce a new window; a worker that has seen epoch `e` waits until
//!   the value differs from `e`.
//! * `window_end` — the barrier timestamp of the published window.
//! * `cursor` — the claim index. Every participant (the workers and the
//!   coordinator, which always executes shards too) takes the next index
//!   and runs that shard cell, until the cursor passes the cell count.
//!   A worker stuck on a heavy shard simply claims fewer cells, and a
//!   pool smaller than the shard count still executes every shard.
//! * `done` — cells finished this window. The participant that finishes
//!   the last one unparks the coordinator, which waits for
//!   `done == cells` before it touches any shard again.
//! * `shutdown` — set when the run ends, and also when the coordinator
//!   unwinds, so every worker leaves its loop and the scope can join it.
//! * `panic` — the payload of the first cell that panicked this window.
//!   The cell still counts as done, so the barrier completes, and the
//!   coordinator re-raises the panic there instead of parking forever.
//!
//! The state lock is held only to claim, count, publish or poll, never
//! while a cell runs. Shard state lives in `Mutex` cells whose locks are
//! never contended: the cursor hands each cell to exactly one
//! participant per window, and the coordinator only locks the cells
//! between barriers, while every worker is waiting or idle.
//!
//! At most one thread per core spins: the pool has at most `cores - 1`
//! workers ([`default_workers`]) besides the coordinator, and on a
//! single-core host it has none, so the coordinator runs every cell
//! itself and never waits at all. The spin trades idle CPU between
//! windows for hand-off latency.
//!
//! # Determinism
//!
//! Scheduling decides *who* runs a cell's window, never *what* the cell
//! computes: a window's work is a pure function of the cell's own state
//! and `window_end`, cells never touch each other inside a window, and
//! the coordinator observes results only after the `done` barrier. Every
//! schedule therefore produces bit-identical shard states, including
//! the degenerate schedule with zero workers, where the coordinator
//! claims every cell itself (a single-core host).

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::{self, Thread};
#[expect(
    clippy::disallowed_types,
    reason = "wall-clock time feeds the execution profiler only, never window content"
)]
use std::time::Instant;

/// Polls of the barrier state a waiting thread makes before it parks:
/// about 0.7 ms on a 2-vCPU x86 host, on the order of one window's
/// drain, so a thread parks only when the other side is slow.
const SPIN_POLLS: u32 = 2_000;

/// Spin-loop hints between two polls, so that a spinning thread takes
/// the state lock rarely enough not to slow the threads that claim and
/// count under it.
const SPIN_HINTS: u32 = 16;

/// A thread's wait for the barrier state to move: spin for
/// [`SPIN_POLLS`] polls, then park between polls. Unparking a thread
/// that still spins costs no system call; the token it leaves makes one
/// later park return at once, and the caller re-checks the state.
#[derive(Default)]
struct Wait {
    polls: u32,
}

impl Wait {
    /// Pauses between two polls of the state.
    fn pause(&mut self) {
        if self.polls < SPIN_POLLS {
            self.polls += 1;
            for _ in 0..SPIN_HINTS {
                std::hint::spin_loop();
            }
        } else {
            thread::park();
        }
    }
}

/// One cell's slice of a window: drain every pending event scheduled
/// strictly before `window_end`.
pub(crate) trait WindowTask: Send {
    fn run_window(&mut self, window_end: u64);
}

/// Wall-clock split of one coordinator window, measured by
/// [`Pool::run_window_timed`]: the coordinator's own claim-and-drain
/// participation vs the time it spent at the barrier waiting for worker
/// shards to finish their cells.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WindowTiming {
    /// Nanoseconds the coordinator spent draining cells it claimed.
    pub busy_ns: u64,
    /// Nanoseconds the coordinator spent waiting at the barrier.
    pub wait_ns: u64,
}

/// The barrier state shared by the coordinator and every worker (see
/// the module docs for each field's role).
struct State {
    epoch: u64,
    window_end: u64,
    cursor: usize,
    done: usize,
    shutdown: bool,
    panic: Option<Box<dyn Any + Send>>,
}

/// The barrier: its state behind one lock, and whom to wake when the
/// last cell of a window is done.
struct Ctl {
    state: Mutex<State>,
    /// Parked-coordinator handle for the last-finisher unpark.
    coordinator: Thread,
}

impl Ctl {
    fn lock(&self) -> MutexGuard<'_, State> {
        // Cell panics are caught before they can unwind through this
        // lock, so poisoning would only follow a panic inside the pool
        // itself; the state stays consistent either way.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Runs every cell the claim cursor hands out, starting from the held
/// `state` lock; shared verbatim by workers and the coordinator's own
/// participation.
fn claim_and_run<'a, W: WindowTask>(
    ctl: &'a Ctl,
    mut state: MutexGuard<'a, State>,
    cells: &[Mutex<W>],
) {
    let n = cells.len();
    while state.cursor < n {
        let i = state.cursor;
        state.cursor += 1;
        let window_end = state.window_end;
        drop(state);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            // Uncontended by protocol (see module docs). A poisoned cell
            // only follows a panic the coordinator is already re-raising.
            let mut cell = cells[i].lock().unwrap_or_else(PoisonError::into_inner);
            cell.run_window(window_end);
        }));
        state = ctl.lock();
        if let Err(payload) = outcome {
            state.panic.get_or_insert(payload);
        }
        state.done += 1;
        if state.done == n {
            ctl.coordinator.unpark();
        }
    }
}

fn worker_loop<W: WindowTask>(ctl: &Ctl, cells: &[Mutex<W>]) {
    // Epoch 0 is "no window published yet"; starting below the live
    // value lets a worker spawned mid-dispatch join the very window that
    // triggered its spawn.
    let mut seen = 0u64;
    let mut wait = Wait::default();
    loop {
        let state = ctl.lock();
        if state.shutdown {
            return;
        }
        if state.epoch == seen {
            drop(state);
            wait.pause();
            continue;
        }
        seen = state.epoch;
        wait = Wait::default();
        claim_and_run(ctl, state, cells);
    }
}

/// A run-scoped handle to the worker pool; created by [`with_pool`],
/// which owns the `thread::scope` the workers live in. Dropping it,
/// normally or while the coordinator unwinds, shuts the workers down.
pub(crate) struct Pool<'scope, 'env, W> {
    scope: &'scope thread::Scope<'scope, 'env>,
    ctl: &'env Ctl,
    cells: &'env [Mutex<W>],
    /// Upper bound on workers ever spawned (0 = always inline).
    target_workers: usize,
    /// Unparkable handles of the workers spawned so far.
    workers: Vec<Thread>,
}

impl<'env, W: WindowTask> Pool<'_, 'env, W> {
    /// Workers actually spawned so far.
    #[cfg(test)]
    pub(crate) fn spawned(&self) -> usize {
        self.workers.len()
    }

    /// Executes one window over every cell with pending work.
    /// `parallelism_hint` is the number of cells that will actually do
    /// work; at most `hint - 1` workers are woken (the coordinator
    /// participates), and missing workers are spawned on demand —
    /// so a run that never needs parallelism never creates a thread.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of any cell that panicked in this window,
    /// on whichever thread it ran.
    pub(crate) fn run_window(&mut self, window_end: u64, parallelism_hint: usize) {
        let state = self.dispatch(window_end, parallelism_hint);
        claim_and_run(self.ctl, state, self.cells);
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
        let state = self.dispatch(window_end, parallelism_hint);
        let t0 = Instant::now();
        claim_and_run(self.ctl, state, self.cells);
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
    /// resets the claim cursor and the done count, bumps the epoch and
    /// wakes the workers. Returns the state lock, still held, for the
    /// coordinator's own first claim.
    fn dispatch(&mut self, window_end: u64, parallelism_hint: usize) -> MutexGuard<'env, State> {
        let want = parallelism_hint.saturating_sub(1).min(self.target_workers);
        while self.workers.len() < want {
            let ctl = self.ctl;
            let cells = self.cells;
            #[expect(
                clippy::disallowed_methods,
                reason = "the persistent worker pool: each worker lives for the whole run \
                          and serves every window"
            )]
            let handle = self.scope.spawn(move || worker_loop(ctl, cells));
            self.workers.push(handle.thread().clone());
        }
        let mut state = self.ctl.lock();
        state.epoch += 1;
        state.window_end = window_end;
        state.cursor = 0;
        state.done = 0;
        for worker in self.workers.iter().take(want) {
            worker.unpark();
        }
        state
    }

    /// Waits until every cell of the published window is done, then
    /// re-raises the first cell panic, if any. The last finisher unparks
    /// us, and leftover unpark tokens from earlier windows merely make
    /// one park return early — the loop re-checks.
    fn wait_barrier(&self) {
        let n = self.cells.len();
        let mut wait = Wait::default();
        loop {
            let mut state = self.ctl.lock();
            if state.done == n {
                if let Some(payload) = state.panic.take() {
                    drop(state);
                    panic::resume_unwind(payload);
                }
                return;
            }
            drop(state);
            wait.pause();
        }
    }
}

impl<W> Drop for Pool<'_, '_, W> {
    fn drop(&mut self) {
        // Every worker is waiting or idle here (windows end at the
        // barrier, and cell panics are caught), so none is mid-claim.
        self.ctl.lock().shutdown = true;
        for worker in &self.workers {
            worker.unpark();
        }
    }
}

/// Runs `body` with a lazily-spawned worker pool over `cells`, joining
/// every worker before returning, also when `body` panics. Returns
/// `body`'s result. `target_workers` caps the pool size; 0 means `body`
/// still gets a pool but every window runs inline on the calling thread.
pub(crate) fn with_pool<W: WindowTask, R>(
    cells: &[Mutex<W>],
    target_workers: usize,
    body: impl FnOnce(&mut Pool<'_, '_, W>) -> R,
) -> R {
    let ctl = Ctl {
        state: Mutex::new(State {
            epoch: 0,
            window_end: 0,
            cursor: cells.len(),
            done: 0,
            shutdown: false,
            panic: None,
        }),
        coordinator: thread::current(),
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "the one thread scope of a run: it holds the persistent worker pool and \
                  joins every worker when the run ends"
    )]
    thread::scope(|scope| {
        let mut pool = Pool {
            scope,
            ctl: &ctl,
            cells,
            target_workers,
            workers: Vec::new(),
        };
        body(&mut pool)
    })
}

/// Default pool size for `shards` shard cells: one participant per
/// available core, minus the coordinator (which always executes shards
/// too), and never more than could be useful. On a single-core host
/// this is 0 — fully inline execution, no threads.
pub(crate) fn default_workers(shards: usize) -> usize {
    let cores = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    cores.min(shards).saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

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

    /// Runs `body` on a helper thread and waits at most 10 s for it, so
    /// that a thread never woken fails the test (with `hang` as the
    /// message) instead of hanging it. Returns how the thread ended.
    fn within_10s<T: Send + 'static>(
        hang: &str,
        body: impl FnOnce() -> T + Send + 'static,
    ) -> thread::Result<T> {
        #[expect(
            clippy::disallowed_methods,
            reason = "a helper thread, so that the test can time a hang out"
        )]
        let run = thread::spawn(body);
        for _ in 0..1_000 {
            if run.is_finished() {
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        assert!(run.is_finished(), "{hang} after 10 s");
        run.join()
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
            let spawned = with_pool(&cells, workers, |pool| {
                for window in 1..=100u64 {
                    pool.run_window(window * 10, 5);
                }
                pool.spawned()
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
        let spawned = with_pool(&cells, 4, |pool| {
            for window in 1..=50u64 {
                pool.run_window(window, 1);
            }
            pool.spawned()
        });
        assert_eq!(spawned, 0);
        for cell in &cells {
            assert_eq!(cell.lock().unwrap().runs, 50);
        }
    }

    /// The timed window variant runs every cell exactly like the plain
    /// one and reports a busy/wait split that covers real work. Its 2 ms
    /// cells outlast the spin budget, so with workers the coordinator
    /// also spins out in `wait_barrier` and must be unparked by the last
    /// finisher.
    #[test]
    fn timed_windows_measure_the_coordinator_split() {
        struct Sleeper(u64);
        impl WindowTask for Sleeper {
            fn run_window(&mut self, _window_end: u64) {
                self.0 += 1;
                thread::sleep(Duration::from_millis(2));
            }
        }
        // Inline (zero workers): the coordinator drains every cell
        // itself, so its busy time covers all three sleeps and the
        // barrier wait is (near) zero.
        let cells: Vec<Mutex<Sleeper>> = (0..3).map(|_| Mutex::new(Sleeper(0))).collect();
        let spawned = with_pool(&cells, 0, |pool| {
            let t = pool.run_window_timed(10, 3);
            assert!(
                t.busy_ns >= 3 * 2_000_000,
                "inline busy {} < 3 sleeps",
                t.busy_ns
            );
            pool.spawned()
        });
        assert_eq!(spawned, 0);
        for cell in &cells {
            assert_eq!(cell.lock().unwrap().0, 1);
        }
        // With workers, the split still accounts every cell exactly once
        // (who ran what is scheduling; the counts must not move).
        let cells: Vec<Mutex<Sleeper>> = (0..4).map(|_| Mutex::new(Sleeper(0))).collect();
        with_pool(&cells, 3, |pool| {
            for window in 1..=5u64 {
                let _ = pool.run_window_timed(window, 4);
            }
        });
        for cell in &cells {
            assert_eq!(cell.lock().unwrap().0, 5);
        }
    }

    /// A cell that panics on a worker fails the run: it still counts as
    /// done, so the barrier completes, and the coordinator re-raises the
    /// worker's panic instead of parking forever.
    #[test]
    fn a_worker_panic_fails_the_run() {
        // Both cells meet at a two-party barrier, so they run on two
        // threads at once: the coordinator's and the worker's.
        struct PanicsOnWorker {
            coordinator: thread::ThreadId,
            meet: Arc<Barrier>,
        }
        impl WindowTask for PanicsOnWorker {
            fn run_window(&mut self, _window_end: u64) {
                self.meet.wait();
                assert_eq!(
                    thread::current().id(),
                    self.coordinator,
                    "cell panicked on a worker"
                );
            }
        }
        let run = within_10s("the coordinator was still parked at the barrier", || {
            let coordinator = thread::current().id();
            let meet = Arc::new(Barrier::new(2));
            let cells: Vec<Mutex<PanicsOnWorker>> = (0..2)
                .map(|_| {
                    Mutex::new(PanicsOnWorker {
                        coordinator,
                        meet: Arc::clone(&meet),
                    })
                })
                .collect();
            with_pool(&cells, 1, |pool| pool.run_window(1, 2))
        });
        let payload = run.expect_err("the worker's panic must fail the run");
        let message = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains("cell panicked on a worker"), "{message}");
    }

    /// Windows published several spin budgets apart: every worker spins
    /// out and parks between them, and must be unparked for the next
    /// window and for the shutdown. Each window's cells meet at a
    /// barrier of every participant, so a worker left parked holds the
    /// window up, and the run fails after 10 s instead of hanging.
    #[test]
    fn workers_that_spin_out_park_and_are_woken() {
        struct Meets {
            meet: Arc<Barrier>,
            runs: u64,
        }
        impl WindowTask for Meets {
            fn run_window(&mut self, _window_end: u64) {
                self.meet.wait();
                self.runs += 1;
            }
        }
        for workers in [0, 1, 3] {
            let hang = format!("a parked thread was never woken (workers={workers})");
            let run = within_10s(&hang, move || {
                let meet = Arc::new(Barrier::new(workers + 1));
                let cells: Vec<Mutex<Meets>> = (0..4)
                    .map(|_| {
                        Mutex::new(Meets {
                            meet: Arc::clone(&meet),
                            runs: 0,
                        })
                    })
                    .collect();
                let spawned = with_pool(&cells, workers, |pool| {
                    for window in 1..=5u64 {
                        pool.run_window(window, 4);
                        thread::sleep(Duration::from_millis(5));
                    }
                    pool.spawned()
                });
                (cells, spawned)
            });
            let (cells, spawned) = run.expect("the run must not panic");
            assert_eq!(spawned, workers, "workers={workers}");
            for cell in &cells {
                assert_eq!(cell.lock().unwrap().runs, 5, "workers={workers}");
            }
        }
    }

    /// Workers spawn lazily and only up to the useful count.
    #[test]
    fn workers_spawn_lazily_up_to_the_hint() {
        let cells = cells(6);
        with_pool(&cells, 16, |pool| {
            pool.run_window(1, 1);
            assert_eq!(pool.spawned(), 0);
            pool.run_window(2, 3);
            assert_eq!(pool.spawned(), 2);
            pool.run_window(3, 2);
            assert_eq!(pool.spawned(), 2, "shrinking hints never spawn");
            pool.run_window(4, 6);
            assert_eq!(pool.spawned(), 5);
        });
        for cell in &cells {
            assert_eq!(cell.lock().unwrap().runs, 4);
        }
    }
}
