//! Per-thread CPU time, for timing runs that execute on worker threads.
//!
//! Wall-clock time is meaningless when many simulations share the machine:
//! a run that was descheduled looks slow even though it did no extra work.
//! `CLOCK_THREAD_CPUTIME_ID` counts only the CPU time the *calling thread*
//! actually consumed, so parallel sweep workers can report comparable
//! per-run costs. On non-Linux targets the probe returns `Duration::ZERO`
//! and callers fall back to wall-clock timing.

use std::time::Duration;

#[cfg(target_os = "linux")]
mod linux {
    use std::time::Duration;

    // From <time.h>; stable part of the Linux ABI.
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        // CPU-time telemetry only, never simulation state.
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }

    pub fn thread_cpu_now() -> Duration {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable Timespec matching the C layout.
        #[expect(
            unsafe_code,
            reason = "the one FFI clock read: per-thread CPU time for run telemetry, never \
                      simulation state"
        )]
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        if rc != 0 {
            return Duration::ZERO;
        }
        Duration::new(
            ts.tv_sec.max(0) as u64,
            ts.tv_nsec.clamp(0, 999_999_999) as u32,
        )
    }
}

/// CPU time consumed by the calling thread so far.
///
/// Monotonic within a thread; differences between two probes on the same
/// thread measure the CPU time that thread spent in between. Returns
/// [`Duration::ZERO`] where the probe is unavailable (non-Linux targets or
/// a failing `clock_gettime`), so always diff with `saturating_sub`.
pub fn thread_cpu_now() -> Duration {
    #[cfg(target_os = "linux")]
    {
        linux::thread_cpu_now()
    }
    #[cfg(not(target_os = "linux"))]
    {
        Duration::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_within_thread() {
        let a = thread_cpu_now();
        // Burn a little CPU so the clock visibly advances on Linux.
        let mut acc = 0u64;
        for i in 0..200_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
        let b = thread_cpu_now();
        assert!(b >= a, "thread CPU clock went backwards: {a:?} -> {b:?}");
        #[cfg(target_os = "linux")]
        assert!(b > Duration::ZERO);
    }

    #[test]
    fn threads_have_independent_clocks() {
        // A fresh thread's CPU clock starts near zero even if this thread
        // has already burned CPU.
        let in_thread = std::thread::spawn(thread_cpu_now).join().unwrap();
        assert!(in_thread < Duration::from_secs(1));
    }
}
