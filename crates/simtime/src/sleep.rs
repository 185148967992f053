//! Delay injection primitives.
//!
//! Simulated hardware costs (PCI-e transfers, NIC serialisation, kernel
//! launch latency, polling intervals) are injected as real wall-clock delays.
//! On a lightly loaded machine `thread::sleep` has a granularity of tens of
//! microseconds, which is far coarser than the microsecond-scale latencies we
//! model, so short delays are realised with a yielding spin loop instead.
//! Long delays always use `thread::sleep` so that the (possibly single-core)
//! host is not starved by busy waiting.
//!
//! # Timer slack
//!
//! Linux lets every timed sleep of a thread expire up to its *timer slack*
//! late (50 µs by default; see `prctl(2)`, `PR_SET_TIMERSLACK`), so a
//! `sleep(2 µs)` really takes ~56 µs and a `sleep(50 µs)` ~104 µs.  Every
//! thread the simulator spawns calls [`fine_timer_slack`] first, which
//! lowers its slack to 1 ns: short sleeps (device-side waits, timed channel
//! receives) then wake within microseconds of their deadline.
//!
//! The 200 µs spin threshold of [`precise_sleep`] stays although sleeps are
//! now accurate: lowering it to 15 µs, so more modelled delays sleep
//! instead of yield-spinning, made the `nbody_jobs` benchmark's p50 3–10%
//! worse in 3 of 3 A/B pairs.

use std::time::{Duration, Instant};

/// Threshold below which a delay is realised by spinning rather than
/// sleeping.  Chosen so that OS timer granularity does not dominate the
/// modelled latencies while keeping CPU burn bounded.
const SPIN_THRESHOLD: Duration = Duration::from_micros(200);

/// Portion of a long delay that is still spun away after sleeping, to absorb
/// over-sleep from the OS scheduler.
const SLEEP_SLACK: Duration = Duration::from_micros(150);

/// Sleep for `d`, trading CPU time for accuracy only when `d` is short.
///
/// * `d >= 200µs`: `thread::sleep` for most of the interval, then yield-spin
///   the remainder.
/// * `d < 200µs`: yield-spin the whole interval.  Yielding (rather than a raw
///   `spin_loop`) keeps the simulation live on single-core hosts where the
///   thread being waited on needs the same core.
pub fn precise_sleep(d: Duration) {
    if d.is_zero() {
        return;
    }
    let start = Instant::now();
    if d >= SPIN_THRESHOLD {
        let coarse = d.saturating_sub(SLEEP_SLACK);
        if !coarse.is_zero() {
            std::thread::sleep(coarse);
        }
    }
    while start.elapsed() < d {
        std::thread::yield_now();
    }
}

/// Sleep for `micros` microseconds (convenience wrapper over
/// [`precise_sleep`]).
pub fn sleep_micros(micros: u64) {
    precise_sleep(Duration::from_micros(micros));
}

/// Lower the calling thread's timer slack to 1 ns, so its timed sleeps and
/// timed waits expire when asked instead of up to 50 µs late (see the module
/// docs).  Runs the system call once per thread; later calls are free.  A
/// no-op on targets other than Linux.
pub fn fine_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        use std::cell::Cell;
        thread_local!(static DONE: Cell<bool> = const { Cell::new(false) });
        DONE.with(|done| {
            if !done.replace(true) {
                // SAFETY: PR_SET_TIMERSLACK only reads its integer argument
                // and changes the calling thread's own timer slack.
                unsafe { prctl::prctl(prctl::PR_SET_TIMERSLACK, 1) };
            }
        });
    }
}

/// The calling thread's timer slack in nanoseconds, or `None` where it
/// cannot be read (targets other than Linux).
pub fn timer_slack_ns() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: PR_GET_TIMERSLACK takes no pointer arguments and only
        // returns the calling thread's timer slack.
        let slack = unsafe { prctl::prctl(prctl::PR_GET_TIMERSLACK, 0) };
        u64::try_from(slack).ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// The one libc entry point this module needs (there is no `libc` crate in
/// the build), with its argument pinned to the `unsigned long` the kernel
/// reads.
#[cfg(target_os = "linux")]
mod prctl {
    use std::os::raw::{c_int, c_ulong};

    pub const PR_SET_TIMERSLACK: c_int = 29;
    pub const PR_GET_TIMERSLACK: c_int = 30;

    extern "C" {
        #[link_name = "prctl"]
        fn prctl_variadic(option: c_int, ...) -> c_int;
    }

    /// # Safety
    /// `option` must be one that takes no pointer in `arg`.
    pub unsafe fn prctl(option: c_int, arg: c_ulong) -> c_int {
        prctl_variadic(option, arg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn fine_timer_slack_is_idempotent_and_reads_back() {
        std::thread::spawn(|| {
            fine_timer_slack();
            assert_eq!(timer_slack_ns(), Some(1));
            fine_timer_slack();
            assert_eq!(timer_slack_ns(), Some(1));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn zero_sleep_returns_immediately() {
        let start = Instant::now();
        precise_sleep(Duration::ZERO);
        assert!(start.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn short_sleep_is_at_least_requested() {
        let d = Duration::from_micros(50);
        let start = Instant::now();
        precise_sleep(d);
        assert!(start.elapsed() >= d);
    }

    #[test]
    fn long_sleep_is_at_least_requested() {
        let d = Duration::from_millis(2);
        let start = Instant::now();
        precise_sleep(d);
        assert!(start.elapsed() >= d);
    }

    #[test]
    fn sleep_micros_matches_duration() {
        let start = Instant::now();
        sleep_micros(300);
        assert!(start.elapsed() >= Duration::from_micros(300));
    }
}
