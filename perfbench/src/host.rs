//! Host-time measurement: wall-clock timing of calls into a layer, and
//! the steal time the hypervisor took over a whole run.
//!
//! The benchmark runs on virtual machines. When the hypervisor
//! deschedules a vCPU, an op in flight stalls for a reason outside the
//! program; Linux counts that time as steal in `/proc/stat`. Every
//! sample counts whatever happened while it ran, so a long op is never
//! more likely to be dropped than a short one. Steal is instead a
//! diagnostic of the run as a whole: the run reports the share of CPU
//! time stolen over it, and flags itself when that share passes
//! [`STEAL_FLAG`].

use std::time::Instant;

/// Share of the machine's CPU time stolen over a run above which the run
/// is flagged: its host-time metrics then say as much about the other
/// tenants of the machine as about the program.
pub const STEAL_FLAG: f64 = 0.05;

/// Clock ticks per second of `/proc/stat` (`USER_HZ`, fixed at 100 by
/// the Linux ABI).
const USER_HZ: f64 = 100.0;

/// `/proc/stat`, or an empty string where it is unavailable.
fn proc_stat() -> String {
    std::fs::read_to_string("/proc/stat").unwrap_or_default()
}

/// Steal time this machine has accrued over all its CPUs, in clock
/// ticks; 0 where `/proc/stat` is unavailable.
pub fn steal_ticks() -> u64 {
    proc_stat()
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// CPUs the machine's steal count covers (at least 1).
fn machine_cpus() -> usize {
    let n = proc_stat()
        .lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .count();
    n.max(1)
}

/// Steal time accrued between [`Steal::start`] and [`Steal::finish`].
#[derive(Debug, Clone, Copy)]
pub struct Steal {
    t0: Instant,
    ticks: u64,
}

impl Steal {
    /// Starts watching.
    pub fn start() -> Self {
        Steal {
            t0: Instant::now(),
            ticks: steal_ticks(),
        }
    }

    /// Ticks stolen since the start, and their share of the machine's
    /// CPU time over the same wall time.
    pub fn finish(&self) -> (u64, f64) {
        let ticks = steal_ticks().saturating_sub(self.ticks);
        let capacity = self.t0.elapsed().as_secs_f64() * USER_HZ * machine_cpus() as f64;
        let share = if capacity > 0.0 {
            ticks as f64 / capacity
        } else {
            0.0
        };
        (ticks, share)
    }
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Runs `f`; returns its result and its wall time in ms.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, ms_since(t0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_read_and_timing_is_positive() {
        let steal = Steal::start();
        let (v, ms) = timed(|| 7);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        let (_, share) = steal.finish();
        assert!(share.is_finite() && share >= 0.0);
        assert!(machine_cpus() >= 1);
    }
}
