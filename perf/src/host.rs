//! Time the program was given by the host.
//!
//! The benchmark runs in a virtual machine whose vCPUs the host takes
//! away for long stretches: `steal` in `/proc/stat` rose by up to a third
//! of all vCPU time while the grid workloads ran, and grid wall time rose
//! with it, while the process's own CPU time stayed flat. So every timed
//! interval is reported as wall time minus the steal that fell inside
//! it, shared out over the vCPUs. Raw wall times are printed next to
//! the result.

use std::time::{Duration, Instant};

/// Kernel clock ticks per second, the unit of `/proc/stat`.
const USER_HZ: f64 = 100.0;

/// Total steal time over every vCPU since boot; zero where the kernel
/// does not report it.
pub fn steal() -> Duration {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| parse_steal(&stat))
        .unwrap_or(Duration::ZERO)
}

/// The steal field (the eighth count) of the aggregate `cpu` line.
fn parse_steal(stat: &str) -> Option<Duration> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(Duration::from_secs_f64(ticks / USER_HZ))
}

fn vcpus() -> f64 {
    std::thread::available_parallelism().map_or(1, usize::from) as f64
}

/// A stopwatch that leaves out time the host stole from the vCPUs.
#[derive(Debug, Clone, Copy)]
pub struct Watch {
    start: Instant,
    steal: Duration,
}

impl Watch {
    pub fn start() -> Self {
        Self { steal: steal(), start: Instant::now() }
    }

    /// Wall time since the start.
    pub fn wall(&self) -> Duration {
        self.start.elapsed()
    }

    /// Steal since the start, shared out over the vCPUs.
    pub fn stolen(&self) -> Duration {
        steal().saturating_sub(self.steal).div_f64(vcpus())
    }

    /// Wall time since the start less [`Self::stolen`].
    pub fn elapsed(&self) -> Duration {
        let wall = self.wall();
        wall.saturating_sub(self.stolen())
    }

    /// [`Self::elapsed`] in seconds.
    pub fn secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_steal_field_of_the_cpu_line() {
        let stat = "cpu  141406 0 8671 1837649 371 0 481 15064 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal(stat), Some(Duration::from_secs_f64(150.64)));
        assert_eq!(parse_steal("cpu0 1 2 3\n"), None);
        assert_eq!(parse_steal("cpu  1 2 3\n"), None, "kernels without a steal field");
    }

    #[test]
    fn a_watch_never_runs_backwards() {
        let w = Watch::start();
        std::thread::sleep(Duration::from_millis(5));
        assert!(w.wall() >= Duration::from_millis(5));
        assert!(w.elapsed() <= w.wall());
    }
}
