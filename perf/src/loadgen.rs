//! Load generation for the serving workload.
//!
//! The open loop sends requests on a seeded schedule whether or not
//! earlier ones have returned, so a stall delays every later request
//! and shows in their latency; each request is timed from the moment it
//! was due, not from when a connection became free to send it. The
//! closed loop keeps a fixed number of clients sending back to back.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use zbp_support::rng::SmallRng;

/// Due times, as offsets from the start, of requests whose gaps are
/// exponentially distributed with mean `mean_gap`, up to `window`. The
/// same seed gives the same schedule.
pub fn poisson_schedule(seed: u64, mean_gap: Duration, window: Duration) -> Vec<Duration> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        let u: f64 = rng.random();
        t += -mean_gap.as_secs_f64() * (1.0 - u).ln();
        if t >= window.as_secs_f64() {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

/// One request of a load run. Times are offsets from the run's start.
#[derive(Debug, Clone)]
pub struct Outcome<T> {
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    pub value: T,
}

impl<T> Outcome<T> {
    /// Time from when the request was due to when it completed.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How far behind its schedule the generator sent the request.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Sends request `i` at `due[i]` over at most `connections` concurrent
/// connections. A request due while every connection is busy waits for
/// the first one to free up; that wait is part of its latency and shows
/// as lateness. Outcomes come back in schedule order.
pub fn open_loop<T: Send>(
    due: &[Duration],
    connections: usize,
    send: impl Fn(usize) -> T + Sync,
) -> Vec<Outcome<T>> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<Outcome<T>>>> = Mutex::new((0..due.len()).map(|_| None).collect());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..connections.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(&at) = due.get(i) else { break };
                if let Some(wait) = at.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                let sent = start.elapsed();
                let value = send(i);
                let done = start.elapsed();
                out.lock().expect("load outcome lock poisoned")[i] =
                    Some(Outcome { due: at, sent, done, value });
            });
        }
    });
    out.into_inner()
        .expect("load outcome lock poisoned")
        .into_iter()
        .map(|o| o.expect("every scheduled request was sent"))
        .collect()
}

/// Keeps `clients` clients sending back to back until `window` has
/// passed, and returns every completed request once the last returns.
pub fn closed_loop<T: Send>(
    clients: usize,
    window: Duration,
    send: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients.max(1) {
            s.spawn(|| {
                while start.elapsed() < window {
                    let value = send(next.fetch_add(1, Ordering::SeqCst));
                    out.lock().expect("load outcome lock poisoned").push(value);
                }
            });
        }
    });
    out.into_inner().expect("load outcome lock poisoned")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let (gap, window) = (Duration::from_millis(40), Duration::from_secs(10));
        let a = poisson_schedule(3, gap, window);
        assert_eq!(a, poisson_schedule(3, gap, window));
        assert_ne!(a, poisson_schedule(4, gap, window));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        assert!(a.last().is_some_and(|&t| t < window));
        // About window / gap = 250 arrivals.
        assert!((150..350).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn latency_counts_the_wait_for_a_busy_connection() {
        // Three requests due at once over two connections: the third
        // cannot be sent before one of the first two has returned.
        let service = Duration::from_millis(30);
        let due = vec![Duration::ZERO; 3];
        let out = open_loop(&due, 2, |i| {
            std::thread::sleep(service);
            i
        });
        assert_eq!(out.iter().map(|o| o.value).collect::<Vec<_>>(), vec![0, 1, 2]);
        let third = &out[2];
        assert!(third.lateness() >= service, "lateness {:?}", third.lateness());
        assert!(third.latency() >= 2 * service, "latency {:?}", third.latency());
        assert_eq!(third.latency(), third.done - third.due);
        for o in &out[..2] {
            assert!(o.latency() >= service);
            assert!(o.lateness() < service, "a free connection sends on time");
        }
    }

    #[test]
    fn requests_wait_for_their_due_time() {
        let due = vec![Duration::from_millis(20), Duration::from_millis(40)];
        let out = open_loop(&due, 2, |_| ());
        for o in &out {
            assert!(o.sent >= o.due, "sent {:?} before due {:?}", o.sent, o.due);
        }
    }

    #[test]
    fn closed_loop_runs_until_the_window_closes() {
        let start = Instant::now();
        let done = closed_loop(2, Duration::from_millis(50), |i| {
            std::thread::sleep(Duration::from_millis(5));
            i
        });
        assert!(start.elapsed() >= Duration::from_millis(50));
        assert!(done.len() >= 10, "{} requests", done.len());
        let mut ids = done.clone();
        ids.sort_unstable();
        assert_eq!(ids, (0..done.len()).collect::<Vec<_>>(), "each request numbered once");
    }
}
