//! The reference program the benchmark times to gauge how fast the host
//! runs memory-bound code at the moment.
//!
//! Two threads each fill a 32 MiB table with a random permutation
//! (Fisher–Yates) and then follow 2M dependent pointers through it, so
//! nearly all of the time goes to cache misses over a working set much
//! larger than the cache a vCPU gets. Prints the time taken, in seconds,
//! with host steal left out as for every other timed interval. It runs
//! in a process of its own so that its 64 MiB never count towards the
//! runner's peak memory.

#[allow(dead_code)]
#[path = "../host.rs"]
mod host;

/// Table entries per thread: 32 MiB of `u32`.
const ENTRIES: usize = 1 << 23;
/// Dependent loads per thread after the shuffle.
const STEPS: u64 = 2_000_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn chase(seed: u64) -> usize {
    let mut next: Vec<u32> = (0..ENTRIES as u32).collect();
    let mut x = seed;
    for i in (1..ENTRIES).rev() {
        let j = (xorshift(&mut x) % (i as u64 + 1)) as usize;
        next.swap(i, j);
    }
    let mut p = 0;
    for _ in 0..STEPS {
        p = next[p] as usize;
    }
    p
}

fn main() {
    let watch = host::Watch::start();
    std::thread::scope(|s| {
        for t in 0..2 {
            s.spawn(move || std::hint::black_box(chase(12345 ^ t)));
        }
    });
    println!("{}", watch.secs());
}
