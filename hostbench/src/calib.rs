//! Host speed, measured beside the timed work.
//!
//! A shared host's speed drifts: on the 2-core host of the results in
//! `NOTES.md`, the same fixed computation takes 1.5–2× longer for seconds
//! at a time, and a series of runs can sit 20% slower than the one before
//! it. User CPU time drifts with wall time, so the cause is the host's
//! cores, not this process's scheduling. Every timing of an untraced run is
//! therefore
//! scaled to a reference host speed: `raw / slowdown` for times and
//! `raw × slowdown` for rates, where `slowdown` is the host time of a fixed
//! task run right beside the timed work over [`REFERENCE_S`].
//!
//! The task is a sort and a B-tree build from the standard library: the
//! same mix of branchy, cache-bound work as the simulator, but none of the
//! repository's code, so a change to the program moves the scaled figures
//! exactly as much as the raw ones.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Host time of [`task`] on the host of the results in `NOTES.md`, at its
/// usual speed.
pub const REFERENCE_S: f64 = 0.002;

/// The fixed task: sort 2^16 pseudo-random keys, then insert 2^14 of them
/// into a B-tree map. Returns its host time in seconds.
fn task() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut keys: Vec<u64> = (0..1 << 16)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let tree: BTreeMap<u64, usize> = keys.iter().step_by(4).copied().zip(0..).collect();
    keys.sort_unstable();
    black_box((&keys, &tree));
    t.elapsed().as_secs_f64()
}

/// How much slower than the reference the host runs right now: the mean
/// host time of the task on `threads` threads at once (one per core the
/// timed work keeps busy; the first is the calling thread) over
/// [`REFERENCE_S`].
pub fn slowdown(threads: usize) -> f64 {
    let total: f64 = std::thread::scope(|s| {
        let others: Vec<_> = (1..threads).map(|_| s.spawn(task)).collect();
        let mine = task();
        mine + others
            .into_iter()
            .map(|h| h.join().expect("calibration task does not panic"))
            .sum::<f64>()
    });
    total / threads.max(1) as f64 / REFERENCE_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_a_positive_finite_ratio() {
        for threads in [1, 2] {
            let s = slowdown(threads);
            assert!(s.is_finite() && s > 0.0, "{s}");
        }
    }
}
