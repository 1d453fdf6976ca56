//! A minimal wall-clock benchmarking harness.
//!
//! The workspace builds offline with zero external dependencies, so instead
//! of Criterion the `benches/` targets (all `harness = false`) use this
//! self-calibrating timer: warm up, pick an iteration count targeting a
//! fixed measurement window, report mean time per iteration and optional
//! element throughput. Results print as one aligned line per benchmark —
//! good enough to spot order-of-magnitude regressions, which is all the
//! simulator benches are for (the I/O-cost *tables* are exact and come from
//! the `run_all` binary).

use std::time::{Duration, Instant};

/// Target wall-clock time for the measured phase of one benchmark.
const MEASURE_TARGET: Duration = Duration::from_millis(200);
/// Hard cap on measured iterations (cheap closures would otherwise spin).
const MAX_ITERS: u32 = 10_000;

/// One benchmark measurement: mean wall-clock per iteration.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark label.
    pub name: String,
    /// Iterations actually measured.
    pub iters: u32,
    /// Mean time per iteration.
    pub per_iter: Duration,
    /// Elements processed per iteration (0 = unknown, no throughput line).
    pub elems: u64,
}

impl Measurement {
    /// Elements per second, if an element count was attached.
    pub fn throughput(&self) -> Option<f64> {
        if self.elems == 0 || self.per_iter.is_zero() {
            return None;
        }
        Some(self.elems as f64 / self.per_iter.as_secs_f64())
    }
}

impl std::fmt::Display for Measurement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<44} {:>12.3?}/iter  ({} iters)",
            self.name, self.per_iter, self.iters
        )?;
        if let Some(t) = self.throughput() {
            write!(f, "  {:>10.0} elems/s", t)?;
        }
        Ok(())
    }
}

/// Time `f`, self-calibrating the iteration count, and print one line.
///
/// The closure's return value is passed through `std::hint::black_box` so
/// the optimizer cannot delete the benchmarked work.
pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> Measurement {
    bench_with_elems(name, 0, &mut f)
}

/// [`bench()`] with an element count attached for throughput reporting.
pub fn bench_with_elems<R>(name: &str, elems: u64, mut f: impl FnMut() -> R) -> Measurement {
    // Warm-up and calibration: one timed run decides the iteration count.
    let t0 = Instant::now();
    std::hint::black_box(f());
    let once = t0.elapsed().max(Duration::from_nanos(1));
    let iters =
        (MEASURE_TARGET.as_nanos() / once.as_nanos().max(1)).clamp(1, MAX_ITERS as u128) as u32;

    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let total = t0.elapsed();

    let m = Measurement {
        name: name.to_string(),
        iters,
        // Floor at 1ns: a closure the optimizer reduces to nearly nothing
        // can otherwise truncate to a zero Duration and lose throughput.
        per_iter: (total / iters).max(Duration::from_nanos(1)),
        elems,
    };
    println!("{m}");
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_and_reports() {
        let m = bench("noop", || 1 + 1);
        assert!(m.iters >= 1);
        assert!(m.throughput().is_none());
    }

    #[test]
    fn throughput_uses_elems() {
        let m = bench_with_elems("spin", 1000, || {
            std::hint::black_box((0..100u64).sum::<u64>())
        });
        assert!(m.throughput().unwrap() > 0.0);
    }
}
