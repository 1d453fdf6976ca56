//! Log-space combinatorics for the counting arguments.
//!
//! Inequality (1) of the paper involves `N!`, `B!^{N/B}`, and binomials at
//! sizes where direct evaluation overflows anything fixed-width, so all
//! counting is done on natural logarithms. Two error-direction wrappers
//! make the bounds *sound*:
//!
//! * quantities on the **requirement side** (`ln(N!/B!^{N/B})`, the number
//!   of permutations that must be generated) are rounded **down**;
//! * quantities on the **capability side** (the per-round factor, what a
//!   round can generate) are rounded **up**;
//!
//! so the minimal round count we derive is never an over-claim. The raw
//! `ln_factorial` is exact summation up to a threshold and a truncated
//! Stirling series (with its classical bracketing property) above it.

/// Threshold below which `ln n!` is computed by exact summation.
const EXACT_LIMIT: u64 = 4096;

/// Relative slack applied by the rounding wrappers; covers both the
/// Stirling truncation and accumulated `f64` rounding, with a wide margin.
const SLACK: f64 = 1e-9;

/// `ln(n!)`, accurate to full `f64` precision below the exact-summation
/// threshold and to
/// better than `1e-12` relative error above it.
pub fn ln_factorial(n: u64) -> f64 {
    if n < 2 {
        return 0.0;
    }
    if n <= EXACT_LIMIT {
        return (2..=n).map(|k| (k as f64).ln()).sum();
    }
    let x = n as f64;
    // Stirling series: ln n! = n ln n − n + ½ln(2πn) + 1/(12n) − 1/(360n³) …
    // Truncating after the 1/(12n) term over-estimates by < 1/(360n³).
    x * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI * x).ln() + 1.0 / (12.0 * x)
}

/// `ln(n!)` rounded down (requirement side).
pub fn ln_factorial_down(n: u64) -> f64 {
    let v = ln_factorial(n);
    v - v.abs() * SLACK - 1e-12
}

/// `ln(n!)` rounded up (capability side).
pub fn ln_factorial_up(n: u64) -> f64 {
    let v = ln_factorial(n);
    v + v.abs() * SLACK + 1e-12
}

/// `ln C(n, k)`; zero when the binomial is degenerate.
pub fn ln_binomial(n: u64, k: u64) -> f64 {
    if k == 0 || k >= n {
        return 0.0;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// `ln C(n, k)` rounded up (capability side). For huge `n` the relative
/// slack on `ln n!` would swamp the difference of factorials, so the
/// result is capped by [`ln_binomial_cap`].
pub fn ln_binomial_up(n: u64, k: u64) -> f64 {
    if k == 0 || k >= n {
        return 0.0;
    }
    let up = ln_factorial_up(n) - ln_factorial_down(k) - ln_factorial_down(n - k);
    up.min(ln_binomial_cap(n as f64, k))
}

/// `ln (e·n/k)^k`, an upper bound on `ln C(n, k)` for `1 ≤ k ≤ n` that
/// stays accurate for any `n`, including pool sizes beyond `u64`.
pub fn ln_binomial_cap(n: f64, k: u64) -> f64 {
    let k = k as f64;
    k * (1.0 + (n / k).ln())
}

/// `log2` of a positive quantity given its natural log.
pub fn ln_to_log2(ln_x: f64) -> f64 {
    ln_x / std::f64::consts::LN_2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_factorials_exact() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert!((ln_factorial(5) - 120f64.ln()).abs() < 1e-12);
        assert!((ln_factorial(10) - 3628800f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn stirling_matches_exact_at_boundary() {
        // Compare the series against exact summation just above the cutoff.
        let n = EXACT_LIMIT + 1;
        let exact: f64 = (2..=n).map(|k| (k as f64).ln()).sum();
        let series = ln_factorial(n);
        assert!(
            (exact - series).abs() / exact < 1e-12,
            "exact={exact} series={series}"
        );
    }

    #[test]
    fn rounding_directions_bracket() {
        for n in [3u64, 100, 10_000, 1_000_000] {
            assert!(ln_factorial_down(n) <= ln_factorial(n));
            assert!(ln_factorial_up(n) >= ln_factorial(n));
        }
    }

    #[test]
    fn binomial_identities() {
        // C(10, 3) = 120.
        assert!((ln_binomial(10, 3) - 120f64.ln()).abs() < 1e-10);
        // Symmetry.
        assert!((ln_binomial(50, 13) - ln_binomial(50, 37)).abs() < 1e-9);
        // Degenerate cases.
        assert_eq!(ln_binomial(10, 0), 0.0);
        assert_eq!(ln_binomial(10, 10), 0.0);
        assert_eq!(ln_binomial(5, 9), 0.0);
    }

    #[test]
    fn binomial_up_dominates() {
        for (n, k) in [(100u64, 7u64), (100_000, 50_000), (1 << 20, 1 << 10)] {
            assert!(ln_binomial_up(n, k) >= ln_binomial(n, k));
            assert!(ln_binomial_cap(n as f64, k) >= ln_binomial(n, k));
        }
        // At n = 2^62 the factorial slack alone is ~1e11; the cap keeps
        // ln C(n, 2048) near its true ~2048·(1 + ln(n/2048)) ≈ 8.3e4.
        let huge = ln_binomial_up(1 << 62, 2048);
        assert!(huge < 1e5, "{huge}");
    }

    #[test]
    fn monotone_in_n() {
        let mut prev = 0.0;
        for n in 1..2000u64 {
            let v = ln_factorial(n);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn ln_to_log2_conversion() {
        assert!((ln_to_log2(8f64.ln()) - 3.0).abs() < 1e-12);
    }
}
